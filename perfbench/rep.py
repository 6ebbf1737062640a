"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 perfbench/rep.py SPEC.json

The spec names the checkout root, the config file, the ``qscsim`` argv, and
whether to stop after set-up or to trace.  The parent passes its
``time.monotonic_ns()`` at spawn in ``PERFBENCH_T0_NS``, so set-up time runs
from process start until ``qscsim`` is imported and the config is parsed.
The repetition prints one JSON object: its timings, peak RSS, and the
captured stdout/stderr of ``qscsim.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    t0 = int(os.environ["PERFBENCH_T0_NS"])
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import qscsim.cli as cli
    from qscsim.config import load_config

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported qscsim from {cli.__file__}, not from {src}")
    load_config(spec["config"])
    result: dict = {"setup_s": (time.monotonic_ns() - t0) / 1e9}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from tracer import CLI_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, CLI_SPAN)
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(spec["argv"])
    except (Exception, SystemExit):
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result.update(
        wall_s=wall,
        rc=rc,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        if spec.get("spans_out"):
            tracer.write_spans(Path(spec["spans_out"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
