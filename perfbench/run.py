"""qscsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, and the run fails without printing a result when it is
missing.  Every operation is one call of ``qscsim.cli.main`` in a fresh
interpreter (``perfbench/rep.py``), closed loop: the next starts when the
previous returns.

``--trace 0`` runs inputs in pairs, one at ``--threads 1`` and one at
``--threads 2`` on the same generated config (the order alternates), for
``--seconds`` seconds, after a few set-up probes.  It reports the end-to-end
metrics as medians over the repetitions.  ``--trace 1`` alternates untraced
and traced repetitions of one config at ``--threads 1`` and reports the
per-layer metrics (see ``perfbench/README.md``).

Every output is checked (``workloads.py``), both outputs of a pair must be
byte-identical, and traced output must equal untraced output.  The last line
of stdout is the JSON result; details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import COUNT_METRICS, LAYER_METRICS
from workloads import WORKLOADS, master_seed, strict_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = (1, 2)
#: Set-up probes per run, after one discarded warm-up probe that compiles
#: bytecode and fills the file cache.
SETUP_PROBES = 5
#: A run must exit within 180 s; no repetition may run past this point.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "decisions_per_s_2t": "1/s",
    "peak_rss_mb": "MB",
}


class Run:
    """Spawns repetitions and keeps the tally of operations and failures."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.configs: dict[Path, dict] = {}
        self.log: list[dict] = []
        self._spawned = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fail(self, op: int, problems: list[str]) -> None:
        self.failed_ops.add(op)
        self.failures.extend(f"op {op}: {p}" for p in problems)

    def write_config(self, index: int) -> Path:
        config = self.workload.make_config(master_seed(self.workload.name, self.seed, index))
        path = self.tmp / f"config-{index}.json"
        path.write_text(json.dumps(config))
        self.configs[path] = config
        return path

    def _spawn(self, spec: dict) -> dict:
        self._spawned += 1
        spec_path = self.tmp / f"spec-{self._spawned}.json"
        spec_path.write_text(json.dumps(dict(spec, root=str(ROOT))))
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            return {"error": "run deadline reached before the repetition started"}
        # numpy's OpenBLAS otherwise starts a spinning thread per CPU at
        # import.  qscsim makes no BLAS calls, and those threads would add
        # load beyond the --threads under test and skew set-up time.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PERFBENCH_T0_NS=str(time.monotonic_ns()))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), str(spec_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"repetition still running at the {DEADLINE_S:.0f} s run deadline"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        try:
            return json.loads(lines[-1])
        except ValueError:
            return {"error": f"repetition printed no result: {lines[-1][:200]!r}"}

    def probe(self, config: Path) -> float | None:
        """Set-up time of one fresh interpreter, or None if set-up failed."""
        self.attempted += 1
        result = self._spawn({"config": str(config), "setup_only": True, "trace": False})
        if "error" in result:
            self.fail(self.attempted, [result["error"]])
            return None
        return result["setup_s"]

    def op(self, config: Path, threads: int, *, trace: bool = False, spans_out: Path | None = None) -> dict:
        """One checked ``cli.main`` call; ``result["ok"]`` says whether it passed."""
        self.attempted += 1
        op = self.attempted
        csv_path = self.tmp / f"out-{op}.csv"
        spec = {
            "config": str(config),
            "argv": self.workload.argv(str(config), str(csv_path), threads),
            "setup_only": False,
            "trace": trace,
            "spans_out": str(spans_out) if spans_out else None,
        }
        result = self._spawn(spec)
        result.update(op=op, threads=threads, config=config)
        problems = self._check(result, config, csv_path)
        if problems:
            self.fail(op, problems)
        result["ok"] = not problems
        self.log.append({k: result.get(k) for k in ("op", "threads", "wall_s", "setup_s", "peak_rss_mb", "ok")}
                        | {"trace": trace})
        return result

    def _check(self, result: dict, config: Path, csv_path: Path) -> list[str]:
        if "error" in result:
            return [result["error"]]
        if result["rc"] != 0:
            return [f"exit code {result['rc']}: {result['stderr'].strip()[-2000:]}"]
        try:
            out = strict_json(result["stdout"])
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        result["csv"] = csv_path.read_text() if csv_path.exists() else None
        try:
            return self.workload.check(self.configs[config], out, result["csv"])
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return [f"output lacks the expected structure: {exc!r}"]

    def same_output(self, reference: dict, other: dict, what: str) -> None:
        if reference["ok"] and other["ok"] and (
            reference["stdout"] != other["stdout"] or reference["csv"] != other["csv"]
        ):
            self.fail(other["op"], [f"output differs from op {reference['op']} ({what})"])
            other["ok"] = False


def _completed(rep: dict) -> bool:
    """The verb returned 0, so its timing counts even if a check failed."""
    return rep.get("rc") == 0


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _keep_going(run: Run, seconds: int, cycle_times: list[float]) -> bool:
    return run.elapsed() + statistics.mean(cycle_times) <= seconds


def timed_run(run: Run, seconds: int) -> dict[str, float | None]:
    first_config = run.write_config(0)
    run.probe(first_config)
    setups = [run.probe(first_config) for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    cycle_times: list[float] = []
    index = 0
    while True:
        cycle_start = time.monotonic()
        config = first_config if index == 0 else run.write_config(index)
        order = THREADS if index % 2 == 0 else THREADS[::-1]
        pair = [run.op(config, threads) for threads in order]
        run.same_output(pair[0], pair[1], f"--threads {order[0]} vs --threads {order[1]}")
        reps += pair
        index += 1
        cycle_times.append(time.monotonic() - cycle_start)
        if not _keep_going(run, seconds, cycle_times):
            break

    setups += [r["setup_s"] for r in reps if "setup_s" in r]
    by_threads = {t: [r for r in reps if r["threads"] == t and _completed(r)] for t in THREADS}

    def rate(r: dict) -> float:
        return run.workload.decisions(run.configs[r["config"]]) / r["wall_s"]

    return {
        "setup_s": _median([s for s in setups if s is not None]),
        "wall_s": _median([r["wall_s"] for r in by_threads[1]]),
        "decisions_per_s": _median([rate(r) for r in by_threads[1]]),
        "decisions_per_s_2t": _median([rate(r) for r in by_threads[2]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in by_threads[1]]),
    }


def traced_run(run: Run, seconds: int, spans_out: Path) -> tuple[dict[str, float | None], list[str]]:
    config = run.write_config(0)
    run.probe(config)
    plain: list[dict] = []
    traced: list[dict] = []
    cycle_times: list[float] = []
    while True:
        cycle_start = time.monotonic()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for trace in order:
            rep = run.op(config, 1, trace=trace, spans_out=None if traced else spans_out)
            reference = (plain + traced)[:1]
            if reference:
                run.same_output(reference[0], rep, "traced vs untraced" if trace else "repeat")
            (traced if trace else plain).append(rep)
        cycle_times.append(time.monotonic() - cycle_start)
        if not _keep_going(run, seconds, cycle_times):
            break

    good = [r for r in traced if _completed(r)]
    for rep in good[1:]:
        differing = [m for m in COUNT_METRICS if rep["layers"][m] != good[0]["layers"][m]]
        if differing:
            run.fail(rep["op"], [f"counts differ from op {good[0]['op']}: {', '.join(differing)}"])
    # Counts are identical across traced operations (checked above), so they
    # are reported as read rather than as a median that may turn them into
    # floats; times are medians.
    metrics = {
        name: good[0]["layers"][name] if name in COUNT_METRICS and good
        else _median([r["layers"][name] for r in good])
        for name in LAYER_METRICS
    }
    plain_wall = _median([r["wall_s"] for r in plain if _completed(r)])
    traced_wall = _median([r["wall_s"] for r in good])
    metrics["trace.overhead_frac"] = (
        traced_wall / plain_wall - 1.0 if plain_wall and traced_wall else None
    )
    absent = sorted({name for r in traced for name in r.get("absent", [])})
    return metrics, absent


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "qscsim"
    lines = [line for path in sorted(src.rglob("*.py")) for line in path.read_text().splitlines()]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "src_loc": len(lines),
        "src_loc_nonblank": sum(1 for line in lines if line.strip()),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qscsim" / "__init__.py").is_file():
        print(f"error: no qscsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if max(THREADS) > nproc:
        print(f"error: refusing --threads {max(THREADS)} on a machine with nproc {nproc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(args.workload, args.seed, Path(tmp))
        absent: list[str] = []
        if args.trace:
            metrics, absent = traced_run(run, args.seconds, OUT / f"{tag}-spans.csv.gz")
            units = dict(LAYER_METRICS, **{"trace.overhead_frac": "ratio"})
        else:
            metrics = timed_run(run, args.seconds)
            units = END_TO_END

    failed = len(run.failed_ops)
    reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items() if value is not None}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": run.elapsed(),
        "machine": machine_info(),
        "attempted": run.attempted,
        "failed": failed,
        "failed_ops_frac": failed / run.attempted,
        "failures": run.failures,
        "absent": absent,
        "metrics": reported,
        "reps": run.log,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  machine {json.dumps(detail['machine'])}")
    for name, entry in reported.items():
        print(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_ops_frac':<34} {detail['failed_ops_frac']:.6g} ({failed}/{run.attempted})")
    for name in absent:
        print(f"  absent: {name} (its layer metrics read 0)")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0 and len(reported) == len(units),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
