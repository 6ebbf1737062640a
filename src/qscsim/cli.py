"""Command-line front end: run, sweep, calibrate, selftest.

All state lives in the config file and flags; a fixed master seed makes every
command byte-reproducible.  ``--threads`` is accepted and ignored: every verb
runs in one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from collections.abc import Iterator
from typing import TextIO

import numpy as np

from .collapse import CollapseModel, between_bands, sample_collapses
from .config import expand_sweep, parse_config, read_raw_config
from .errors import FieldError, QscError
from .protocol import MAX_COPIES, RNG_STREAM, run_experiment, run_experiments
from .report import render_human_summary, summary_csv_row, to_json_dict, write_csv
from .stats import Z95


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscsim",
        description="Collapse-timing discrimination experiments: run, sweep, calibrate, selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config master_seed")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility and ignored; must be >= 1")
        p.add_argument("--json", action="store_true", help="emit a JSON summary on stdout")

    for verb, help_text in (("run", "run one experiment"), ("sweep", "run the sweep defined in the config")):
        p = sub.add_parser(verb, help=help_text)
        common(p)
        p.add_argument("--out", default=None, help="write results as CSV to this path")
        p.add_argument("--device-baseline", action="store_true", help="also run the projective-device baseline")

    p_cal = sub.add_parser("calibrate", help="calibrate the diffusion strength to the target mean collapse time")
    common(p_cal)
    p_cal.add_argument("--tolerance", type=float, default=0.02, help="relative tolerance on the mean first-passage time")
    p_cal.add_argument("--runs", type=int, default=8192, help="walkers in the verification ensemble, 2 to 2**22")

    sub.add_parser("selftest", help="run the acceptance criteria")
    return parser


def _load_raw(args: argparse.Namespace) -> dict:
    raw = read_raw_config(args.config)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if getattr(args, "device_baseline", False):
        raw["device_baseline"] = True
    return raw


def _dumps(obj: object) -> str:
    """One compact line of strict JSON: a NaN or infinity raises instead of printing invalid JSON."""
    return json.dumps(obj, allow_nan=False)


@contextlib.contextmanager
def _out_file(path: str) -> Iterator[TextIO]:
    """``path`` open for writing; an OSError on it is one error naming the path."""
    try:
        with open(path, "w") as out:
            yield out
    except OSError as exc:
        raise QscError(f"cannot write {path}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    raw = _load_raw(args)
    config = parse_config(raw)
    summary = run_experiment(config)
    if args.out:
        with _out_file(args.out) as out:
            write_csv(out, [summary_csv_row(summary)])
    if args.json:
        print(_dumps({
            "rng_stream": RNG_STREAM,
            "resolved_config": to_json_dict(config),
            "summary": to_json_dict(summary),
        }))
    else:
        print(render_human_summary(summary))
        if args.out:
            print(f"csv written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run every point, then write the output one point at a time, in value order."""
    raw = _load_raw(args)
    points = expand_sweep(raw)
    param = raw["sweep"]["param"]  # validated by expand_sweep
    summaries = run_experiments([config for _, config in points])
    rows = (summary_csv_row(summary, sweep_param=param, sweep_value=value)
            for (value, _), summary in zip(points, summaries))
    if args.out:
        with _out_file(args.out) as out:
            write_csv(out, rows)
    elif not args.json:
        write_csv(sys.stdout, rows)
    if args.json:
        # The document with no points, split where the points go, so every byte comes from _dumps.
        head, tail = _dumps({"rng_stream": RNG_STREAM, "sweep_param": param, "points": []}).rsplit("[]", 1)
        sys.stdout.write(head + "[")
        for index, ((value, config), summary) in enumerate(zip(points, summaries)):
            sys.stdout.write((", " if index else "") + _dumps({
                "sweep_value": value,
                "resolved_config": to_json_dict(config),
                "summary": to_json_dict(summary),
            }))
        sys.stdout.write("]" + tail + "\n")
    elif args.out:
        print(f"csv written to {args.out} ({len(points)} rows)")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = parse_config(_load_raw(args))
    collapse = config.collapse
    if collapse.model is not CollapseModel.DIFFUSION:
        raise FieldError(
            "collapse.model", f"calibrate applies to the diffusion model; config selects {collapse.model.value}"
        )
    if not between_bands(config.input_p1, collapse.epsilon):
        raise FieldError(
            "input_p1", f"calibrate needs input_p1 inside (epsilon, 1 - epsilon), got {config.input_p1!r}"
        )
    target, gamma, tolerance, n_runs = collapse.t_c_mean, collapse.gamma, args.tolerance, args.runs
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise QscError(f"--tolerance must be finite and > 0, got {tolerance!r}")
    if not 2 <= n_runs <= MAX_COPIES:
        raise QscError(f"--runs must be in [2, 2**22], got {n_runs!r}")
    # parse_config resolved gamma to the closed form; one exact ensemble checks it.
    times, _ = sample_collapses(config.input_p1, collapse, np.random.default_rng(config.master_seed), n_runs)
    # Moments in units of the target: squared deviations of tiny times would underflow to 0.
    scaled = times / target
    mean, sd = float(scaled.mean()), float(scaled.std(ddof=1))
    # Budget rule: the ensemble's Monte Carlo error must resolve the tolerance.
    cv = sd / mean
    noise_floor = 3.0 * cv / math.sqrt(n_runs)
    if noise_floor > tolerance:
        ratio = 3.0 * cv / tolerance
        # Past MAX_COPIES no --runs reaches it; near tolerance 0 the count would overflow a float.
        fits = ratio <= math.sqrt(MAX_COPIES)
        need = f"need --runs >= {math.ceil(ratio**2)}" if fits else "no --runs resolves it; raise --tolerance"
        raise QscError(
            f"run budget too small for tolerance {tolerance!r}: 3*cv/sqrt(n_runs) = {noise_floor:.4f}; {need}"
        )
    mean, half = target * mean, target * Z95 * sd / math.sqrt(n_runs)
    lo, hi = mean - half, mean + half
    if hi < target * (1.0 - tolerance) or lo > target * (1.0 + tolerance):
        raise QscError(
            f"95% CI {(lo, hi)} of the mean first-passage time misses {target!r} "
            f"by more than tolerance {tolerance!r} at gamma {gamma!r}"
        )
    if args.json:
        print(_dumps({
            "gamma": gamma,
            "t_c_target": target,
            "achieved_mean": mean,
            "achieved_mean_ci95": [lo, hi],
            "n_runs": n_runs,
            "tolerance": tolerance,
            "master_seed": config.master_seed,
        }))
    else:
        print(f"calibrated gamma            {gamma!r}")
        print(f"target mean collapse time   {target!r} s")
        print(f"achieved mean (n={n_runs})   {mean:.6g} s  [95% CI {lo:.6g}, {hi:.6g}]")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # imported here so other verbs skip loading it

    return 0 if run_selftest() else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 1
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "calibrate": _cmd_calibrate,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (QscError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
