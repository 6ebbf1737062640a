"""Command-line front end: run, sweep, calibrate, selftest.

All state lives in the config file and flags; a fixed master seed makes every
command byte-reproducible.  ``--threads`` is accepted and ignored: every verb
runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .collapse import CollapseModel, calibrate_gamma
from .config import (
    config_to_json_dict,
    expand_sweep,
    parse_config,
    read_raw_config,
    set_config_field,
)
from .errors import ConfigValidationError, ModelMisuseError, QscError
from .protocol import RNG_STREAM, run_experiment, run_experiments
from .report import render_csv, render_human_summary, summary_csv_row, summary_to_json_dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscsim",
        description="Collapse-timing discrimination experiments: run, sweep, calibrate, selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config master_seed")
        p.add_argument("--out", default=None, help="write results as CSV to this path")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility and ignored; must be >= 1")
        p.add_argument("--json", action="store_true", help="emit a JSON summary on stdout")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)
    p_run.add_argument("--device-baseline", action="store_true", help="also run the projective-device baseline")

    p_sweep = sub.add_parser("sweep", help="run the sweep defined in the config")
    common(p_sweep)
    p_sweep.add_argument("--device-baseline", action="store_true", help="also run the projective-device baseline")

    p_cal = sub.add_parser("calibrate", help="calibrate the diffusion strength to the target mean collapse time")
    common(p_cal, config_required=True)
    p_cal.add_argument("--tolerance", type=float, default=0.02, help="relative tolerance on the mean first-passage time")
    p_cal.add_argument("--runs", type=int, default=8192, help="walkers in the verification ensemble")
    p_cal.add_argument("--save-config", default=None, help="write the config with the calibrated gamma to this path")

    p_self = sub.add_parser("selftest", help="run the reduced-size invariant suite")
    p_self.add_argument("--seed", type=int, default=None, help="override the selftest master seed")
    return parser


def _load_raw(args: argparse.Namespace) -> dict:
    raw = read_raw_config(args.config)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if getattr(args, "device_baseline", False):
        raw["device_baseline"] = True
    return raw


def _dumps(obj: object, indent: int | None = None) -> str:
    """Strict JSON: a NaN or infinity raises instead of printing invalid JSON.

    Without ``indent`` the output is one compact line from the C encoder;
    any ``indent`` falls back to the much slower pure-Python encoder.
    """
    return json.dumps(obj, indent=indent, allow_nan=False)


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _cmd_run(args: argparse.Namespace) -> int:
    raw = _load_raw(args)
    config = parse_config(raw)
    summary = run_experiment(config)
    if args.out:
        _write_text(args.out, render_csv([summary_csv_row(summary)]))
    if args.json:
        print(_dumps({
            "rng_stream": RNG_STREAM,
            "resolved_config": config_to_json_dict(config),
            "summary": summary_to_json_dict(summary),
        }))
    else:
        print(render_human_summary(summary))
        if args.out:
            print(f"csv written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    raw = _load_raw(args)
    points = expand_sweep(raw)
    param = raw["sweep"]["param"]  # validated by expand_sweep
    rows = []
    json_points = []
    summaries = run_experiments([config for _, config in points])
    for (value, config), summary in zip(points, summaries):
        rows.append(summary_csv_row(summary, sweep_param=param, sweep_value=value))
        if args.json:
            json_points.append({
                "sweep_value": value,
                "resolved_config": config_to_json_dict(config),
                "summary": summary_to_json_dict(summary),
            })
    text = render_csv(rows)
    if args.out:
        _write_text(args.out, text)
    if args.json:
        print(_dumps({"rng_stream": RNG_STREAM, "sweep_param": param, "points": json_points}))
    elif args.out:
        print(f"csv written to {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    raw = _load_raw(args)
    # calibrate fits gamma itself, so a configured one is ignored, not checked.
    raw_for_parse = raw
    if isinstance(raw.get("collapse"), dict) and "gamma" in raw["collapse"]:
        raw_for_parse = set_config_field(raw, "collapse.gamma", None)
    try:
        config = parse_config(raw_for_parse)
    except ConfigValidationError as exc:
        # Without a gamma, only a diffusion input_p1 outside the band fails here.
        if exc.field_path != "collapse.gamma":
            raise
        raise ConfigValidationError(
            "input_p1", f"calibrate needs input_p1 inside (epsilon, 1 - epsilon), got {raw.get('input_p1')!r}"
        ) from None
    if config.collapse.model is not CollapseModel.DIFFUSION:
        raise ModelMisuseError(
            f"calibrate applies to the diffusion model; config selects {config.collapse.model.value}"
        )
    target = config.collapse.t_c_mean
    cal = calibrate_gamma(
        target,
        config.input_p1,
        config.collapse.epsilon,
        args.tolerance,
        np.random.default_rng(config.master_seed),
        n_runs=args.runs,
    )
    lo, hi = cal.ci95()
    if args.json:
        print(_dumps({
            "gamma": cal.gamma,
            "t_c_target": target,
            "achieved_mean": cal.achieved_mean,
            "achieved_mean_ci95": [lo, hi],
            "n_runs": cal.n_runs,
            "tolerance": args.tolerance,
            "master_seed": config.master_seed,
        }))
    else:
        print(f"calibrated gamma            {cal.gamma!r}")
        print(f"target mean collapse time   {target!r} s")
        print(f"achieved mean (n={cal.n_runs})   {cal.achieved_mean:.6g} s  [95% CI {lo:.6g}, {hi:.6g}]")
    if args.save_config:
        updated = set_config_field(raw, "collapse.gamma", cal.gamma)
        _write_text(args.save_config, _dumps(updated, indent=2) + "\n")
        if not args.json:
            print(f"config with calibrated gamma written to {args.save_config}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # imported here so other verbs skip loading it

    kwargs = {} if args.seed is None else {"seed": args.seed}
    return 0 if run_selftest(**kwargs) else 1


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
    except QscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
