"""Result rendering: the canonical CSV row layout and the JSON echo.

The CSV column set and order are fixed; every row echoes the master seed so
result files stay auditable on their own.  Floats are written with ``repr``
(shortest round-trip form), which keeps reruns byte-identical.  JSON output
is :func:`to_json_dict` of a dataclass, the resolved config or a summary:
each field name is its JSON key.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from collections.abc import Callable, Iterable
from dataclasses import is_dataclass
from enum import Enum
from typing import Any, TextIO

from .protocol import ExperimentSummary, field_types
from .stats import RateEstimate

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "n_trials",
    "acc_definite",
    "acc_definite_lo",
    "acc_definite_hi",
    "acc_superposition",
    "acc_superposition_lo",
    "acc_superposition_hi",
    "acc_overall",
    "acc_overall_lo",
    "acc_overall_hi",
    "device_success",
    "device_bound",
    "mean_report_time_definite",
    "mean_report_time_superposition",
    "master_seed",
]


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_csv_row(summary: ExperimentSummary, sweep_param: str = "", sweep_value: Any = None) -> list[str]:
    device = summary.device_success
    return [
        sweep_param,
        _cell(sweep_value),
        _cell(summary.n_trials),
        _cell(summary.accuracy_definite.estimate),
        _cell(summary.accuracy_definite.lo),
        _cell(summary.accuracy_definite.hi),
        _cell(summary.accuracy_superposition.estimate),
        _cell(summary.accuracy_superposition.lo),
        _cell(summary.accuracy_superposition.hi),
        _cell(summary.accuracy_overall.estimate),
        _cell(summary.accuracy_overall.lo),
        _cell(summary.accuracy_overall.hi),
        _cell(device.estimate if device is not None else None),
        _cell(summary.device_bound),
        _cell(summary.mean_report_time_definite),
        _cell(summary.mean_report_time_superposition),
        _cell(summary.master_seed),
    ]


def write_csv(out: TextIO, rows: Iterable[list[str]]) -> None:
    """Write the header and then each row to ``out`` as it comes."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)


def render_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    write_csv(buf, rows)
    return buf.getvalue()


def to_json_dict(obj: Any) -> dict[str, Any]:
    """The dataclass ``obj`` as a JSON-serializable dict, fields in declaration
    order: an enum as its value, a tuple as a list, a dataclass as a dict."""
    out = {}
    for name, echo in _echo_plan(type(obj)):
        value = getattr(obj, name)
        out[name] = value if echo is None or value is None else echo(value)
    return out


@functools.cache
def _echo_plan(cls: type) -> tuple[tuple[str, Callable[[Any], Any] | None], ...]:
    """Each field of ``cls`` with how :func:`to_json_dict` turns it into JSON."""
    def echo(kind: type | None) -> Callable[[Any], Any] | None:
        if kind is None:  # a generic: tuple[Any, ...]
            return list
        if issubclass(kind, Enum):
            return operator.attrgetter("value")
        return to_json_dict if is_dataclass(kind) else None

    return tuple((f.name, echo(kind)) for f, kind in field_types(cls))


def _fmt_rate(label: str, rate: RateEstimate) -> str:
    if rate.estimate is None:
        return f"{label:<28}n/a (no trials)"
    return (
        f"{label:<28}{rate.estimate:.6f}  "
        f"[{rate.lo:.6f}, {rate.hi:.6f}]  ({rate.successes}/{rate.trials})"
    )


def render_human_summary(summary: ExperimentSummary) -> str:
    lines = [
        f"{'n_trials':<28}{summary.n_trials}",
        _fmt_rate("accuracy (definite)", summary.accuracy_definite),
        _fmt_rate("accuracy (superposition)", summary.accuracy_superposition),
        _fmt_rate("accuracy (overall)", summary.accuracy_overall),
    ]
    if summary.mean_report_time_definite is not None:
        lines.append(f"{'mean report time (def)':<28}{summary.mean_report_time_definite:.6g} s")
    if summary.mean_report_time_superposition is not None:
        lines.append(f"{'mean report time (sup)':<28}{summary.mean_report_time_superposition:.6g} s")
    if summary.device_success is not None:
        lines.append(_fmt_rate("device success", summary.device_success))
        lines.append(f"{'optimal device bound':<28}{summary.device_bound:.6f}")
    lines.append(f"{'master_seed':<28}{summary.master_seed}")
    return "\n".join(lines)
