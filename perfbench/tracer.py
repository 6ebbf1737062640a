"""In-memory span tracer that wraps the package's public functions.

The tracer replaces each traced function in every ``qscsim`` module that
holds a reference to it, which is where call sites look it up, and puts the
originals back afterwards.  Nothing under ``src/`` changes.  A function that
no longer exists is reported as absent instead of failing the run.

Spans are ``(id, parent id, name, start ns, end ns)`` tuples kept in a list
and written out once the traced call returns.  The parent stack is a plain
list, so tracing is only valid for single-threaded runs (``--threads 1``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT_SPAN = 0
CLI_SPAN = "cli.main"


def _diffusion_steps(tracer: "Tracer", args: tuple, kwargs: dict, event: Any) -> None:
    params = kwargs["params"] if "params" in kwargs else args[1]
    steps = round(event.time / params.dt)
    block = getattr(sys.modules["qscsim.collapse"], "_NORMAL_BLOCK", 1024)
    tracer.walker_steps += steps
    tracer.normals_drawn += math.ceil(steps / block) * block


def _ensemble_steps(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    import numpy as np

    params = kwargs["params"] if "params" in kwargs else args[1]
    # Every lockstep iteration draws one normal per live walker.
    steps = int(np.rint(result[0] / params.dt).sum())
    tracer.walker_steps += steps
    tracer.normals_drawn += steps


#: (span name, module, attribute path, result hook).  Span names are
#: ``<layer>.<what>``; the layer is the package module the function lives in.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("config.parse", "qscsim.config", "parse_config", None),
    ("protocol.run_experiment", "qscsim.protocol", "run_experiment", None),
    ("protocol.trial_rng", "qscsim.protocol", "trial_rng", None),
    ("protocol.classify", "qscsim.protocol", "classify_batch", None),
    ("protocol.device", "qscsim.protocol", "device_trial", None),
    ("collapse.for_input", "qscsim.collapse", "collapse_for_input", None),
    ("collapse.diffusion", "qscsim.collapse", "simulate_diffusion_collapse", _diffusion_steps),
    ("collapse.ensemble", "qscsim.collapse", "simulate_diffusion_ensemble", _ensemble_steps),
    ("collapse.calibrate", "qscsim.collapse", "calibrate_gamma", None),
    ("observer.perceive", "qscsim.observer", "perceive_definite", None),
    ("observer.perceive", "qscsim.observer", "perceive_superposition", None),
    ("stats.aggregate", "qscsim.stats", "RateEstimate.from_counts", None),
    ("report.render", "qscsim.report", "render_csv", None),
    ("report.render", "qscsim.report", "summary_csv_row", None),
    ("report.render", "qscsim.report", "summary_to_json_dict", None),
    ("report.render", "qscsim.report", "render_human_summary", None),
]

#: Per-layer metric -> unit, in the order they are reported.
LAYER_METRICS = {
    "config.parse_s": "s",
    "config.parse_calls": "count",
    "protocol.trial_rng_s": "s",
    "protocol.trial_rng_calls": "count",
    "protocol.classify_s": "s",
    "protocol.classify_calls": "count",
    "protocol.device_s": "s",
    "protocol.run_experiment_self_s": "s",
    "protocol.run_experiment_calls": "count",
    "collapse.for_input_s": "s",
    "collapse.for_input_calls": "count",
    "collapse.walker_steps": "count",
    "collapse.walker_steps_per_s": "1/s",
    "collapse.normals_used_frac": "ratio",
    "collapse.ensemble_s": "s",
    "collapse.ensemble_calls": "count",
    "collapse.calibrate_evals": "count",
    "observer.perceive_s": "s",
    "observer.perceive_calls": "count",
    "stats.aggregate_s": "s",
    "report.render_s": "s",
    "cli.self_s": "s",
}

#: Metrics that are exact counts; they must repeat exactly for one input.
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit == "count"] + [
    "collapse.normals_used_frac"
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.absent: list[str] = []
        self.walker_steps = 0
        self.normals_drawn = 0
        self._stack = [ROOT_SPAN]
        self._ids = itertools.count(ROOT_SPAN + 1)
        self._restore: list[tuple[Any, str, Any]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        idx = self._name_index(name)
        spans_append = self.spans.append
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans_append((sid, parent, idx, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, path, hook in TARGETS:
            self._name_index(name)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if isinstance(owner, type) and isinstance(owner.__dict__.get(attr), classmethod):
                original = owner.__dict__[attr]
                setattr(owner, attr, classmethod(self.wrap(original.__func__, name, hook)))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(owner, attr, None)
            if owner is not module or not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            traced = self.wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qscsim" and not mod_name.startswith("qscsim."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span."""
        total: dict[int, int] = {}
        calls: dict[int, int] = {}
        children: dict[int, int] = {}
        for sid, parent, idx, start, end in self.spans:
            dur = end - start
            total[idx] = total.get(idx, 0) + dur
            calls[idx] = calls.get(idx, 0) + 1
            children[parent] = children.get(parent, 0) + dur

        def idx_of(name: str) -> int:
            return self.names.index(name) if name in self.names else -1

        def seconds(name: str) -> float:
            return total.get(idx_of(name), 0) / 1e9

        def count(name: str) -> int:
            return calls.get(idx_of(name), 0)

        def self_seconds(name: str) -> float:
            idx = idx_of(name)
            own = sum(end - start - children.get(sid, 0)
                      for sid, _, i, start, end in self.spans if i == idx)
            return own / 1e9

        calibrate_ids = {sid for sid, _, i, _, _ in self.spans if i == idx_of("collapse.calibrate")}
        ensemble_idx = idx_of("collapse.ensemble")
        calibrate_evals = sum(1 for _, parent, i, _, _ in self.spans
                              if i == ensemble_idx and parent in calibrate_ids)
        walk_s = seconds("collapse.diffusion") + seconds("collapse.ensemble")
        return {
            "config.parse_s": seconds("config.parse"),
            "config.parse_calls": count("config.parse"),
            "protocol.trial_rng_s": seconds("protocol.trial_rng"),
            "protocol.trial_rng_calls": count("protocol.trial_rng"),
            "protocol.classify_s": seconds("protocol.classify"),
            "protocol.classify_calls": count("protocol.classify"),
            "protocol.device_s": seconds("protocol.device"),
            "protocol.run_experiment_self_s": self_seconds("protocol.run_experiment"),
            "protocol.run_experiment_calls": count("protocol.run_experiment"),
            "collapse.for_input_s": seconds("collapse.for_input"),
            "collapse.for_input_calls": count("collapse.for_input"),
            "collapse.walker_steps": self.walker_steps,
            "collapse.walker_steps_per_s": self.walker_steps / walk_s if walk_s else 0.0,
            "collapse.normals_used_frac": (
                self.walker_steps / self.normals_drawn if self.normals_drawn else 0.0
            ),
            "collapse.ensemble_s": seconds("collapse.ensemble"),
            "collapse.ensemble_calls": count("collapse.ensemble"),
            "collapse.calibrate_evals": calibrate_evals,
            "observer.perceive_s": seconds("observer.perceive"),
            "observer.perceive_calls": count("observer.perceive"),
            "stats.aggregate_s": seconds("stats.aggregate"),
            "report.render_s": seconds("report.render"),
            "cli.self_s": self_seconds(CLI_SPAN),
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as gzip'd CSV, times relative to the first start."""
        origin = min((start for _, _, _, start, _ in self.spans), default=0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, idx, start, end in self.spans:
                out.write(f"{sid},{parent},{self.names[idx]},{start - origin},{end - origin}\n")
