"""Discrimination trials, decision rules, and the physical-device baseline.

One decision prepares an input (definite branch-1 state or a superposition)
``batch_n`` times, lets each copy collapse, produces a perception report per
copy, and classifies the batch.  Two one-sided signals are available: the
first-percept time exceeding a threshold (a superposition keeps the observer
waiting), and a detected percept change (only a collapse can flip a
percept).  Both can only fire for superpositions (absent jitter a definite
input never triggers either), so the batch rule over identically prepared
states is "any positive fires".

:func:`run_experiment` runs decisions in fixed-size blocks with array
operations; :func:`run_experiments` runs many configs, and evaluates every
group of them that shares a random-stream layout on one set of draws.

The device baseline performs a projective measurement in the branch basis
with no timing channel; its single-copy success is capped by the optimal
two-state bound, which the conscious-observer channel beats whenever the
collapse-vs-perception gap is identifiable.
"""

from __future__ import annotations

import builtins
import functools
import math
import operator
import sys
from collections.abc import Iterator, Sequence
from dataclasses import Field, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .collapse import draw_collapses
from .errors import FieldError, check_field, check_integer
from .observer import add_jitter, first_reports, percept_changes, report_jitter
from .stats import RateEstimate

if TYPE_CHECKING:
    from .config import ExperimentConfig

#: Decisions per block.  It is fixed, so every draw, and with it every
#: output, depends only on the master seed and the block index.
BLOCK_SIZE = 4096
#: Most copies, one float each, that an array may hold (32 MiB): ``calibrate
#: --runs`` walkers, or a block of one point at ``rule.batch_n`` :data:`MAX_BATCH_N`.
MAX_COPIES = 2**22
MAX_BATCH_N = MAX_COPIES // BLOCK_SIZE
#: Names the random-stream layout of :func:`run_experiment`; it changes
#: whenever the layout does.
RNG_STREAM = "block-v2"
#: A block evaluates its points in chunks of at most this many copies
#: (points x decisions x ``batch_n``), one point at the least.
_CHUNK_COPIES = 16 * BLOCK_SIZE
#: Branch-2 weight below which a prepared input is definite and never collapses.
DEFINITE_WEIGHT_TOL = 1e-12
#: The refusal of a config with a ``sweep`` section anywhere but in the ``sweep`` verb.
SWEEP_ONLY = "a config with a sweep runs only as a sweep: use the sweep verb, or expand_sweep for its points"


class RuleKind(Enum):
    TIMING_THRESHOLD = "timing_threshold"
    CHANGE_DETECTION = "change_detection"
    COMBINED = "combined"


@dataclass(frozen=True)
class DecisionRule:
    """How perception reports are turned into a guess.

    ``threshold_time`` is required for the timing and combined rules and
    refused for change detection, which does not read it;
    ``batch_n`` is the number of identically prepared states consumed per
    decision, at most :data:`MAX_BATCH_N`.  Both signals are one-sided, so
    a batch is guessed superposition when any copy fires and definite
    otherwise.
    """

    kind: RuleKind = field(metadata={"json": RuleKind.TIMING_THRESHOLD, "draws": True})
    threshold_time: float | None = field(default=None, metadata={"sweep": True})
    batch_n: int = field(default=1, metadata={"json": 5, "sweep": True, "draws": True})

    def __post_init__(self) -> None:
        if self.threshold_time is not None:
            check_field("threshold_time", self.threshold_time, self.threshold_time > 0.0, "> 0")
            if self.kind is RuleKind.CHANGE_DETECTION:
                raise FieldError("threshold_time", "only meaningful for timing_threshold and combined")
        elif self.kind is not RuleKind.CHANGE_DETECTION:
            raise FieldError("threshold_time", f"required for {self.kind.value}")
        check_integer("batch_n", self.batch_n)
        check_field("batch_n", self.batch_n, 1 <= self.batch_n <= MAX_BATCH_N, f"in [1, {MAX_BATCH_N}]")


@dataclass(frozen=True)
class ExperimentSummary:
    """Accuracy statistics for one experiment (all proportions with 95%
    Wilson intervals).  Device fields are None unless the baseline ran."""

    n_trials: int
    accuracy_definite: RateEstimate
    accuracy_superposition: RateEstimate
    accuracy_overall: RateEstimate
    mean_report_time_definite: float | None
    mean_report_time_superposition: float | None
    device_success: RateEstimate | None
    device_bound: float | None
    master_seed: int

    def __post_init__(self) -> None:
        if self.accuracy_definite.trials + self.accuracy_superposition.trials != self.n_trials:
            raise ValueError("per-class trial counts must add up to n_trials")
        if self.accuracy_overall.trials != self.n_trials:
            raise ValueError("overall count must equal n_trials")


def optimal_device_bound(fidelity: float) -> float:
    """Maximum equal-prior single-copy success probability of any physical
    measurement strategy against a state pair with the given fidelity.

    For the definite branch-1 state against a superposition with branch-1
    weight ``p1`` the fidelity is ``p1``."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity!r}")
    return 0.5 * (1.0 + math.sqrt(1.0 - fidelity))


@functools.cache
def field_types(cls: type) -> tuple[tuple[Field, type | None], ...]:
    """Each field of the dataclass ``cls`` with the type its (PEP 563 string)
    annotation names in the module of ``cls``; ``X | None`` gives ``X``, a generic None."""
    scope = {**vars(builtins), **vars(sys.modules[cls.__module__])}
    return tuple((f, scope.get(f.type.removesuffix(" | None"))) for f in fields(cls))


def leaf_fields(cls: type, prefix: str = "") -> Iterator[tuple[str, Field, type | None]]:
    """``(dotted path, field, type)`` of each field of ``cls``, descending into dataclass fields."""
    for f, kind in field_types(cls):
        if is_dataclass(kind):
            yield from leaf_fields(kind, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f, kind


@functools.cache
def _draw_paths(cls: type) -> tuple[str, ...]:
    """Dotted paths of the fields of ``cls`` declared ``draws``."""
    return tuple(path for path, f, _ in leaf_fields(cls) if f.metadata.get("draws"))


def _stream_layout(config: "ExperimentConfig") -> tuple:
    """The values of every field that can change a draw or a draw count.
    Configs that agree on these draw the same variates in every block."""
    return operator.attrgetter(*_draw_paths(type(config)))(config)


def _count_fired(fired: np.ndarray) -> np.ndarray:
    """Per point, the decisions in which any copy fired, ``fired.any(axis=2).sum(axis=1)``,
    taken one copy column at a time: numpy reduces a short last axis slowly."""
    any_fired = fired[:, :, 0].copy()
    for column in range(1, fired.shape[2]):
        any_fired |= fired[:, :, column]
    return any_fired.sum(axis=1)


def _run_block(
    configs: Sequence["ExperimentConfig"], rng: np.random.Generator, m: int, p1: float, collapses: bool
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``m`` decisions of every config in ``configs``, which share one
    stream layout: draw every variate once, in the :data:`RNG_STREAM` order,
    then evaluate the points in chunks of at most :data:`_CHUNK_COPIES`.

    A chunk holds one class's copies at a time, shaped ``(points, decisions
    of the class, batch_n)``.  Returns ``(n_definite, device_correct)`` and,
    per config, the correct definite and superposed decisions and the two
    report-time sums, each over its point's contiguous slice, as for that
    config alone, so numpy's pairwise summation rounds it alike.
    """
    lead = configs[0]
    rule, scenario, batch_n = lead.rule, lead.scenario, lead.rule.batch_n
    n_def = int(np.count_nonzero(rng.random(m) < lead.priors))
    n_sup = m - n_def
    collapse_times, changed = None, np.zeros((n_sup, batch_n), dtype=bool)
    if collapses and n_sup:
        hit_upper, collapse_times = draw_collapses(p1, lead.collapse.model, lead.collapse.epsilon, rng, n_sup * batch_n)
        changed = percept_changes(scenario, hit_upper.reshape(n_sup, batch_n), rng)
    jitter_def = report_jitter(lead.observer, rng, (n_def, batch_n))
    jitter_sup = report_jitter(lead.observer, rng, (n_sup, batch_n))
    # A definite input always reads B1; a superposition reads B2, which
    # certifies it, with probability 1 - p1.
    device_correct = n_def + int(rng.binomial(n_sup, 1.0 - p1)) if lead.device_baseline else 0

    # A batch in which no copy fires is guessed definite.  Change detection
    # reads no time, so every point fires alike.
    timed = rule.kind is not RuleKind.CHANGE_DETECTION
    correct_def = np.full(len(configs), n_def)
    correct_sup = np.full(len(configs), 0 if timed else _count_fired(changed[None]))
    sums_def, sums_sup = np.empty((2, len(configs)))
    per_chunk = max(1, _CHUNK_COPIES // (m * batch_n))
    for start in range(0, len(configs), per_chunk):
        chunk = slice(start, start + per_chunk)
        part = configs[chunk]
        points = len(part)
        t_p = np.array([config.observer.t_p for config in part])[:, None, None]
        threshold = np.array([config.rule.threshold_time for config in part])[:, None, None] if timed else None
        definite = add_jitter(np.full((points, n_def, batch_n), t_p), jitter_def)
        if timed:
            correct_def[chunk] -= _count_fired(definite > threshold)
        sums_def[chunk] = definite.reshape(points, -1).sum(axis=1)
        del definite  # one class's copies at a time
        times = None if collapse_times is None else functools.partial(collapse_times, [c.collapse for c in part])
        sup = add_jitter(first_reports(t_p, scenario, times, (points, n_sup, batch_n)), jitter_sup)
        if timed:
            fired = sup > threshold
            if rule.kind is RuleKind.COMBINED:
                fired |= changed
            correct_sup[chunk] = _count_fired(fired)
        sums_sup[chunk] = sup.reshape(points, -1).sum(axis=1)
    return n_def, device_correct, correct_def, correct_sup, sums_def, sums_sup


def _run_group(configs: Sequence["ExperimentConfig"]) -> list[ExperimentSummary]:
    """Summaries of configs that share one stream layout, from one pass over
    the blocks, each folded into running totals as it completes."""
    lead = configs[0]
    n = lead.n_trials
    batch_n = lead.rule.batch_n
    p1 = lead.input_p1
    # A weight within rounding of 1 prepares a definite state: it never collapses.
    collapses = 1.0 - p1 >= DEFINITE_WEIGHT_TOL

    n_definite = device_correct = 0
    correct_def, correct_sup = np.zeros((2, len(configs)), dtype=np.int64)
    # Per class and point, the exact report-time total in units of 2**-1074,
    # of which every finite float is an integer multiple.
    time_def, time_sup = [0] * len(configs), [0] * len(configs)
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(lead.master_seed, spawn_key=(block,)))
        n_def, block_device, block_def, block_sup, sums_def, sums_sup = _run_block(
            configs, rng, min(BLOCK_SIZE, n - start), p1, collapses
        )
        n_definite += n_def
        device_correct += block_device
        correct_def += block_def
        correct_sup += block_sup
        for totals, sums in ((time_def, sums_def), (time_sup, sums_sup)):
            for point, value in enumerate(sums.tolist()):
                numerator, denominator = value.as_integer_ratio()
                totals[point] += numerator << (1075 - denominator.bit_length())
    n_superposition = n - n_definite
    correct_def, correct_sup = correct_def.tolist(), correct_sup.tolist()

    def mean_times(totals: list[int], count: int) -> list[float | None]:
        # Int true division rounds correctly: the first division rounds the exact total once.
        return [total / 2**1074 / (count * batch_n) if count else None for total in totals]

    device_success = RateEstimate.from_counts(device_correct, n) if lead.device_baseline else None
    device_bound = optimal_device_bound(p1) if lead.device_baseline else None

    return [
        ExperimentSummary(
            n_trials=n,
            accuracy_definite=RateEstimate.from_counts(correct_def[point], n_definite),
            accuracy_superposition=RateEstimate.from_counts(correct_sup[point], n_superposition),
            accuracy_overall=RateEstimate.from_counts(correct_def[point] + correct_sup[point], n),
            mean_report_time_definite=mean_def,
            mean_report_time_superposition=mean_sup,
            device_success=device_success,
            device_bound=device_bound,
            master_seed=lead.master_seed,
        )
        for point, (mean_def, mean_sup) in enumerate(
            zip(mean_times(time_def, n_definite), mean_times(time_sup, n_superposition))
        )
    ]


def run_experiments(configs: Sequence["ExperimentConfig"]) -> list[ExperimentSummary]:
    """Run every config, in order; configs that share a stream layout share draws.

    Each config's summary equals :func:`run_experiment`'s.  Configs that
    differ only in fields not declared ``draws``, such as ``t_c_mean`` or
    ``t_p``, run as one group: each block draws its variates once, in the
    order :func:`run_experiment` lists, then evaluates the group's points in
    chunks of at most ``_CHUNK_COPIES`` copies (points x decisions x
    ``batch_n``), so memory is bounded at any point count and ``batch_n``.
    A config with a ``sweep`` section is a :class:`~qscsim.errors.FieldError` at ``sweep``.
    """
    if any(config.sweep is not None for config in configs):
        raise FieldError("sweep", SWEEP_ONLY)
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(_stream_layout(config), []).append(index)
    summaries: dict[int, ExperimentSummary] = {}
    for members in groups.values():
        summaries.update(zip(members, _run_group([configs[index] for index in members])))
    return [summaries[index] for index in range(len(configs))]


def run_experiment(config: "ExperimentConfig") -> ExperimentSummary:
    """Run ``config.n_trials`` independent decisions and aggregate accuracies.

    Each decision draws an input kind from the priors, consumes
    ``rule.batch_n`` identically prepared states, and classifies the batch.
    Decisions run in blocks of :data:`BLOCK_SIZE`; block ``b`` draws from
    ``SeedSequence(master_seed, spawn_key=(b,))``, one array per variate
    kind, in this order (layout :data:`RNG_STREAM`):

    1. one prior uniform per decision (definite when below ``priors``);
       only the count of definite decisions is read;
    2. the collapses of the superposed copies, ``n_superposed * batch_n``
       of them, from :func:`~qscsim.collapse.draw_collapses`;
    3. one pre-percept uniform per superposed copy (``random_percept`` only);
    4. one report jitter per definite copy, then one per superposed copy,
       each decision-major (only when ``jitter_sigma > 0``), drawn as
       ``jitter_sigma * z`` from ``standard_normal``, the same values as
       ``normal(0.0, jitter_sigma)``;
    5. one binomial count of the superposed decisions whose device reading
       is B2 (device baseline only).

    Each block reduces to integer counts and report-time sums, folded into
    running totals in block order (the sums as exact integers, so each mean
    divides the correctly rounded total by its copy count), so memory stays
    at one block.
    """
    return run_experiments([config])[0]
