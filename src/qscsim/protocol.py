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
operations; the scalar helpers (:func:`classify_single`,
:func:`classify_batch`, :func:`device_trial`) state the same rules one
report at a time.

The device baseline performs a projective measurement in the branch basis
with no timing channel; its single-copy success is capped by the optimal
two-state bound, which the conscious-observer channel beats whenever the
collapse-vs-perception gap is identifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .collapse import sample_collapses
from .observer import PerceptionReport, perceive_collapses, report_times
from .states import Branch, InputKind, born_probability, make_input_state, state_fidelity
from .stats import RateEstimate

if TYPE_CHECKING:
    from .config import ExperimentConfig

#: Decisions per block.  It is fixed, so every draw, and with it every
#: output, depends only on the master seed and the block index.
BLOCK_SIZE = 4096
#: Names the random-stream layout of :func:`run_experiment`; it changes
#: whenever the layout does.
RNG_STREAM = "block-v1"


class RuleKind(Enum):
    TIMING_THRESHOLD = "timing_threshold"
    CHANGE_DETECTION = "change_detection"
    COMBINED = "combined"


@dataclass(frozen=True)
class DecisionRule:
    """How perception reports are turned into a guess.

    ``threshold_time`` is required for the timing and combined rules;
    ``batch_n`` is the number of identically prepared states consumed per
    decision; ``no_change_guess`` is returned when no signal fires.
    """

    kind: RuleKind
    threshold_time: float | None = None
    batch_n: int = 1
    no_change_guess: InputKind = InputKind.DEFINITE

    def __post_init__(self) -> None:
        if self.batch_n < 1:
            raise ValueError(f"batch_n must be >= 1, got {self.batch_n!r}")
        if self.kind is not RuleKind.CHANGE_DETECTION:
            if self.threshold_time is None or self.threshold_time <= 0.0:
                raise ValueError(f"{self.kind.value} requires threshold_time > 0")


@dataclass(frozen=True)
class ExperimentSummary:
    """Accuracy statistics for one experiment (all proportions with 95%
    Wilson intervals).  Device fields are None unless the baseline ran."""

    n_trials: int
    definite: RateEstimate
    superposition: RateEstimate
    overall: RateEstimate
    mean_report_time_definite: float | None
    mean_report_time_superposition: float | None
    device_success: RateEstimate | None
    device_bound: float | None
    master_seed: int

    def __post_init__(self) -> None:
        if self.definite.trials + self.superposition.trials != self.n_trials:
            raise ValueError("per-class trial counts must add up to n_trials")
        if self.overall.trials != self.n_trials:
            raise ValueError("overall count must equal n_trials")


def classify_single(report: PerceptionReport, rule: DecisionRule) -> InputKind:
    """Guess the input kind from one report."""
    timing = (
        rule.kind is not RuleKind.CHANGE_DETECTION
        and report.first_percept_time > rule.threshold_time
    )
    change = rule.kind is not RuleKind.TIMING_THRESHOLD and report.change_detected
    if timing or change:
        return InputKind.SUPERPOSITION
    return rule.no_change_guess


def classify_batch(reports: Sequence[PerceptionReport], rule: DecisionRule) -> InputKind:
    """Guess from a batch of identically prepared states.

    Superposition iff any single-state classification fires; both signals
    are one-sided, so the likelihood-ratio test degenerates to existence of
    a positive (with the usual false-positive caveat under heavy jitter).
    """
    if len(reports) == 0:
        raise ValueError("empty report batch")
    if len(reports) != rule.batch_n:
        raise ValueError(f"expected batch of {rule.batch_n} reports, got {len(reports)}")
    for report in reports:
        if classify_single(report, rule) is InputKind.SUPERPOSITION:
            return InputKind.SUPERPOSITION
    return rule.no_change_guess


def device_trial(
    true_input: InputKind,
    p1: float,
    rng: np.random.Generator,
    no_change_guess: InputKind = InputKind.DEFINITE,
) -> tuple[Branch, InputKind]:
    """Projective measurement in the branch basis; no timing channel.

    Outcome B2 certifies a superposition; outcome B1 is uninformative and
    yields ``no_change_guess``.
    """
    if true_input is InputKind.DEFINITE and p1 != 1.0:
        raise ValueError(f"definite input requires p1 = 1, got {p1!r}")
    state = make_input_state(true_input, p1)
    outcome = Branch.B1 if rng.random() < born_probability(state) else Branch.B2
    guess = InputKind.SUPERPOSITION if outcome is Branch.B2 else no_change_guess
    return outcome, guess


def optimal_device_bound(fidelity: float) -> float:
    """Maximum equal-prior single-copy success probability of any physical
    measurement strategy against a state pair with the given fidelity."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity!r}")
    return 0.5 * (1.0 + math.sqrt(1.0 - fidelity))


def _run_block(
    config: "ExperimentConfig", rng: np.random.Generator, m: int, p1: float, collapses: bool
) -> tuple[int, int, int, int, float, float]:
    """Run ``m`` decisions; return ``(n_definite, correct_definite,
    correct_superposition, device_correct, report-time sum definite,
    report-time sum superposition)``."""
    rule = config.rule
    observer = config.observer
    batch_n = rule.batch_n
    definite = rng.random(m) < config.priors
    superposed = ~definite
    n_sup = int(np.count_nonzero(superposed))

    first = np.full((m, batch_n), observer.t_p)
    changed = np.zeros((n_sup, batch_n), dtype=bool)
    if collapses and n_sup:
        times, hit_upper = sample_collapses(p1, config.collapse, rng, n_sup * batch_n)
        first[superposed], changed = perceive_collapses(
            observer, config.scenario, times.reshape(n_sup, batch_n), hit_upper.reshape(n_sup, batch_n), rng
        )
    first = report_times(first, observer, rng)
    if observer.jitter_sigma > 0.0:
        # Change-report jitter.  No output reads the change-report time, but
        # the draw keeps the block's variates those of the scalar model.
        rng.normal(0.0, observer.jitter_sigma, np.count_nonzero(changed))

    fired = np.zeros((m, batch_n), dtype=bool)
    if rule.kind is not RuleKind.CHANGE_DETECTION:
        fired = first > rule.threshold_time
    if rule.kind is not RuleKind.TIMING_THRESHOLD:
        fired[superposed] |= changed
    fired = fired.any(axis=1)

    n_def = m - n_sup
    if rule.no_change_guess is InputKind.DEFINITE:
        correct_def = n_def - int(np.count_nonzero(fired[definite]))
        correct_sup = int(np.count_nonzero(fired[superposed]))
    else:
        correct_def, correct_sup = 0, n_sup
    device_correct = 0
    if config.device_baseline:
        # A definite input always reads B1; a superposition reads B2, which
        # certifies it, when the uniform lands at or above p1.
        u = rng.random(m)
        if rule.no_change_guess is InputKind.DEFINITE:
            device_correct = n_def + int(np.count_nonzero(u[superposed] >= p1))
        else:
            device_correct = n_sup
    return (
        n_def, correct_def, correct_sup, device_correct,
        float(first[definite].sum()), float(first[superposed].sum()),
    )


def run_experiment(config: "ExperimentConfig") -> ExperimentSummary:
    """Run ``config.n_trials`` independent decisions and aggregate accuracies.

    Each decision draws an input kind from the priors, consumes
    ``rule.batch_n`` identically prepared states, and classifies the batch.
    Decisions run in blocks of :data:`BLOCK_SIZE`; block ``b`` draws from
    ``SeedSequence(master_seed, spawn_key=(b,))``, one array per variate
    kind, in this order (layout :data:`RNG_STREAM`):

    1. one prior uniform per decision (definite when below ``priors``);
    2. collapse times and outcomes of the superposed copies,
       ``n_superposed * batch_n`` of them, from :func:`sample_collapses`;
    3. one pre-percept uniform per superposed copy (``random_percept`` only);
    4. one first-report jitter per copy, decision-major;
    5. one change-report jitter per copy that reports a change;
    6. one device uniform per decision (device baseline only).

    Jitter is drawn only when ``jitter_sigma > 0``.  Each block reduces to
    integer counts and report-time partial sums, which are combined in block
    order (the sums with ``math.fsum``), so memory stays at one block.
    """
    n = config.n_trials
    batch_n = config.rule.batch_n
    definite_state = make_input_state(InputKind.DEFINITE, 1.0)
    prepared_superposition = make_input_state(InputKind.SUPERPOSITION, config.input_p1)
    p1 = born_probability(prepared_superposition)
    # A weight within rounding of 1 prepares a definite state: it never collapses.
    collapses = prepared_superposition.kind is InputKind.SUPERPOSITION

    blocks = [
        _run_block(
            config,
            np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(block,))),
            min(BLOCK_SIZE, n - start),
            p1,
            collapses,
        )
        for block, start in enumerate(range(0, n, BLOCK_SIZE))
    ]
    n_def, correct_def, correct_sup, device_correct, time_def, time_sup = zip(*blocks)
    n_definite = sum(n_def)
    n_superposition = n - n_definite

    def mean_time(partial_sums: tuple[float, ...], count: int) -> float | None:
        return math.fsum(partial_sums) / (count * batch_n) if count else None

    device_success = None
    device_bound = None
    if config.device_baseline:
        device_success = RateEstimate.from_counts(sum(device_correct), n)
        device_bound = optimal_device_bound(state_fidelity(definite_state, prepared_superposition))

    return ExperimentSummary(
        n_trials=n,
        definite=RateEstimate.from_counts(sum(correct_def), n_definite),
        superposition=RateEstimate.from_counts(sum(correct_sup), n_superposition),
        overall=RateEstimate.from_counts(sum(correct_def) + sum(correct_sup), n),
        mean_report_time_definite=mean_time(time_def, n_definite),
        mean_report_time_superposition=mean_time(time_sup, n_superposition),
        device_success=device_success,
        device_bound=device_bound,
        master_seed=config.master_seed,
    )
