"""Discrimination trials, decision rules, and the physical-device baseline.

One trial prepares an input (definite branch-1 state or a superposition),
lets it collapse, produces a perception report, and classifies the report.
Two one-sided signals are available: the first-percept time exceeding a
threshold (a superposition keeps the observer waiting), and a detected
percept change (only a collapse can flip a percept).  Both can only fire for
superpositions (absent jitter a definite input never triggers either), so
the batch rule over identically prepared states is "any positive fires".

The device baseline performs a projective measurement in the branch basis
with no timing channel; its single-copy success is capped by the optimal
two-state bound, which the conscious-observer channel beats whenever the
collapse-vs-perception gap is identifiable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .collapse import CollapseEvent, CollapseParams, collapse_for_input
from .observer import (
    ObserverParams,
    PerceptionReport,
    PerceptionScenario,
    perceive_definite,
    perceive_superposition,
)
from .states import Branch, InputKind, InputState, born_probability, make_input_state, state_fidelity
from .stats import RateEstimate

if TYPE_CHECKING:
    from .config import ExperimentConfig


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
class TrialRecord:
    """Full trace of one single-state trial."""

    true_input: InputKind
    input_p1: float
    collapse: CollapseEvent | None
    report: PerceptionReport
    guess: InputKind
    correct: bool

    def __post_init__(self) -> None:
        if self.correct != (self.guess is self.true_input):
            raise ValueError("correct flag inconsistent with guess vs true_input")


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


def run_trial(
    true_input: InputKind,
    p1: float,
    collapse_params: CollapseParams,
    observer_params: ObserverParams,
    scenario: PerceptionScenario,
    rule: DecisionRule,
    rng: np.random.Generator,
) -> TrialRecord:
    """Prepare, collapse, perceive, classify: one single-state trial."""
    if true_input is InputKind.DEFINITE and p1 != 1.0:
        raise ValueError(f"definite input requires p1 = 1, got {p1!r}")
    state = make_input_state(true_input, p1)
    event = collapse_for_input(state, collapse_params, rng)
    if event is None:
        report = perceive_definite(observer_params, rng)
    else:
        report = perceive_superposition(observer_params, scenario, event, rng)
    guess = classify_single(report, rule)
    return TrialRecord(
        true_input=true_input,
        input_p1=p1,
        collapse=event,
        report=report,
        guess=guess,
        correct=guess is true_input,
    )


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


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Private random stream for one trial, split from the master seed.

    Identical to ``SeedSequence(master_seed).spawn(...)[trial_index]``, so
    streams depend only on (master seed, index) and never on worker
    scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial_index,)))


def run_experiment(config: "ExperimentConfig", *, threads: int = 1) -> ExperimentSummary:
    """Run ``config.n_trials`` independent decisions and aggregate accuracies.

    Each decision draws an input kind from the priors, consumes
    ``rule.batch_n`` identically prepared states, and classifies the batch.
    Per-trial results land in preallocated arrays indexed by trial, and
    aggregation is a single pass over those arrays, so the summary is
    byte-identical for any ``threads`` value.  Worker threads are capped at
    the CPU count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    n = config.n_trials
    rule = config.rule
    batch_n = rule.batch_n
    with_device = config.device_baseline

    is_definite = np.zeros(n, dtype=bool)
    correct = np.zeros(n, dtype=bool)
    time_sums = np.zeros(n)
    device_correct = np.zeros(n, dtype=bool)

    definite_state = make_input_state(InputKind.DEFINITE, 1.0)
    prepared_superposition = make_input_state(InputKind.SUPERPOSITION, config.input_p1)

    def one_trial(i: int) -> None:
        rng = trial_rng(config.master_seed, i)
        definite = rng.random() < config.priors
        kind = InputKind.DEFINITE if definite else InputKind.SUPERPOSITION
        p1 = 1.0 if definite else config.input_p1
        state = definite_state if definite else prepared_superposition
        reports = []
        for _ in range(batch_n):
            event = collapse_for_input(state, config.collapse, rng)
            if event is None:
                report = perceive_definite(config.observer, rng)
            else:
                report = perceive_superposition(config.observer, config.scenario, event, rng)
            reports.append(report)
        guess = classify_batch(reports, rule)
        is_definite[i] = definite
        correct[i] = guess is kind
        time_sums[i] = math.fsum(r.first_percept_time for r in reports)
        if with_device:
            _, device_guess = device_trial(kind, p1, rng, rule.no_change_guess)
            device_correct[i] = device_guess is kind

    workers = min(threads, os.cpu_count() or 1)
    if workers == 1:
        for i in range(n):
            one_trial(i)
    else:
        chunk = max(1, math.ceil(n / (workers * 8)))
        spans = [range(s, min(s + chunk, n)) for s in range(0, n, chunk)]

        def run_span(span: range) -> None:
            for i in span:
                one_trial(i)

        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            list(pool.map(run_span, spans))

    n_definite = int(is_definite.sum())
    n_superposition = n - n_definite
    definite_est = RateEstimate.from_counts(int(correct[is_definite].sum()), n_definite)
    superposition_est = RateEstimate.from_counts(int(correct[~is_definite].sum()), n_superposition)
    overall_est = RateEstimate.from_counts(int(correct.sum()), n)

    def mean_time(mask: np.ndarray, count: int) -> float | None:
        if count == 0:
            return None
        return float(time_sums[mask].sum() / (count * batch_n))

    device_success = None
    device_bound = None
    if with_device:
        device_success = RateEstimate.from_counts(int(device_correct.sum()), n)
        device_bound = optimal_device_bound(state_fidelity(definite_state, prepared_superposition))

    return ExperimentSummary(
        n_trials=n,
        definite=definite_est,
        superposition=superposition_est,
        overall=overall_est,
        mean_report_time_definite=mean_time(is_definite, n_definite),
        mean_report_time_superposition=mean_time(~is_definite, n_superposition),
        device_success=device_success,
        device_bound=device_bound,
        master_seed=config.master_seed,
    )
