"""Scalar per-trial reference for the experiment kernel.

Runs decisions one at a time through the package's scalar API
(``collapse_for_input``, ``perceive_*``, ``classify_batch``,
``device_trial``), each trial on its own ``SeedSequence`` spawn-key stream.
This is the model as stated, one report at a time; ``run_experiment``'s
block kernel must agree with it statistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qscsim.collapse import CollapseEvent, CollapseParams, collapse_for_input
from qscsim.observer import (
    ObserverParams,
    PerceptionReport,
    PerceptionScenario,
    perceive_definite,
    perceive_superposition,
)
from qscsim.protocol import DecisionRule, classify_batch, classify_single, device_trial
from qscsim.states import InputKind, make_input_state


@dataclass(frozen=True)
class TrialRecord:
    """Full trace of one single-state trial."""

    true_input: InputKind
    input_p1: float
    collapse: CollapseEvent | None
    report: PerceptionReport
    guess: InputKind
    correct: bool


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Private random stream for one trial, split from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial_index,)))


def _report(state, collapse_params, observer_params, scenario, rng):
    event = collapse_for_input(state, collapse_params, rng)
    if event is None:
        return event, perceive_definite(observer_params, rng)
    return event, perceive_superposition(observer_params, scenario, event, rng)


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
    event, report = _report(state, collapse_params, observer_params, scenario, rng)
    guess = classify_single(report, rule)
    return TrialRecord(true_input, p1, event, report, guess, guess is true_input)


@dataclass
class ReferenceTally:
    """Per-class counts and per-decision mean report times of a reference run."""

    definite_trials: int = 0
    definite_correct: int = 0
    superposition_trials: int = 0
    superposition_correct: int = 0
    device_correct: int = 0
    definite_times: list[float] = field(default_factory=list)
    superposition_times: list[float] = field(default_factory=list)


def reference_run(config, n_trials: int) -> ReferenceTally:
    """``n_trials`` decisions of ``config``, one trial stream each."""
    tally = ReferenceTally()
    batch_n = config.rule.batch_n
    for i in range(n_trials):
        rng = trial_rng(config.master_seed, i)
        definite = rng.random() < config.priors
        kind = InputKind.DEFINITE if definite else InputKind.SUPERPOSITION
        p1 = 1.0 if definite else config.input_p1
        state = make_input_state(kind, p1)
        reports = [
            _report(state, config.collapse, config.observer, config.scenario, rng)[1] for _ in range(batch_n)
        ]
        correct = classify_batch(reports, config.rule) is kind
        mean_time = sum(r.first_percept_time for r in reports) / batch_n
        if definite:
            tally.definite_trials += 1
            tally.definite_correct += correct
            tally.definite_times.append(mean_time)
        else:
            tally.superposition_trials += 1
            tally.superposition_correct += correct
            tally.superposition_times.append(mean_time)
        if config.device_baseline:
            tally.device_correct += device_trial(kind, p1, rng, config.rule.no_change_guess)[1] is kind
    return tally
