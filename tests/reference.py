"""The scalar per-trial model, and references for the experiment kernel and
the diffusion sampler.

The first part states the model one trial at a time: a collapse event per
superposed copy (``collapse_for_input``), a timestamped perception report
(``perceive_definite``, ``perceive_superposition``), a guess from a batch of
reports (``classify_single``, ``classify_batch``) and the projective device
(``device_trial``).  ``reference_run`` runs decisions through it, each trial
on its own ``SeedSequence`` spawn-key stream; ``run_experiment``'s block
kernel must agree with it statistically.

``per_walker_diffusion_collapses`` is the exact diffusion sampler written
with one position and one set of J* constants per walker, choosing the form
of each series term by ``x > 0.64``.  It draws the same variates in the same
order as ``sample_collapses``, whose output must equal it exactly.  (The two
could part only if an exponential proposal ``0.64 + E/k`` rounded down to
0.64, which needs ``E/k`` below half an ulp of 0.64: a chance under 1e-12
per proposal even for bands as wide as ``epsilon = 1e-300``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from qscsim.collapse import CollapseParams, sample_collapses
from qscsim.observer import ObserverParams, PerceptionScenario, ScenarioTag
from qscsim.protocol import DEFINITE_WEIGHT_TOL, DecisionRule, RuleKind


class InputKind(Enum):
    """An input kind, and the scalar model's guess of it."""

    DEFINITE = "definite"
    SUPERPOSITION = "superposition"


class Branch(Enum):
    """Collapse outcome: B1 is the branch the definite input occupies."""

    B1 = "b1"
    B2 = "b2"


@dataclass(frozen=True)
class CollapseEvent:
    """One collapse: its instant and outcome branch."""

    time: float
    outcome: Branch

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"collapse time must be >= 0, got {self.time!r}")


def sample_outcome(p1: float, rng: np.random.Generator) -> Branch:
    """Draw the collapse outcome: B1 with probability ``p1``."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    return Branch.B1 if rng.random() < p1 else Branch.B2


def collapse_for_input(p1: float, params: CollapseParams, rng: np.random.Generator) -> CollapseEvent | None:
    """Collapse event for one input with branch-1 weight ``p1``, or None for
    a definite input.

    An input whose branch-2 weight is below ``DEFINITE_WEIGHT_TOL`` is
    definite: it involves no superposition, hence no collapse wait.  A
    superposed input gets one draw of :func:`sample_collapses`.
    """
    if 1.0 - p1 < DEFINITE_WEIGHT_TOL:
        return None
    times, hit_upper = sample_collapses(p1, params, rng, 1)
    return CollapseEvent(time=float(times[0]), outcome=Branch.B1 if hit_upper[0] else Branch.B2)


class Percept(Enum):
    """Percept labels; INITIAL is the notional pre-measurement state and never
    appears in a report."""

    INITIAL = "initial"
    C1 = "c1"
    C2 = "c2"
    DISTINCT = "distinct"


@dataclass(frozen=True)
class PerceptionReport:
    """Timestamped account of what the observer experienced in one trial."""

    first_percept_time: float
    first_percept: Percept
    change_detected: bool
    change_time: float | None
    final_percept: Percept

    def __post_init__(self) -> None:
        if self.first_percept_time < 0.0:
            raise ValueError("first_percept_time must be >= 0")
        if self.change_detected:
            if self.change_time is None:
                raise ValueError("change_detected requires change_time")
            if self.change_time < 0.0:
                raise ValueError("change_time must be >= 0")
            if self.final_percept is self.first_percept:
                raise ValueError("detected change requires final_percept != first_percept")
        elif self.change_time is not None:
            raise ValueError("change_time present without change_detected")


def percept_for_branch(outcome: Branch) -> Percept:
    return Percept.C1 if outcome is Branch.B1 else Percept.C2


def _report_time(base: float, o: ObserverParams, rng: np.random.Generator) -> float:
    if o.jitter_sigma == 0.0:
        return base
    return max(0.0, base + rng.normal(0.0, o.jitter_sigma))


def perceive_definite(o: ObserverParams, rng: np.random.Generator) -> PerceptionReport:
    """Report for a definite branch-1 input: percept C1 after one latency."""
    t = _report_time(o.t_p, o, rng)
    return PerceptionReport(
        first_percept_time=t,
        first_percept=Percept.C1,
        change_detected=False,
        change_time=None,
        final_percept=Percept.C1,
    )


def perceive_superposition(
    o: ObserverParams,
    scenario: PerceptionScenario,
    event: CollapseEvent | None,
    rng: np.random.Generator,
) -> PerceptionReport:
    """Report for a superposed input that collapsed via ``event``.

    Draw order per trial: scenario-specific percept draw (RANDOM_PERCEPT
    only), then first-report jitter, then change-report jitter if a change is
    reported.
    """
    if event is None:
        raise ValueError("perceive_superposition needs a collapse event; definite inputs produce none")
    post = percept_for_branch(event.outcome)
    tag = scenario.tag

    if tag is ScenarioTag.POST_COLLAPSE_ONLY:
        t = _report_time(event.time + o.t_p, o, rng)
        return PerceptionReport(t, post, False, None, post)

    if tag is ScenarioTag.DISTINCT_PERCEPT:
        pre = Percept.DISTINCT
        changed = True
    elif tag is ScenarioTag.FIXED_C1:
        pre = Percept.C1
        changed = event.outcome is Branch.B2
    elif tag is ScenarioTag.FIXED_C2:
        pre = Percept.C2
        changed = event.outcome is Branch.B1
    else:  # RANDOM_PERCEPT: pre-percept independent of the collapse outcome
        pre = Percept.C1 if rng.random() < scenario.r else Percept.C2
        changed = pre is not post

    first_time = _report_time(o.t_p, o, rng)
    if not changed:
        return PerceptionReport(first_time, pre, False, None, pre)
    change_time = _report_time(event.time + o.t_p, o, rng)
    return PerceptionReport(first_time, pre, True, change_time, post)


def classify_single(report: PerceptionReport, rule: DecisionRule) -> InputKind:
    """Guess the input kind from one report."""
    timing = (
        rule.kind is not RuleKind.CHANGE_DETECTION
        and report.first_percept_time > rule.threshold_time
    )
    change = rule.kind is not RuleKind.TIMING_THRESHOLD and report.change_detected
    if timing or change:
        return InputKind.SUPERPOSITION
    return InputKind.DEFINITE


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
    return InputKind.DEFINITE


def device_trial(true_input: InputKind, p1: float, rng: np.random.Generator) -> tuple[Branch, InputKind]:
    """Projective measurement in the branch basis; no timing channel.

    Outcome B2 certifies a superposition; outcome B1 is uninformative and
    yields the guess definite.
    """
    if true_input is InputKind.DEFINITE and p1 != 1.0:
        raise ValueError(f"definite input requires p1 = 1, got {p1!r}")
    outcome = Branch.B1 if rng.random() < p1 else Branch.B2
    guess = InputKind.SUPERPOSITION if outcome is Branch.B2 else InputKind.DEFINITE
    return outcome, guess


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


def _report(p1, collapse_params, observer_params, scenario, rng):
    event = collapse_for_input(p1, collapse_params, rng)
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
    event, report = _report(p1, collapse_params, observer_params, scenario, rng)
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
        reports = [
            _report(p1, config.collapse, config.observer, config.scenario, rng)[1] for _ in range(batch_n)
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
            tally.device_correct += device_trial(kind, p1, rng)[1] is kind
    return tally


_J_TRUNC = 0.64
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc(-x / math.sqrt(2.0)).astype(float)


def _j_star_term(n: int, x: np.ndarray) -> np.ndarray:
    k = (n + 0.5) * math.pi
    left = np.exp(math.log(k) - 1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x > _J_TRUNC, k * np.exp(-0.5 * k * k * x), left)


def _truncated_inverse_gaussian(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    t = _J_TRUNC
    out = np.empty(z.size)
    pending = np.flatnonzero(z < 1.0 / t)
    while pending.size:
        e1 = rng.standard_exponential(pending.size)
        e2 = rng.standard_exponential(pending.size)
        x = t / (1.0 + t * e1) ** 2
        ok = (e1 * e1 <= 2.0 * e2 / t) & (rng.random(pending.size) <= np.exp(-0.5 * z[pending] ** 2 * x))
        out[pending[ok]] = x[ok]
        pending = pending[~ok]
    pending = np.flatnonzero(z >= 1.0 / t)
    while pending.size:
        mu = 1.0 / z[pending]
        y = rng.standard_normal(pending.size) ** 2
        x = mu + 0.5 * mu * mu * y - 0.5 * mu * np.sqrt(4.0 * mu * y + (mu * y) ** 2)
        x = np.where(rng.random(pending.size) > mu / (mu + x), mu * mu / x, x)
        ok = x <= t
        out[pending[ok]] = x[ok]
        pending = pending[~ok]
    return out


def per_walker_j_star(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Devroye's J*(1, z) sampler with its constants computed per entry of ``z``."""
    t = _J_TRUNC
    k = 0.125 * math.pi**2 + 0.5 * z * z
    with np.errstate(divide="ignore"):
        log_q_over_p = np.log(4.0 / math.pi * k) + k * t + np.logaddexp(
            -z + np.log(_norm_cdf((t * z - 1.0) / math.sqrt(t))),
            z + np.log(_norm_cdf(-(t * z + 1.0) / math.sqrt(t))),
        )
    p_right = np.exp(-np.logaddexp(0.0, log_q_over_p))

    out = np.empty(z.size)
    pending = np.arange(z.size)
    while pending.size:
        m = pending.size
        right = rng.random(m) < p_right[pending]
        x = np.empty(m)
        x[right] = t + rng.standard_exponential(int(right.sum())) / k[pending[right]]
        x[~right] = _truncated_inverse_gaussian(z[pending[~right]], rng)
        s = _j_star_term(0, x)
        y = rng.random(m) * s
        accept = np.zeros(m, dtype=bool)
        open_ = np.arange(m)
        n = 0
        while open_.size:
            n += 1
            if n % 2:
                s[open_] -= _j_star_term(n, x[open_])
                decided = y[open_] <= s[open_]
                accept[open_[decided]] = True
            else:
                s[open_] += _j_star_term(n, x[open_])
                decided = y[open_] > s[open_]
            open_ = open_[~decided]
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
    return out


def per_walker_diffusion_collapses(
    p1: float, params: CollapseParams, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` exact diffusion collapses, each walker keeping its own position."""
    band = math.log1p(-params.epsilon) - math.log(params.epsilon)
    y = np.full(n, math.log(p1) - math.log1p(-p1))
    times = np.zeros(n)
    hit_upper = y > 0.0
    live = np.flatnonzero(np.abs(y) < band)
    while live.size:
        y_live = y[live]
        r = band - np.abs(y_live)
        up = rng.random(live.size) < 0.5 * (1.0 + np.tanh(0.5 * y_live) * np.tanh(0.5 * r))
        times[live] += (r / params.gamma) ** 2 * per_walker_j_star(0.5 * r, rng)
        y_next = np.where(up, y_live + r, y_live - r)
        done = (up == (y_live >= 0.0)) | (y_live == 0.0) | (np.abs(y_next) >= band)
        hit_upper[live[done]] = y_next[done] > 0.0
        y[live] = y_next
        live = live[~done]
    return times, hit_upper
