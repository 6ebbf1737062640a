"""Observer with perception latency and pre-collapse perception scenarios.

A definite input is perceived after the latency ``t_p``.  For a superposed
input, what (if anything) the observer experiences before collapse finishes
is model-dependent; the scenarios below cover the cases of interest:

* ``POST_COLLAPSE_ONLY``: no definite percept exists until collapse ends;
  the first percept arrives one latency after the collapse instant.
* ``DISTINCT_PERCEPT``: a definite but sui-generis percept (neither branch
  percept) appears after ``t_p``; it always changes at collapse.
* ``FIXED_C1`` / ``FIXED_C2``: the pre-collapse percept is pinned to one
  branch percept; a change is noticed only when the collapse lands on the
  other branch.
* ``RANDOM_PERCEPT``: the pre-collapse percept is C1 with probability ``r``,
  drawn per trial, independent of the eventual outcome.

Report times carry optional Gaussian jitter truncated at zero.  The timing
resolution enters only through downstream decision rules, never through
report generation (noise and discriminability are separate knobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collapse import CollapseEvent, CollapseParams
from .errors import ModelMisuseError
from .states import Branch


class Percept(Enum):
    """Percept labels; INITIAL is the notional pre-measurement state and never
    appears in a report."""

    INITIAL = "initial"
    C1 = "c1"
    C2 = "c2"
    DISTINCT = "distinct"


class ScenarioTag(Enum):
    POST_COLLAPSE_ONLY = "post_collapse_only"
    DISTINCT_PERCEPT = "distinct_percept"
    FIXED_C1 = "fixed_c1"
    FIXED_C2 = "fixed_c2"
    RANDOM_PERCEPT = "random_percept"


@dataclass(frozen=True)
class ObserverParams:
    """Perception latency ``t_p``, report-time jitter, and timing resolution
    (the smallest time difference the observer can identify)."""

    t_p: float
    jitter_sigma: float = 0.0
    resolution: float = 0.01

    def __post_init__(self) -> None:
        if self.t_p <= 0.0:
            raise ValueError(f"t_p must be > 0, got {self.t_p!r}")
        if self.jitter_sigma < 0.0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma!r}")
        if self.resolution <= 0.0:
            raise ValueError(f"resolution must be > 0, got {self.resolution!r}")


@dataclass(frozen=True)
class PerceptionScenario:
    """Which pre-collapse perception case governs a superposed input."""

    tag: ScenarioTag
    r: float | None = None

    def __post_init__(self) -> None:
        if self.tag is ScenarioTag.RANDOM_PERCEPT:
            if self.r is None or not 0.0 <= self.r <= 1.0:
                raise ValueError(f"random_percept requires r in [0, 1], got {self.r!r}")
        elif self.r is not None:
            raise ValueError(f"r is only meaningful for random_percept, got {self.r!r}")


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


def report_times(base: np.ndarray, o: ObserverParams, rng: np.random.Generator) -> np.ndarray:
    """Array form of the report-time jitter: one Gaussian draw per entry,
    truncated at 0, and no draw at all when ``jitter_sigma`` is 0."""
    if o.jitter_sigma == 0.0:
        return base
    return np.maximum(base + rng.normal(0.0, o.jitter_sigma, base.shape), 0.0)


def perceive_collapses(
    o: ObserverParams,
    scenario: PerceptionScenario,
    times: np.ndarray,
    hit_upper: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`perceive_superposition`, before report jitter.

    For collapses at ``times`` landing on B1 where ``hit_upper`` is set,
    returns each copy's un-jittered first-report time and whether it reports
    a change.  RANDOM_PERCEPT draws one pre-percept uniform per copy; the
    other scenarios draw nothing.
    """
    tag = scenario.tag
    if tag is ScenarioTag.POST_COLLAPSE_ONLY:
        return times + o.t_p, np.zeros(times.shape, dtype=bool)
    first = np.full(times.shape, o.t_p)
    if tag is ScenarioTag.DISTINCT_PERCEPT:
        return first, np.ones(times.shape, dtype=bool)
    if tag is ScenarioTag.FIXED_C1:
        return first, ~hit_upper
    if tag is ScenarioTag.FIXED_C2:
        return first, hit_upper
    pre_c1 = rng.random(times.shape) < scenario.r
    return first, pre_c1 != hit_upper


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
        raise ModelMisuseError("perceive_superposition needs a collapse event; definite inputs produce none")
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


def awareness_probability(scenario: PerceptionScenario, p1: float) -> float:
    """Closed-form probability that the observer notices a percept change.

    Companion to :func:`perceive_superposition` for a branch-1 weight ``p1``;
    POST_COLLAPSE_ONLY yields 0 because no definite percept exists before
    collapse (the timing channel still discriminates there).
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    tag = scenario.tag
    if tag is ScenarioTag.POST_COLLAPSE_ONLY:
        return 0.0
    if tag is ScenarioTag.DISTINCT_PERCEPT:
        return 1.0
    if tag is ScenarioTag.FIXED_C1:
        return 1.0 - p1
    if tag is ScenarioTag.FIXED_C2:
        return p1
    return scenario.r * (1.0 - p1) + (1.0 - scenario.r) * p1


def qsc_condition_satisfied(
    o: ObserverParams, c: CollapseParams, margin: float = 5.0
) -> bool:
    """Whether the collapse-vs-perception time gap is identifiable.

    True iff ``t_c_mean - t_p`` exceeds ``margin`` times the larger of the
    observer's timing resolution and report jitter.
    """
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin!r}")
    gap = c.t_c_mean - o.t_p
    return gap > margin * max(o.resolution, o.jitter_sigma)
