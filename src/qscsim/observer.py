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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FieldError, check_field, check_time


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

    t_p: float = field(metadata={"json": 0.001, "sweep": True})
    jitter_sigma: float = field(default=0.0, metadata={"json": 0.0002, "sweep": True, "draws": True})
    resolution: float = field(default=0.01, metadata={"sweep": True})

    def __post_init__(self) -> None:
        check_time("t_p", self.t_p, self.t_p > 0.0, "> 0")
        check_time("jitter_sigma", self.jitter_sigma, self.jitter_sigma >= 0.0, ">= 0")
        check_time("resolution", self.resolution, self.resolution > 0.0, "> 0")


@dataclass(frozen=True)
class PerceptionScenario:
    """Which pre-collapse perception case governs a superposed input."""

    tag: ScenarioTag = field(metadata={"json": ScenarioTag.POST_COLLAPSE_ONLY, "draws": True})
    r: float | None = field(default=None, metadata={"sweep": True, "draws": True})

    def __post_init__(self) -> None:
        if self.tag is ScenarioTag.RANDOM_PERCEPT:
            if self.r is None:
                raise FieldError("r", "required for random_percept")
            check_field("r", self.r, 0.0 <= self.r <= 1.0, "in [0.0, 1.0]")
        elif self.r is not None:
            raise FieldError("r", "only meaningful for random_percept")


def report_times(base: np.ndarray, o: ObserverParams, rng: np.random.Generator) -> np.ndarray:
    """Add the report-time jitter to ``base`` of shape ``(points, decisions,
    copies)`` in place and return it: one Gaussian draw per decision copy,
    shared by all points, truncated at 0, and no draw at all when
    ``jitter_sigma`` is 0.  The jitter is ``jitter_sigma * z`` with ``z``
    from ``standard_normal``, which is bit for bit what
    ``normal(0.0, jitter_sigma)`` returns on the same stream."""
    if o.jitter_sigma == 0.0:
        return base
    base += o.jitter_sigma * rng.standard_normal(base.shape[1:])
    return np.maximum(base, 0.0, out=base)


def perceive_collapses(
    t_p: float | np.ndarray,
    scenario: PerceptionScenario,
    times: np.ndarray,
    hit_upper: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """First reports of superposed copies, before report jitter.

    For collapses at ``times`` landing on B1 where ``hit_upper`` is set,
    returns each copy's un-jittered first-report time for latency ``t_p``
    and whether it reports a change, that is whether the pre-collapse
    percept differs from the branch percept the collapse leaves (C1 for B1,
    C2 for B2).  RANDOM_PERCEPT draws one pre-percept uniform per copy (C1
    below ``r``); the other scenarios draw nothing.

    ``times`` may carry a leading point axis over a ``hit_upper`` that all
    points share, with ``t_p`` an array that broadcasts against it (one
    latency per point); the report times then carry that axis, and the
    change flags, which do not depend on timing, have the shape of
    ``hit_upper``.
    """
    tag = scenario.tag
    if tag is ScenarioTag.POST_COLLAPSE_ONLY:
        return times + t_p, np.zeros(hit_upper.shape, dtype=bool)
    first = np.full(times.shape, t_p)
    if tag is ScenarioTag.DISTINCT_PERCEPT:
        return first, np.ones(hit_upper.shape, dtype=bool)
    if tag is ScenarioTag.FIXED_C1:
        return first, ~hit_upper
    if tag is ScenarioTag.FIXED_C2:
        return first, hit_upper
    pre_c1 = rng.random(hit_upper.shape) < scenario.r
    return first, pre_c1 != hit_upper


def awareness_probability(scenario: PerceptionScenario, p1: float) -> float:
    """Closed-form probability that the observer notices a percept change.

    Companion to :func:`perceive_collapses` for a branch-1 weight ``p1``;
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
