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
gap the observer tells apart enters only through the rule's ``threshold_time``.
"""

from __future__ import annotations

from collections.abc import Callable
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
    """Perception latency ``t_p`` and report-time jitter."""

    t_p: float = field(metadata={"json": 0.001, "sweep": True})
    jitter_sigma: float = field(default=0.0, metadata={"json": 0.0002, "sweep": True, "draws": True})

    def __post_init__(self) -> None:
        check_time("t_p", self.t_p, self.t_p > 0.0, "> 0")
        check_time("jitter_sigma", self.jitter_sigma, self.jitter_sigma >= 0.0, ">= 0")


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


def report_jitter(o: ObserverParams, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray | None:
    """One Gaussian report jitter per copy, of ``shape``, or None with no draw
    when ``jitter_sigma`` is 0: ``jitter_sigma * z`` with ``z`` from
    ``standard_normal``, bit for bit ``normal(0.0, jitter_sigma)``."""
    if not o.jitter_sigma:
        return None
    jitter = rng.standard_normal(shape)
    return np.multiply(jitter, o.jitter_sigma, out=jitter)


def add_jitter(reports: np.ndarray, jitter: np.ndarray | None) -> np.ndarray:
    """Add ``jitter`` from :func:`report_jitter`, shared by all points, to
    ``reports`` of shape ``(points, decisions, copies)`` in place, truncate
    at 0, and return ``reports``; None adds nothing."""
    if jitter is None:
        return reports
    reports += jitter
    return np.maximum(reports, 0.0, out=reports)


def percept_changes(scenario: PerceptionScenario, hit_upper: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Whether each superposed copy, landing on B1 where ``hit_upper`` is set,
    reports a change: its pre-collapse percept differs from the branch
    percept the collapse leaves (C1 for B1, C2 for B2).  RANDOM_PERCEPT
    draws one pre-percept uniform per copy (C1 below ``r``); no other does."""
    tag = scenario.tag
    if tag is ScenarioTag.RANDOM_PERCEPT:
        return (rng.random(hit_upper.shape) < scenario.r) != hit_upper
    if tag is ScenarioTag.FIXED_C1:
        return ~hit_upper
    if tag is ScenarioTag.FIXED_C2:
        return hit_upper
    # No pre-collapse percept never changes; a distinct one always does.
    return np.full(hit_upper.shape, tag is ScenarioTag.DISTINCT_PERCEPT)


def first_reports(
    t_p: float | np.ndarray, scenario: PerceptionScenario, times: Callable[[], np.ndarray] | None, shape: tuple
) -> np.ndarray:
    """Un-jittered first-report times of superposed copies, of ``shape``:
    ``times() + t_p`` under POST_COLLAPSE_ONLY (``t_p`` when ``times`` is
    None: no copy collapses), else ``t_p`` without calling ``times``, as a
    pre-collapse percept arrives.  ``t_p`` may broadcast against ``shape``,
    such as one latency per point along a leading point axis."""
    if scenario.tag is not ScenarioTag.POST_COLLAPSE_ONLY or times is None:
        return np.full(shape, t_p)
    reports = times().reshape(shape)
    reports += t_p
    return reports


def awareness_probability(scenario: PerceptionScenario, p1: float) -> float:
    """Closed-form probability that the observer notices a percept change.

    Companion to :func:`percept_changes` for a branch-1 weight ``p1``;
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
