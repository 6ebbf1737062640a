"""Independent oracles used to derive expected values.

Everything here is deliberately implemented by a different route than the
package: finite-difference boundary-value solves instead of Monte Carlo,
grid search instead of closed forms, enumeration instead of sampling,
quadrature over the collapse-time law instead of running trials.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


def binom_3sigma(p: float, n: int) -> float:
    """Half-width of the 3-sigma band for a binomial frequency."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def exp_mean_3sigma(t_c: float, n: int) -> float:
    """3-sigma band for the sample mean of n exponential draws (CLT)."""
    return 3.0 * t_c / math.sqrt(n)


def exp_var_3sigma(t_c: float, n: int) -> float:
    """3-sigma band for the sample variance of n exponential draws.

    Var(S^2) ~ (mu4 - sigma^4) / n with mu4 = 9 sigma^4 for the exponential,
    giving sd(S^2) = sigma^2 * sqrt(8 / n).
    """
    return 3.0 * t_c * t_c * math.sqrt(8.0 / n)


def _first_passage_moments(gamma: float, epsilon: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid and the first two moments of the absorption time of
    dw = gamma*w*(1-w)*dW, bands at epsilon and 1-epsilon: finite-difference
    solves of the backward equations
    (1/2) gamma^2 w^2 (1-w)^2 u1'' = -1 and
    (1/2) gamma^2 w^2 (1-w)^2 u2'' = -2 u1, with u = 0 at both bands."""
    x = np.linspace(epsilon, 1.0 - epsilon, m)
    h = x[1] - x[0]
    inner = x[1:-1]
    scale = -2.0 / (gamma * gamma * inner**2 * (1.0 - inner) ** 2) * h * h
    u1 = _solve_second_difference(scale)
    u2 = _solve_second_difference(2.0 * u1 * scale)
    return inner, u1, u2


def _solve_second_difference(rhs: np.ndarray) -> np.ndarray:
    """Solve u[i-1] - 2 u[i] + u[i+1] = rhs[i] with zero boundary values
    (Thomas algorithm for the [1, -2, 1] tridiagonal system)."""
    n = rhs.size
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = 1.0 / -2.0
    dp[0] = rhs[0] / -2.0
    for i in range(1, n):
        denom = -2.0 - cp[i - 1]
        cp[i] = 1.0 / denom
        dp[i] = (rhs[i] - dp[i - 1]) / denom
    u = np.empty(n)
    u[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        u[i] = dp[i] - cp[i] * u[i + 1]
    return u


def mean_first_passage_time(p1: float, gamma: float, epsilon: float, m: int = 20001) -> float:
    """Mean absorption time of dw = gamma*w*(1-w)*dW from w=p1, bands at
    epsilon and 1-epsilon (see :func:`_first_passage_moments`)."""
    inner, u1, _ = _first_passage_moments(gamma, epsilon, m)
    return float(np.interp(p1, inner, u1))


def second_moment_first_passage_time(p1: float, gamma: float, epsilon: float, m: int = 20001) -> float:
    """E[tau^2] of the absorption time from w=p1 (see :func:`_first_passage_moments`)."""
    inner, _, u2 = _first_passage_moments(gamma, epsilon, m)
    return float(np.interp(p1, inner, u2))


def band_absorption_probability(p1: float, epsilon: float) -> float:
    """Probability a martingale from p1 hits 1-epsilon before epsilon."""
    return (p1 - epsilon) / (1.0 - 2.0 * epsilon)


def device_bound_grid(fidelity: float, m: int = 200001) -> float:
    """Best equal-prior success of any two-outcome projective measurement on
    the real great circle against states with overlap ``fidelity``.

    Grid search over the measurement angle; guessing "definite" on the
    outcome aligned with the definite state. The swapped assignment is
    covered because the sweep spans a half-turn.
    """
    p1 = fidelity  # overlap of (1, 0) with (sqrt(p1), sqrt(1-p1)) is p1
    theta = np.linspace(0.0, np.pi, m)
    mv1 = np.cos(theta)
    mv2 = np.sin(theta)
    a1 = math.sqrt(p1)
    a2 = math.sqrt(1.0 - p1)
    p_def = mv1**2
    p_sup = 1.0 - (mv1 * a1 + mv2 * a2) ** 2
    return float(np.max(0.5 * (p_def + p_sup)))


def device_success_enumeration(priors_definite: float, p1: float) -> float:
    """Expected device success over the four (input, outcome) cells."""
    total = 0.0
    for definite, weight in ((True, priors_definite), (False, 1.0 - priors_definite)):
        w1 = 1.0 if definite else p1
        for branch1, prob in ((True, w1), (False, 1.0 - w1)):
            guess_definite = branch1  # B2 certifies superposition
            correct = guess_definite == definite
            total += weight * prob * (1.0 if correct else 0.0)
    return total


def batch_detection_enumeration(p_single: float, batch_n: int) -> float:
    """P(at least one positive) by brute force over all outcome patterns."""
    total = 0.0
    for pattern in itertools.product((True, False), repeat=batch_n):
        prob = 1.0
        for fired in pattern:
            prob *= p_single if fired else (1.0 - p_single)
        if any(pattern):
            total += prob
    return total


def _clipped_report(mu: float, sigma: float, threshold: float | None) -> tuple[float, float, float]:
    """``P(Y > threshold)`` (0 without one), ``E[Y]`` and ``E[Y^2]`` of a
    report ``Y = max(mu + J, 0)``, ``J`` normal of SD ``sigma`` (0: none).
    The threshold is positive, so the clip at 0 never changes the tail."""
    if sigma == 0.0:
        y = max(mu, 0.0)
        return float(threshold is not None and y > threshold), y, y * y
    tail = 0.0 if threshold is None else float(norm.sf(threshold, mu, sigma))
    cdf, pdf = norm.cdf(mu / sigma), norm.pdf(mu / sigma)
    return tail, mu * cdf + sigma * pdf, (mu * mu + sigma * sigma) * cdf + mu * sigma * pdf


def _after_collapse(config, threshold: float | None) -> tuple[float, ...]:
    """:func:`_clipped_report` of the post-collapse report ``T_c + t_p``,
    averaged over the collapse-time law by quadrature.  The jump law is
    integrated on either side of ``threshold - t_p``, where a jitter-free
    report crosses the threshold."""
    t_c, t_p, sigma = config.collapse.t_c_mean, config.observer.t_p, config.observer.jitter_sigma
    model = config.collapse.model.value
    if model == "deterministic_time":
        return _clipped_report(t_c + t_p, sigma, threshold)
    if model != "jump_exponential":
        raise ValueError(f"no collapse-time law for {model}")
    cut = 0.0 if threshold is None else max(threshold - t_p, 0.0)
    pieces = ((0.0, cut), (cut, math.inf)) if cut > 0.0 else ((0.0, math.inf),)
    return tuple(
        sum(
            quad(lambda t: _clipped_report(t + t_p, sigma, threshold)[k] * math.exp(-t / t_c) / t_c, a, b)[0]
            for a, b in pieces
        )
        for k in range(3)
    )


def _change_probability(config, p_b1: float) -> float:
    """P(the pre-collapse percept differs from the branch percept the
    collapse leaves), over the (pre-percept, branch) cells."""
    tag, r = config.scenario.tag.value, config.scenario.r
    if tag == "random_percept":
        pre = {"c1": r, "c2": 1.0 - r}
    else:
        pre = {"distinct_percept": {"distinct": 1.0}, "fixed_c1": {"c1": 1.0}, "fixed_c2": {"c2": 1.0}}[tag]
    return sum(
        w_pre * w_post
        for percept, w_pre in pre.items()
        for branch_percept, w_post in (("c1", p_b1), ("c2", 1.0 - p_b1))
        if percept != branch_percept
    )


def expected_outcomes(config) -> dict:
    """Exact expected values of a run of ``config``, by quadrature and
    enumeration, never by sampling: per decision, the probability of a right
    guess on a ``definite`` input, on a ``superposition`` and by the
    ``device`` (None without it); and ``(E[Y], E[Y^2])`` of one copy's report
    time ``Y`` in each class (``time_definite``, ``time_superposition``).

    ``Y`` is ``max(t_p + J, 0)``, with ``J`` normal of SD ``jitter_sigma``,
    or ``max(T_c + t_p + J, 0)`` for a superposition under
    ``post_collapse_only``, whose percept never changes.  A copy fires the
    timing rule when ``Y`` passes the threshold, and the change rule when its
    pre-collapse percept differs from that of the branch it lands on: B1 with
    probability ``input_p1``, for diffusion ``(input_p1 - epsilon) / (1 - 2
    epsilon)``.  A batch fires when any copy does.  The superposition must
    collapse; diffusion under ``post_collapse_only`` is not covered.
    """
    rule = config.rule.kind.value
    timing = rule != "change_detection"
    change = rule != "timing_threshold"
    threshold = config.rule.threshold_time if timing else None
    n = config.rule.batch_n
    p1, epsilon = config.input_p1, config.collapse.epsilon
    p_b1 = band_absorption_probability(p1, epsilon) if config.collapse.model.value == "diffusion" else p1

    false_alarm, *time_definite = _clipped_report(config.observer.t_p, config.observer.jitter_sigma, threshold)
    if config.scenario.tag.value == "post_collapse_only":
        fire, *time_superposition = _after_collapse(config, threshold)
    else:
        aware = _change_probability(config, p_b1) if change else 0.0
        fire, time_superposition = 1.0 - (1.0 - false_alarm) * (1.0 - aware), time_definite
    return {
        "definite": 1.0 - batch_detection_enumeration(false_alarm, n),
        "superposition": batch_detection_enumeration(fire, n),
        "device": device_success_enumeration(config.priors, p1) if config.device_baseline else None,
        "time_definite": tuple(time_definite),
        "time_superposition": tuple(time_superposition),
    }


class RiggedRng:
    """Generator stand-in whose ``random(shape)`` replays fixed uniforms, in
    order; used to enumerate scenario branches through the real implementation."""

    def __init__(self, uniforms: tuple[float, ...] = ()):
        self._uniforms = list(uniforms)

    def random(self, shape) -> np.ndarray:
        return np.array([self._uniforms.pop(0) for _ in range(math.prod(shape))]).reshape(shape)
