"""Stochastic collapse events for superposed inputs.

Three interchangeable collapse-time laws sit behind one interface:

* ``JUMP_EXPONENTIAL``: the collapse instant is exponentially distributed
  with the configured mean; the outcome is drawn directly from the Born
  weights.  Minimal model of a finite, stochastic collapse time.
* ``DIFFUSION``: the branch-1 weight performs a driftless diffusion
  ``dw = gamma * w * (1 - w) * dW`` until it enters an absorbing band of
  half-width ``epsilon`` at either end.  The martingale form makes the
  absorption probabilities reproduce the Born weights (up to the small band
  correction), and the collapse time is the first-passage time.
* ``DETERMINISTIC_TIME``: collapse at exactly the mean time; zero-variance
  reference mode for exact tests.

All randomness flows through an explicit ``numpy.random.Generator`` so that
trial streams can be split reproducibly by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CalibrationError, CollapseTimeoutError, ModelMisuseError
from .states import Branch, InputKind, InputState, born_probability
from .stats import Z95

DEFAULT_EPSILON = 1e-3
#: Default integration step as a fraction of the mean collapse time.
DEFAULT_DT_FRACTION = 1e-4
DEFAULT_KAPPA = 1.0
#: Diffusion non-termination guard; exceeding it raises instead of truncating.
MAX_STEPS = 10**6

_NORMAL_BLOCK = 1024


class CollapseModel(Enum):
    JUMP_EXPONENTIAL = "jump_exponential"
    DIFFUSION = "diffusion"
    DETERMINISTIC_TIME = "deterministic_time"


@dataclass(frozen=True)
class CollapseParams:
    """Collapse-law selector plus its numeric knobs.

    ``t_c_mean`` is the mean collapse time in seconds.  ``gamma`` (diffusion
    strength, 1/sqrt(s)), ``epsilon`` (absorbing half-band) and ``dt``
    (integration step) only drive the DIFFUSION model; ``dt`` defaults to
    ``t_c_mean * 1e-4`` and must stay at or below ``t_c_mean / 100``.

    An optional perception ``energy`` ties the mean collapse time to the
    inverse-energy relation ``t_c_mean = kappa / energy``; construction
    rejects inconsistent pairs.
    """

    model: CollapseModel
    t_c_mean: float
    gamma: float | None = None
    epsilon: float = DEFAULT_EPSILON
    dt: float | None = None
    energy: float | None = None
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self) -> None:
        if self.t_c_mean <= 0.0:
            raise ValueError(f"t_c_mean must be > 0, got {self.t_c_mean!r}")
        if self.dt is None:
            object.__setattr__(self, "dt", self.t_c_mean * DEFAULT_DT_FRACTION)
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon!r}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if self.dt > self.t_c_mean / 100.0:
            raise ValueError(
                f"dt must be <= t_c_mean / 100 = {self.t_c_mean / 100.0!r}, got {self.dt!r}"
            )
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa!r}")
        if self.model is CollapseModel.DIFFUSION:
            if self.gamma is None or self.gamma <= 0.0:
                raise ValueError("diffusion model requires gamma > 0")
        if self.energy is not None:
            if self.energy <= 0.0:
                raise ValueError(f"energy must be > 0, got {self.energy!r}")
            implied = self.kappa / self.energy
            if abs(self.t_c_mean - implied) > 1e-9 * self.t_c_mean:
                raise ValueError(
                    f"t_c_mean {self.t_c_mean!r} inconsistent with kappa/energy = {implied!r}"
                )


def t_c_from_energy(energy: float, kappa: float = DEFAULT_KAPPA) -> float:
    """Mean collapse time implied by a perception energy (inverse relation)."""
    if energy <= 0.0:
        raise ValueError(f"energy must be > 0, got {energy!r}")
    return kappa / energy


@dataclass(frozen=True)
class CollapseEvent:
    """One collapse: instant, outcome branch, and (optionally) the weight path.

    The trajectory, when recorded, is a tuple of ``(time, branch-1 weight)``
    samples starting at the input weight and ending inside the absorbing band
    matching ``outcome``.
    """

    time: float
    outcome: Branch
    trajectory: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"collapse time must be >= 0, got {self.time!r}")
        if self.trajectory is not None:
            for _, w in self.trajectory:
                if not 0.0 <= w <= 1.0:
                    raise ValueError(f"trajectory weight {w!r} outside [0, 1]")


def sample_collapse_time(params: CollapseParams, rng: np.random.Generator) -> float:
    """Draw one collapse time from the configured law.

    Only the JUMP_EXPONENTIAL and DETERMINISTIC_TIME models have a closed
    sampling law; diffusion times arise from first passage and must come from
    :func:`simulate_diffusion_collapse`.
    """
    if params.model is CollapseModel.DIFFUSION:
        raise ModelMisuseError("diffusion collapse times come from first passage, not direct sampling")
    if params.model is CollapseModel.DETERMINISTIC_TIME:
        return params.t_c_mean
    return float(rng.exponential(params.t_c_mean))


def sample_collapse_times(params: CollapseParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized :func:`sample_collapse_time`; returns ``n`` draws."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if params.model is CollapseModel.DIFFUSION:
        raise ModelMisuseError("diffusion collapse times come from first passage, not direct sampling")
    if params.model is CollapseModel.DETERMINISTIC_TIME:
        return np.full(n, params.t_c_mean)
    return rng.exponential(params.t_c_mean, n)


def sample_outcome(p1: float, rng: np.random.Generator) -> Branch:
    """Draw the collapse outcome: B1 with probability ``p1``."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    return Branch.B1 if rng.random() < p1 else Branch.B2


def simulate_diffusion_collapse(
    p1: float,
    params: CollapseParams,
    rng: np.random.Generator,
    record_trajectory: bool = False,
) -> CollapseEvent:
    """Evolve the branch-1 weight by Euler-Maruyama until absorption.

    The update ``w += gamma * w * (1 - w) * sqrt(dt) * N(0, 1)`` (clamped to
    [0, 1]) is a martingale, so the probability of absorbing at the upper
    band is the Born weight ``p1`` up to the band correction.  Collapse is
    declared at the first step with ``w <= epsilon`` or ``w >= 1 - epsilon``;
    outcome is B1 at the upper band.

    Raises:
        ModelMisuseError: non-diffusion params, or ``p1`` in {0, 1} (nothing
            superposed to collapse).
        CollapseTimeoutError: no absorption within ``MAX_STEPS`` steps.
    """
    if params.model is not CollapseModel.DIFFUSION:
        raise ModelMisuseError(f"simulate_diffusion_collapse requires the diffusion model, got {params.model.value}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    if p1 == 0.0 or p1 == 1.0:
        raise ModelMisuseError("p1 in {0, 1} leaves no superposition to collapse")

    gamma = params.gamma
    dt = params.dt
    eps = params.epsilon
    sqrt_dt = math.sqrt(dt)
    w = p1
    t = 0.0
    path = [(0.0, w)] if record_trajectory else None

    # Normals are drawn in fixed-size blocks; unused tail draws are discarded,
    # which keeps the stream consumption deterministic for a given seed.
    steps = 0
    while True:
        block = rng.standard_normal(_NORMAL_BLOCK)
        for z in block:
            steps += 1
            w += gamma * w * (1.0 - w) * sqrt_dt * z
            w = 0.0 if w < 0.0 else (1.0 if w > 1.0 else w)
            t += dt
            if record_trajectory:
                path.append((t, w))
            if w <= eps or w >= 1.0 - eps:
                outcome = Branch.B1 if w >= 1.0 - eps else Branch.B2
                trajectory = tuple(path) if record_trajectory else None
                return CollapseEvent(time=t, outcome=outcome, trajectory=trajectory)
            if steps >= MAX_STEPS:
                raise CollapseTimeoutError(
                    f"no absorption after {MAX_STEPS} steps (w={w!r}); "
                    f"raise gamma or dt, or lower t_c_mean",
                    steps=steps,
                    p1=p1,
                    gamma=gamma,
                    dt=dt,
                    epsilon=eps,
                )


def simulate_diffusion_ensemble(
    p1: float,
    params: CollapseParams,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n`` independent first-passage walkers in lockstep.

    Returns ``(times, hit_upper)`` where ``hit_upper[i]`` is True when walker
    ``i`` absorbed at the branch-1 band.  Statistically equivalent to ``n``
    calls of :func:`simulate_diffusion_collapse` but vectorized; the two paths
    do not share a draw sequence.
    """
    if params.model is not CollapseModel.DIFFUSION:
        raise ModelMisuseError(f"simulate_diffusion_ensemble requires the diffusion model, got {params.model.value}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    if p1 == 0.0 or p1 == 1.0:
        raise ModelMisuseError("p1 in {0, 1} leaves no superposition to collapse")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")

    gamma = params.gamma
    dt = params.dt
    eps = params.epsilon
    sqrt_dt = math.sqrt(dt)

    w = np.full(n, p1)
    t = 0.0
    idx = np.arange(n)
    times = np.empty(n)
    hit_upper = np.empty(n, dtype=bool)

    steps = 0
    while idx.size:
        steps += 1
        if steps > MAX_STEPS:
            raise CollapseTimeoutError(
                f"{idx.size} of {n} walkers unabsorbed after {MAX_STEPS} steps; "
                f"raise gamma or dt, or lower t_c_mean",
                steps=steps,
                p1=p1,
                gamma=gamma,
                dt=dt,
                epsilon=eps,
            )
        w += gamma * w * (1.0 - w) * sqrt_dt * rng.standard_normal(w.size)
        np.clip(w, 0.0, 1.0, out=w)
        t += dt
        done = (w <= eps) | (w >= 1.0 - eps)
        if done.any():
            times[idx[done]] = t
            hit_upper[idx[done]] = w[done] >= 1.0 - eps
            keep = ~done
            w = w[keep]
            idx = idx[keep]
    return times, hit_upper


@dataclass(frozen=True)
class Calibration:
    """A diffusion strength and the first-passage times of ``n_runs`` walkers at it."""

    gamma: float
    achieved_mean: float
    achieved_sd: float
    n_runs: int

    def ci95(self) -> tuple[float, float]:
        half = Z95 * self.achieved_sd / math.sqrt(self.n_runs)
        return self.achieved_mean - half, self.achieved_mean + half


def diffusion_gamma(t_c_mean: float, p1: float, epsilon: float) -> float:
    """Diffusion strength whose exact mean first-passage time from ``p1`` is ``t_c_mean``.

    Solving (1/2) gamma^2 w^2 (1-w)^2 u'' = -1 with u = 0 at the bands gives
    T(p1) = (2/gamma^2) [(1-2e) ln((1-e)/e) - (2 p1 - 1) ln(p1/(1-p1))].
    Euler-Maruyama at step ``dt`` adds its discretization and overshoot bias.
    """
    if not t_c_mean > 0.0:
        raise ValueError(f"t_c_mean must be > 0, got {t_c_mean!r}")
    if not 0.0 < epsilon < p1 < 1.0 - epsilon:
        raise ValueError(f"need 0 < epsilon < p1 < 1 - epsilon, got epsilon={epsilon!r}, p1={p1!r}")
    bracket = (1.0 - 2.0 * epsilon) * math.log((1.0 - epsilon) / epsilon)
    bracket -= (2.0 * p1 - 1.0) * math.log(p1 / (1.0 - p1))
    return math.sqrt(2.0 * bracket / t_c_mean)


def calibrate_gamma(
    t_c_target: float,
    p1: float,
    epsilon: float,
    tolerance: float,
    rng: np.random.Generator,
    *,
    n_runs: int = 8192,
    dt: float | None = None,
) -> Calibration:
    """Closed-form :func:`diffusion_gamma` checked by one ensemble of ``n_runs`` walkers.

    The ensemble runs at step ``dt`` (default ``t_c_target * 1e-4``, the
    default step rule of :class:`CollapseParams`) from a seed drawn from
    ``rng``.  Budget rule: its Monte Carlo error must satisfy
    ``3 * cv / sqrt(n_runs) <= tolerance``.  Coarse steps bias the mean low
    (about -12% at ``dt = t_c_target / 100``): when the ensemble's 95% CI lies
    entirely outside ``t_c_target * (1 +- tolerance)``, gamma is rescaled once
    by the exact ``1/gamma^2`` law and verified on a second ensemble.

    Raises:
        CalibrationError: run budget too small for ``tolerance`` (naming the
            ``n_runs`` needed), or the CI still misses after the rescale.
    """
    gamma = diffusion_gamma(t_c_target, p1, epsilon)
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs!r}")
    if dt is None:
        dt = t_c_target * DEFAULT_DT_FRACTION

    def verify(gamma: float) -> tuple[Calibration, bool]:
        params = CollapseParams(
            model=CollapseModel.DIFFUSION, t_c_mean=t_c_target, gamma=gamma, epsilon=epsilon, dt=dt
        )
        times, _ = simulate_diffusion_ensemble(p1, params, np.random.default_rng(int(rng.integers(2**63))), n_runs)
        cal = Calibration(gamma, float(times.mean()), float(times.std(ddof=1)), n_runs)
        lo, hi = cal.ci95()
        return cal, hi < t_c_target * (1.0 - tolerance) or lo > t_c_target * (1.0 + tolerance)

    cal, misses = verify(gamma)
    cv = cal.achieved_sd / cal.achieved_mean
    noise_floor = 3.0 * cv / math.sqrt(n_runs)
    if noise_floor > tolerance:
        needed = math.ceil((3.0 * cv / tolerance) ** 2)
        raise CalibrationError(
            f"run budget too small for tolerance {tolerance!r}: "
            f"3*cv/sqrt(n_runs) = {noise_floor:.4f}; need n_runs >= {needed}"
        )
    if misses:
        cal, misses = verify(gamma * math.sqrt(cal.achieved_mean / t_c_target))
        if misses:
            raise CalibrationError(
                f"95% CI {cal.ci95()} of the mean first-passage time misses {t_c_target!r} "
                f"by more than tolerance {tolerance!r} after rescaling gamma to {cal.gamma!r}; lower dt"
            )
    return cal


def collapse_for_input(
    state: InputState, params: CollapseParams, rng: np.random.Generator
) -> CollapseEvent | None:
    """Collapse event for one prepared input, or None for a definite input.

    A definite input involves no superposition, hence no collapse wait.  For
    superposed inputs the jump and deterministic models draw the collapse
    time first and the Born outcome second; the diffusion model gets both
    from one first-passage run.
    """
    if state.kind is InputKind.DEFINITE:
        return None
    p1 = born_probability(state)
    if params.model is CollapseModel.DIFFUSION:
        return simulate_diffusion_collapse(p1, params, rng)
    time = sample_collapse_time(params, rng)
    outcome = sample_outcome(p1, rng)
    return CollapseEvent(time=time, outcome=outcome)
