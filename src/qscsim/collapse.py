"""Stochastic collapse events for superposed inputs.

Three interchangeable collapse-time laws sit behind one interface,
:func:`sample_collapses`, which draws ``n`` independent collapses at once:

* ``JUMP_EXPONENTIAL``: the collapse instant is exponentially distributed
  with the configured mean; the outcome is drawn directly from the Born
  weights.  Minimal model of a finite, stochastic collapse time.
* ``DIFFUSION``: the branch-1 weight performs a driftless diffusion
  ``dw = gamma * w * (1 - w) * dW`` until it enters an absorbing band of
  half-width ``epsilon`` at either end.  The martingale form makes the
  absorption probabilities reproduce the Born weights (up to the small band
  correction), and the collapse time is the first-passage time.  It is
  sampled exactly, with no time step (see :func:`sample_collapses`).
* ``DETERMINISTIC_TIME``: collapse at exactly the mean time; zero-variance
  reference mode for exact tests.

All randomness flows through an explicit ``numpy.random.Generator`` so that
streams can be split reproducibly by the experiment harness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CalibrationError, FieldError, ModelMisuseError, check_field
from .stats import Z95

DEFAULT_EPSILON = 1e-3
DEFAULT_KAPPA = 1.0

#: Devroye's split point between the two series expansions of the J* density.
_J_TRUNC = 0.64


class CollapseModel(Enum):
    JUMP_EXPONENTIAL = "jump_exponential"
    DIFFUSION = "diffusion"
    DETERMINISTIC_TIME = "deterministic_time"


@dataclass(frozen=True)
class CollapseParams:
    """Collapse-law selector plus its numeric knobs.

    ``t_c_mean`` is the mean collapse time in seconds.  ``gamma`` (diffusion
    strength, 1/sqrt(s)) and ``epsilon`` (absorbing half-band) only drive the
    DIFFUSION model.

    An optional perception ``energy`` ties the mean collapse time to the
    inverse-energy relation ``t_c_mean = kappa / energy``; construction
    rejects inconsistent pairs.  Construction also rejects a non-finite or
    out-of-range field with a :class:`~qscsim.errors.FieldError` naming it.
    A diffusion ``gamma`` is not tied to ``t_c_mean`` here, since that needs
    the input weight; :class:`~qscsim.config.ExperimentConfig` checks the pair.
    """

    model: CollapseModel
    t_c_mean: float
    gamma: float | None = None
    epsilon: float = DEFAULT_EPSILON
    energy: float | None = None
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self) -> None:
        # energy and kappa first: a t_c_mean left unset is derived from them.
        if self.energy is not None:
            check_field("energy", self.energy, self.energy > 0.0, "> 0")
        check_field("kappa", self.kappa, self.kappa > 0.0, "> 0")
        check_field("t_c_mean", self.t_c_mean, self.t_c_mean > 0.0, "> 0")
        check_field("epsilon", self.epsilon, 0.0 < self.epsilon < 0.5, "in (0.0, 0.5)")
        if self.gamma is not None:
            check_field("gamma", self.gamma, self.gamma > 0.0, "> 0")
        elif self.model is CollapseModel.DIFFUSION:
            raise FieldError("gamma", "required for the diffusion model")
        if self.energy is not None:
            implied = self.kappa / self.energy
            if abs(self.t_c_mean - implied) > 1e-9 * self.t_c_mean:
                raise FieldError(
                    "energy", f"t_c_mean {self.t_c_mean!r} inconsistent with kappa/energy = {implied!r}"
                )


def t_c_from_energy(energy: float, kappa: float = DEFAULT_KAPPA) -> float:
    """Mean collapse time implied by a perception energy (inverse relation)."""
    if energy <= 0.0:
        raise ValueError(f"energy must be > 0, got {energy!r}")
    return kappa / energy


def sample_collapses(
    p1: float, params: CollapseParams | Sequence[CollapseParams], rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent collapses of an input with branch-1 weight ``p1``.

    Returns ``(times, hit_upper)``; ``hit_upper[i]`` is True when collapse
    ``i`` lands on branch B1.  The jump and deterministic models draw all
    ``n`` times, then ``n`` Born-outcome uniforms; a jump time is its mean
    times one standard exponential draw, which rounds as
    ``rng.exponential(t_c_mean, n)`` does.

    ``params`` may also be a sequence of P laws that share ``model`` and
    ``epsilon``.  All P are then evaluated on one set of draws, and
    ``times`` has shape ``(P, n)``: row ``i`` is in the time scale of
    ``params[i]`` (its ``t_c_mean``, or for diffusion its ``gamma``) and
    equals the times of a call with ``params[i]`` alone.  ``hit_upper``
    does not depend on the time scale and is shared.

    The diffusion model is sampled exactly by walk on intervals.  In
    ``x = logit(w)`` the weight obeys ``dx = gamma dW + (gamma^2/2)
    tanh(x/2) dt``, the Doob transform of Brownian motion with variance
    ``gamma^2`` by ``cosh(x/2)``, and the bands sit at ``+-L`` with
    ``L = logit(1 - epsilon)``.  From ``y`` a walker exits the interval
    ``y +- r``, ``r = L - |y|``, to the ``+`` side with probability
    ``cosh((y+r)/2) / (cosh((y+r)/2) + cosh((y-r)/2))``, which equals
    ``(1 + tanh(y/2) tanh(r/2)) / 2``, after a time ``(r/gamma)^2 J*(1, r/2)``
    independent of the side.  The step toward the nearer band ends on it,
    and the step away lands on ``y - sign(y) r`` for every survivor (from
    ``y = 0`` both steps end on a band), so all live walkers share one
    position and each step's ``r`` and J* constants are scalars.  Each step
    draws one side uniform per live walker, then their J* values, which
    every law of a sequence scales by its own ``(r/gamma)^2``.  A weight
    that starts inside a band has collapsed at time 0.

    Raises:
        ModelMisuseError: diffusion with ``p1`` in {0, 1} (the weight never
            moves, so there is nothing superposed to collapse).
    """
    single = isinstance(params, CollapseParams)
    laws = (params,) if single else tuple(params)
    if not laws:
        raise ValueError("need at least one collapse law")
    model, epsilon = laws[0].model, laws[0].epsilon
    if any(law.model is not model or law.epsilon != epsilon for law in laws):
        raise ValueError("collapse laws evaluated on one set of draws must share model and epsilon")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if model is not CollapseModel.DIFFUSION:
        t_c = np.array([law.t_c_mean for law in laws])[:, None]
        if model is CollapseModel.DETERMINISTIC_TIME:
            times = np.repeat(t_c, n, axis=1)
        else:
            times = t_c * rng.standard_exponential(n)
        hit_upper = rng.random(n) < p1
        return (times[0] if single else times), hit_upper
    if p1 == 0.0 or p1 == 1.0:
        raise ModelMisuseError("p1 in {0, 1} leaves no superposition to collapse")

    band = math.log1p(-epsilon) - math.log(epsilon)
    y = math.log(p1) - math.log1p(-p1)
    gammas = np.array([law.gamma for law in laws])
    times = np.zeros((len(laws), n))
    hit_upper = np.full(n, y > 0.0)
    live = np.arange(n if abs(y) < band else 0)
    while live.size:
        r = band - abs(y)
        up = rng.random(live.size) < 0.5 * (1.0 + np.tanh(0.5 * y) * np.tanh(0.5 * r))
        # A product, not ``** 2``: it rounds as numpy's array square does.
        scale = r / gammas
        times[:, live] += (scale * scale)[:, None] * _sample_j_star(0.5 * r, live.size, rng)
        away = ~up if y > 0.0 else up
        y_away = y - r if y > 0.0 else y + r
        # From y = 0 both steps end on a band; an away step that rounds onto
        # a band ends there too.
        if y == 0.0 or abs(y_away) >= band:
            hit_upper[live] = np.where(up, y + r > 0.0, y - r > 0.0)
            break
        hit_upper[live[~away]] = y > 0.0
        live = live[away]
        y = y_away
    return (times[0] if single else times), hit_upper


def _norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _j_star_term(n: int, x: np.ndarray, right: bool) -> np.ndarray:
    """Term ``a_n(x)`` of Devroye's alternating series for the J*(1, 0) density.

    ``right`` selects the form for ``x`` above the 0.64 cut, where the
    exponential proposal piece lives; the other form serves the truncated
    inverse Gaussian piece below it.
    """
    k = (n + 0.5) * math.pi
    if right:
        return k * np.exp(-0.5 * k * k * x)
    return np.exp(math.log(k) - 1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)


def _series_accepts(x: np.ndarray, u: np.ndarray, right: bool) -> np.ndarray:
    """Whether ``u * a_0(x)`` lies under the density, deciding each ``x`` by the
    first partial sum of the alternating series that brackets it."""
    s = _j_star_term(0, x, right)
    y = u * s
    accept = np.zeros(x.size, dtype=bool)
    open_ = np.arange(x.size)
    n = 0
    while open_.size:
        n += 1
        if n % 2:
            s[open_] -= _j_star_term(n, x[open_], right)
            decided = y[open_] <= s[open_]
            accept[open_[decided]] = True
        else:
            s[open_] += _j_star_term(n, x[open_], right)
            decided = y[open_] > s[open_]
        open_ = open_[~decided]
    return accept


def _sample_truncated_inverse_gaussian(z: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` inverse Gaussian draws with mean ``1/z`` and shape 1, truncated to (0, 0.64)."""
    t = _J_TRUNC
    out = np.empty(n)
    pending = np.arange(n)
    if z < 1.0 / t:
        # Mean beyond the cut: 1/chi^2_1 proposals below t, accepted with
        # probability exp(-z^2 x / 2).
        while pending.size:
            e1 = rng.standard_exponential(pending.size)
            e2 = rng.standard_exponential(pending.size)
            x = t / (1.0 + t * e1) ** 2
            ok = (e1 * e1 <= 2.0 * e2 / t) & (rng.random(pending.size) <= np.exp(-0.5 * (z * z) * x))
            out[pending[ok]] = x[ok]
            pending = pending[~ok]
        return out
    # Mean inside the cut: untruncated draws (Michael, Schucany & Haas),
    # rejected above t.
    mu = 1.0 / z
    while pending.size:
        y = rng.standard_normal(pending.size) ** 2
        x = mu + 0.5 * mu * mu * y - 0.5 * mu * np.sqrt(4.0 * mu * y + (mu * y) ** 2)
        x = np.where(rng.random(pending.size) > mu / (mu + x), mu * mu / x, x)
        ok = x <= t
        out[pending[ok]] = x[ok]
        pending = pending[~ok]
    return out


def _sample_j_star(z: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` exact draws of J*(1, z) for one ``z`` >= 0; the mean is ``tanh(z)/z``.

    J*(1, z) is the exit time of standard Brownian motion from (-1, 1),
    exponentially tilted by ``exp(-z^2 x / 2)``.  Devroye's (2009) sampler,
    as used for Polya-Gamma draws by Polson, Scott & Windle (2013): propose
    from an exponential piece right of 0.64 or a truncated inverse Gaussian
    left of it, and accept by evaluating the alternating series until it
    decides.  The acceptance rate exceeds 0.999.
    """
    t = _J_TRUNC
    k = 0.125 * math.pi**2 + 0.5 * z * z
    # Mass ratio q/p of the two proposal pieces, in logs: it overflows for
    # large z, where the second normal CDF also underflows to 0.
    with np.errstate(divide="ignore"):
        log_q_over_p = np.log(4.0 / math.pi * k) + k * t + np.logaddexp(
            -z + np.log(_norm_cdf((t * z - 1.0) / math.sqrt(t))),
            z + np.log(_norm_cdf(-(t * z + 1.0) / math.sqrt(t))),
        )
    p_right = np.exp(-np.logaddexp(0.0, log_q_over_p))

    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        right = rng.random(m) < p_right
        x = np.empty(m)
        n_right = int(right.sum())
        x[right] = t + rng.standard_exponential(n_right) / k
        x[~right] = _sample_truncated_inverse_gaussian(z, m - n_right, rng)
        u = rng.random(m)
        accept = np.empty(m, dtype=bool)
        accept[right] = _series_accepts(x[right], u[right], True)
        accept[~right] = _series_accepts(x[~right], u[~right], False)
        out[pending[accept]] = x[accept]
        pending = pending[~accept]
    return out


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
) -> Calibration:
    """Closed-form :func:`diffusion_gamma` checked by one exact ensemble of ``n_runs`` walkers.

    The ensemble draws from ``rng``.  Budget rule: its Monte Carlo error must
    satisfy ``3 * cv / sqrt(n_runs) <= tolerance``.

    Raises:
        CalibrationError: run budget too small for ``tolerance`` (naming the
            ``n_runs`` needed), or the ensemble's 95% CI lies entirely
            outside ``t_c_target * (1 +- tolerance)``.
    """
    gamma = diffusion_gamma(t_c_target, p1, epsilon)
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs!r}")
    params = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=t_c_target, gamma=gamma, epsilon=epsilon)
    times, _ = sample_collapses(p1, params, rng, n_runs)
    cal = Calibration(gamma, float(times.mean()), float(times.std(ddof=1)), n_runs)
    cv = cal.achieved_sd / cal.achieved_mean
    noise_floor = 3.0 * cv / math.sqrt(n_runs)
    if noise_floor > tolerance:
        needed = math.ceil((3.0 * cv / tolerance) ** 2)
        raise CalibrationError(
            f"run budget too small for tolerance {tolerance!r}: "
            f"3*cv/sqrt(n_runs) = {noise_floor:.4f}; need n_runs >= {needed}"
        )
    lo, hi = cal.ci95()
    if hi < t_c_target * (1.0 - tolerance) or lo > t_c_target * (1.0 + tolerance):
        raise CalibrationError(
            f"95% CI {cal.ci95()} of the mean first-passage time misses {t_c_target!r} "
            f"by more than tolerance {tolerance!r} at gamma {gamma!r}"
        )
    return cal

