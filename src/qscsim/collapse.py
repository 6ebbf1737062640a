"""Stochastic collapse events for superposed inputs.

Three interchangeable collapse-time laws sit behind one interface,
:func:`draw_collapses`, which draws ``n`` independent collapses at once:

* ``JUMP_EXPONENTIAL``: the collapse instant is exponentially distributed
  with the configured mean; the outcome is drawn directly from the Born
  weights.  Minimal model of a finite, stochastic collapse time.
* ``DIFFUSION``: the branch-1 weight performs a driftless diffusion
  ``dw = gamma * w * (1 - w) * dW`` until it enters an absorbing band of
  half-width ``epsilon`` at either end.  The martingale form makes the
  absorption probabilities reproduce the Born weights (up to the small band
  correction), and the collapse time is the first-passage time.  It is
  sampled exactly, with no time step (see :func:`draw_collapses`).
* ``DETERMINISTIC_TIME``: collapse at exactly the mean time; zero-variance
  reference mode for exact tests.

All randomness flows through an explicit ``numpy.random.Generator`` so that
streams can be split reproducibly by the experiment harness.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FieldError, check_field, check_time

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
    DIFFUSION model: it requires ``epsilon``, and the other models refuse
    either field unless it is None.

    Construction rejects a non-finite, out-of-range or unread field with a
    :class:`~qscsim.errors.FieldError` naming it.  Whether a diffusion
    ``gamma`` is needed, and its tie to ``t_c_mean``, depend on the input
    weight, so :class:`~qscsim.config.ExperimentConfig` checks them; here
    ``gamma`` may be None.
    """

    model: CollapseModel = field(metadata={"json": CollapseModel.JUMP_EXPONENTIAL, "draws": True})
    t_c_mean: float = field(metadata={"json": 180.0, "sweep": True})
    gamma: float | None = None
    epsilon: float | None = field(default=None, metadata={"sweep": True, "draws": True})

    def __post_init__(self) -> None:
        check_time("t_c_mean", self.t_c_mean, self.t_c_mean > 0.0, "> 0")
        if self.epsilon is not None:
            check_field("epsilon", self.epsilon, 0.0 < self.epsilon < 0.5, "in (0.0, 0.5)")
        elif self.model is CollapseModel.DIFFUSION:
            raise FieldError("epsilon", "required for diffusion")
        if self.gamma is not None:
            check_field("gamma", self.gamma, self.gamma > 0.0, "> 0")
        for name in ("gamma", "epsilon"):
            if self.model is not CollapseModel.DIFFUSION and getattr(self, name) is not None:
                raise FieldError(name, "only meaningful for diffusion")


def draw_collapses(
    p1: float, model: CollapseModel, epsilon: float | None, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, Callable[[Sequence[CollapseParams]], np.ndarray]]:
    """Draw ``n`` independent collapses of an input with branch-1 weight ``p1``.

    Returns ``(hit_upper, times)``: ``hit_upper[i]`` is True when collapse
    ``i`` lands on branch B1, and ``times(laws)``, which draws nothing,
    gives the ``(P, n)`` times of laws of this ``model`` and ``epsilon``,
    row ``i`` in the scale of ``laws[i]`` (``t_c_mean``, or ``gamma``).  The
    jump model draws ``n`` standard exponentials, then ``n`` Born-outcome
    uniforms (the deterministic model only the uniforms); a jump time is
    its mean times its exponential, rounding as ``rng.exponential`` does.

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
    draws one side uniform per live walker, then their J* values, and is
    kept; ``times`` replays the steps, scaling each by every law's own
    ``(r/gamma)^2``.  A weight that does not start :func:`between_bands`,
    ``p1`` 0 and 1 included, has collapsed at time 0 on the nearer band
    (``hit_upper`` is ``p1 > 0.5``) and draws nothing.

    Raises:
        ValueError: ``p1`` outside [0, 1] or ``n`` < 0; from ``times``, a
            law with ``gamma`` None when the diffusion walks.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if model is not CollapseModel.DIFFUSION:
        unit = rng.standard_exponential(n) if model is CollapseModel.JUMP_EXPONENTIAL else None

        def scaled_times(laws: Sequence[CollapseParams]) -> np.ndarray:
            t_c = np.array([law.t_c_mean for law in laws])[:, None]
            return np.repeat(t_c, n, axis=1) if unit is None else t_c * unit

        return rng.random(n) < p1, scaled_times

    hit_upper = np.full(n, p1 > 0.5)
    steps = []
    if n and between_bands(p1, epsilon):
        y, band = _logit_start(p1, epsilon)
        live = np.arange(n)
        while live.size:
            r = band - abs(y)
            up = rng.random(live.size) < 0.5 * (1.0 + np.tanh(0.5 * y) * np.tanh(0.5 * r))
            steps.append((live, r, _sample_j_star(0.5 * r, live.size, rng)))
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

    def walk_times(laws: Sequence[CollapseParams]) -> np.ndarray:
        if steps and any(law.gamma is None for law in laws):
            raise ValueError(f"gamma is required for diffusion from p1 {p1!r}, which starts between the bands")
        times, gammas = np.zeros((len(laws), n)), np.array([law.gamma for law in laws])
        for live, r, j_star in steps:
            # A product, not ``** 2``: it rounds as numpy's array square does.
            scale = r / gammas
            times[:, live] += (scale * scale)[:, None] * j_star
        return times

    return hit_upper, walk_times


def sample_collapses(p1: float, params: CollapseParams, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(times, hit_upper)`` of ``n`` collapses under ``params``, from :func:`draw_collapses`."""
    hit_upper, times = draw_collapses(p1, params.model, params.epsilon, rng, n)
    return times([params])[0], hit_upper


def _logit_start(p1: float, epsilon: float) -> tuple[float, float]:
    """A walk's start ``logit(p1)`` and its band ``logit(1 - epsilon)``."""
    return math.log(p1) - math.log1p(-p1), math.log1p(-epsilon) - math.log(epsilon)


def _passage_bracket(p1: float, epsilon: float) -> float:
    """The bracket ``gamma^2 T(p1) / 2`` of :func:`diffusion_gamma`."""
    bracket = (1.0 - 2.0 * epsilon) * math.log((1.0 - epsilon) / epsilon)
    return bracket - (2.0 * p1 - 1.0) * math.log(p1 / (1.0 - p1))


def between_bands(p1: float, epsilon: float) -> bool:
    """Whether a diffusion from branch-1 weight ``p1`` walks, and so needs a ``gamma``.

    It needs ``epsilon < p1 < 1 - epsilon``, a start inside the bands in
    ``x = logit(w)`` and a positive closed form in :func:`diffusion_gamma`;
    they differ only within rounding of a band, where a start has collapsed.
    """
    if not epsilon < p1 < 1.0 - epsilon:
        return False
    y, band = _logit_start(p1, epsilon)
    return abs(y) < band and _passage_bracket(p1, epsilon) > 0.0


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


def diffusion_gamma(t_c_mean: float, p1: float, epsilon: float) -> float:
    """Diffusion strength whose exact mean first-passage time from ``p1`` is ``t_c_mean``.

    Solving (1/2) gamma^2 w^2 (1-w)^2 u'' = -1 with u = 0 at the bands gives
    T(p1) = (2/gamma^2) [(1-2e) ln((1-e)/e) - (2 p1 - 1) ln(p1/(1-p1))].
    ``p1`` must start :func:`between_bands`, which keeps the bracket positive,
    and ``t_c_mean`` must be finite and large enough that ``gamma`` is finite.
    """
    if not 0.0 < t_c_mean < math.inf:
        raise ValueError(f"t_c_mean must be finite and > 0, got {t_c_mean!r}")
    if not (0.0 < epsilon and between_bands(p1, epsilon)):
        raise ValueError(f"need 0 < epsilon < p1 < 1 - epsilon, got epsilon={epsilon!r}, p1={p1!r}")
    gamma = math.sqrt(2.0 * _passage_bracket(p1, epsilon) / t_c_mean)
    if math.isinf(gamma):
        raise ValueError(f"t_c_mean {t_c_mean!r} is too small: the closed-form gamma overflows")
    return gamma
