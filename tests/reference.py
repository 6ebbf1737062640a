"""A per-walker reference for the exact diffusion sampler.

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

import numpy as np

from qscsim.collapse import CollapseParams


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
