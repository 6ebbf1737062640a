"""Small statistics helpers: Wilson proportion intervals and a two-cell
goodness-of-fit p-value.  Wilson is used for all reported proportions because
it stays sane at extreme rates and small counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Two-sided 95% normal quantile.
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes!r}")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # The endpoints are algebraically exact at the boundaries; pin them so
    # float rounding cannot push hi below an estimate of exactly 1 (or lo
    # above an estimate of exactly 0).
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class RateEstimate:
    """A proportion with its Wilson interval; ``estimate`` is None when no
    trials of the class were observed."""

    successes: int
    trials: int
    estimate: float | None
    lo: float | None
    hi: float | None

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "RateEstimate":
        if trials == 0:
            return cls(0, 0, None, None, None)
        lo, hi = wilson_interval(successes, trials)
        return cls(successes, trials, successes / trials, lo, hi)


def binomial_chi_square_pvalue(successes: int, trials: int, p: float) -> float:
    """Goodness-of-fit p-value for a two-cell table against Bernoulli(p).

    One degree of freedom, so the chi-square survival function reduces to
    ``erfc(sqrt(x / 2))``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    expected1 = trials * p
    expected2 = trials * (1.0 - p)
    failures = trials - successes
    x = (successes - expected1) ** 2 / expected1 + (failures - expected2) ** 2 / expected2
    return math.erfc(math.sqrt(x / 2.0))
