"""The classical Pareto distribution (Appendix B).

The Pareto is the paper's workhorse heavy tail: TELNET packet interarrivals
(body beta ~= 0.9, upper-3% tail beta ~= 0.95), FTPDATA burst sizes
(0.9 <= beta <= 1.4), connections per burst, and the i.i.d.-Pareto renewal
process of Appendix C all use it.  With shape beta <= 1 the mean is infinite;
with beta <= 2 the variance is infinite.

CDF:  F(x) = 1 - (a / x)^beta   for x >= a,
PDF:  f(x) = beta * a^beta * x^(-beta-1).

Appendix B properties implemented here:

* conditional mean exceedance CMEX(x) = x / (beta - 1) for beta > 1
  (linear and increasing — the signature of a heavy tail);
* invariance under truncation from below: X | X > x0 is again Pareto with
  the same shape and location x0 (eq. (2) in the paper).
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require_positive


class Pareto(Distribution):
    """Classical (type I) Pareto with location ``a`` and shape ``beta``."""

    name = "pareto"

    def __init__(self, location: float, shape: float):
        self.location = require_positive(location, "location")
        self.shape = require_positive(shape, "shape")

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.location / (self.shape - 1.0)

    @property
    def variance(self) -> float:
        if self.shape <= 2.0:
            return math.inf
        b, a = self.shape, self.location
        return (a**2 * b) / ((b - 1.0) ** 2 * (b - 2.0))

    # ------------------------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        ok = x >= self.location
        out[ok] = self.shape * self.location**self.shape * x[ok] ** (-self.shape - 1.0)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        ok = x >= self.location
        out[ok] = 1.0 - (self.location / x[ok]) ** self.shape
        return out

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        ok = x >= self.location
        out[ok] = (self.location / x[ok]) ** self.shape
        return out

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(~((q >= 0) & (q <= 1))):  # rejects NaN too
            raise ValueError("quantiles must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            return self.location * (1.0 - q) ** (-1.0 / self.shape)

    def sample(self, size, seed: SeedLike = None) -> np.ndarray:
        rng = as_rng(seed)
        # Inverse transform on 1-U (strictly positive) avoids the q=1 pole.
        u = rng.random(size)
        if size is None:
            return self.location * np.power(u, -1.0 / self.shape)
        # In place: one buffer instead of three for the multi-million
        # draws of the Appendix C renewal counts.
        np.power(u, -1.0 / self.shape, out=u)
        u *= self.location
        return u

    # ------------------------------------------------------------------
    def cmex(self, x: float, **_ignored) -> float:
        """E[X - x | X > x] = x / (beta - 1) for beta > 1, else infinite."""
        x = max(float(x), self.location)
        if self.shape <= 1.0:
            return math.inf
        return x / (self.shape - 1.0)

    def truncated_from_below(self, x0: float) -> "Pareto":
        """The distribution of X | X > x0 — another Pareto, same shape.

        This is the 'invariance under truncation from below' property the
        paper uses in Appendix C to show the distribution of lull lengths is
        invariant in the bin width b.
        """
        if x0 < self.location:
            return Pareto(self.location, self.shape)
        return Pareto(x0, self.shape)

    def truncated_mean(self, upper: float) -> float:
        """Mean of the Pareto truncated (censored) to [location, upper].

        Finite even when beta <= 1; used to reason about finite-sample
        behaviour of the infinite-mean regimes.
        """
        a, b = self.location, self.shape
        require_positive(upper - a, "upper - location")
        if abs(b - 1.0) < 1e-12:
            body = a * math.log(upper / a)
        else:
            body = (b * a**b) * (upper ** (1.0 - b) - a ** (1.0 - b)) / (1.0 - b)
        # Mass beyond `upper` is placed at `upper` (censoring).
        return body + upper * (a / upper) ** b

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, samples, location: float | None = None) -> "Pareto":
        """Maximum-likelihood fit.

        With known ``location`` a, the MLE of the shape is
        beta_hat = n / sum(log(x_i / a)).  If ``location`` is omitted it is
        estimated by the sample minimum (its MLE).
        """
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot fit a Pareto to an empty sample")
        a = float(arr.min()) if location is None else float(location)
        require_positive(a, "location")
        if np.any(arr < a):
            raise ValueError("samples below the location parameter")
        logs = np.log(arr / a)
        total = float(np.sum(logs))
        if total <= 0:
            raise ValueError("degenerate sample: all values equal the location")
        return cls(a, arr.size / total)


def hill_estimator(samples, k: int) -> float:
    """Hill estimator of the Pareto tail index from the k largest order stats.

    Returns beta_hat = k / sum_{i=1..k} log(X_(n-i+1) / X_(n-k)).  The paper
    fits Pareto shapes to the upper tails of interarrival and burst-size
    distributions; the Hill estimator is the standard tool for that.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n (= {n}), got {k}")
    threshold = arr[n - k - 1]
    if threshold <= 0:
        raise ValueError("Hill estimator requires a positive tail threshold")
    tail = arr[n - k:]
    logs = np.log(tail / threshold)
    total = float(np.sum(logs))
    if total <= 0:
        raise ValueError("degenerate upper tail")
    return k / total


def tail_fit(samples, tail_fraction: float = 0.05) -> Pareto:
    """Fit a Pareto to the upper ``tail_fraction`` of a sample.

    Mirrors the paper's practice of fitting e.g. the 'upper 5% tail' of the
    FTPDATA burst-size distribution (Section VI) or the 'upper 3% tail' of
    the TELNET interarrival distribution (Section IV).
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    k = max(2, int(math.floor(n * tail_fraction)))
    if k >= n:
        raise ValueError("tail fraction leaves no body below the threshold")
    shape = hill_estimator(arr, k)
    location = float(arr[n - k - 1])
    return Pareto(location, shape)
