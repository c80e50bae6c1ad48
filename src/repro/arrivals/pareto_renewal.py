"""The i.i.d.-Pareto renewal process of Appendix C.

Appendix C studies arrivals whose interarrival times are i.i.d. Pareto with
shape beta <~ 1 and shows the associated count process is
"pseudo-self-similar": over finite time scales it displays the balance of
bursts and lulls of a self-similar process (Figs. 14 and 15), even though in
the limit it is not long-range dependent.

The analytical skeleton implemented here:

* partition time into bins of width ``b``; a bin is *occupied* if it receives
  at least one arrival, *empty* otherwise;
* a *burst* is a maximal run of occupied bins, a *lull* a maximal run of
  empty bins;
* the per-interarrival probability of terminating a burst is bounded by
  (a/2b)^beta <= p_t <= (a/b)^beta  (eq. 3);
* expected burst length B ~ b/a (beta=2), ~ log(b/a) (beta=1), constant
  (beta=1/2);
* lull lengths measured *in bins* are stochastically invariant in ``b``
  (truncation-from-below invariance of the Pareto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.distributions.pareto import Pareto
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require_count, require_positive


#: Interarrivals per frozen block of :func:`pareto_renewal_counts`.  Each
#: block's cumulative sum starts from zero and is offset by the arrival time
#: at the end of the previous block, so the block grid fixes the float
#: additions — changing it changes the counts.
RENEWAL_BLOCK = 1 << 20
#: First sub-chunk drawn within a block; later ones grow by
#: ``SUBCHUNK_GROWTH`` so a window that ends early in a block stops drawing
#: soon after it.  Sub-chunks do not change the counts.
FIRST_SUBCHUNK = 1 << 12
SUBCHUNK_GROWTH = 4


def pareto_renewal_arrivals(
    n: int,
    shape: float,
    location: float = 1.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Cumulative arrival times of ``n`` i.i.d. Pareto interarrivals."""
    require_count(n, "n")
    times = Pareto(location, shape).sample(n, seed=seed)
    return np.cumsum(times, out=times)


def pareto_renewal_counts(
    n_bins: int,
    bin_width: float,
    shape: float,
    location: float = 1.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Count process {X_i}: arrivals per bin, for ``n_bins`` bins of width b.

    Generates interarrivals lazily until the observation window
    ``n_bins * bin_width`` is covered, so enormous bins (Fig. 15 uses
    b = 10^7, hundreds of millions of arrivals) stay tractable.

    The counts are bit-identical to sampling each ``RENEWAL_BLOCK`` block
    whole, cumsumming it, adding the previous block's last arrival time and
    binning the arrivals ``x < n_bins * bin_width`` at ``int(x / b)``.
    What differs is how much of the generator is consumed: drawing stops
    within a few sub-chunks of the window's end, so a generator passed in
    is left in a different state than the whole-block loop left it.  Pass
    a fresh (e.g. spawned) generator per call, as every caller in the
    package does, and no output depends on that state.
    """
    n_bins = require_count(n_bins, "n_bins")
    require_positive(bin_width, "bin_width")
    horizon = float(n_bins * bin_width)
    if not math.isfinite(horizon):
        raise ValueError(f"n_bins * bin_width must be finite, got "
                         f"{n_bins} * {bin_width!r}")
    bin_width = float(bin_width)
    rng = as_rng(seed)
    dist = Pareto(location, shape)

    counts = np.zeros(n_bins, dtype=np.int64)
    t = 0.0  # arrival time at the end of the previous block
    while t < horizon:
        carry = 0.0  # running sum of the interarrivals drawn in this block
        drawn = 0
        size = FIRST_SUBCHUNK
        while drawn < RENEWAL_BLOCK:
            size = min(size, RENEWAL_BLOCK - drawn)
            cum = dist.sample(size, seed=rng)
            cum[0] += carry
            np.cumsum(cum, out=cum)
            carry = float(cum[-1])
            cum += t
            # Arrivals are sorted, so the window is a prefix of the chunk.
            inside = int(np.searchsorted(cum, horizon))
            if inside:
                _add_sorted_bin_counts(counts, cum[:inside], bin_width)
            if inside < size:
                return counts
            drawn += size
            size *= SUBCHUNK_GROWTH
        t = float(cum[-1])
    return counts


def _add_sorted_bin_counts(counts: np.ndarray, x: np.ndarray,
                           bin_width: float) -> None:
    """Add the histogram of sorted, nonnegative ``x`` at ``int(x / b)``.

    Bin indices past the end are clamped into the last bin: ``x`` strictly
    inside ``n * b`` can still divide to ``n`` within an ulp of the top.
    Bin edges become ``searchsorted`` positions of ``k * b``; ``x < k * b``
    and ``int(x / b) >= k`` disagree within an ulp or two of the edge, so
    any position where they do is moved across equal values until it
    matches the division.
    """
    last = counts.size - 1
    first_bin = min(int(x[0] / bin_width), last)
    last_bin = min(int(x[-1] / bin_width), last)
    if first_bin == last_bin:
        counts[first_bin] += x.size
        return
    ks = np.arange(first_bin + 1, last_bin + 1)
    pos = np.searchsorted(x, ks * bin_width)
    below = (x[np.maximum(pos - 1, 0)] / bin_width).astype(np.int64)
    above = (x[np.minimum(pos, x.size - 1)] / bin_width).astype(np.int64)
    bad = ((pos > 0) & (below >= ks)) | ((pos < x.size) & (above < ks))
    for j in np.flatnonzero(bad):
        k, p = ks[j], pos[j]
        while p < x.size and int(x[p] / bin_width) < k:
            p = np.searchsorted(x, x[p], side="right")
        while p > 0 and int(x[p - 1] / bin_width) >= k:
            p = np.searchsorted(x, x[p - 1], side="left")
        pos[j] = p
    counts[first_bin:last_bin + 1] += np.diff(pos, prepend=0, append=x.size)


# ----------------------------------------------------------------------
# Burst / lull structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstLullSummary:
    """Run-length statistics of a binned count process (Appendix C)."""

    burst_lengths: np.ndarray  # lengths (in bins) of maximal occupied runs
    lull_lengths: np.ndarray  # lengths (in bins) of maximal empty runs

    @property
    def mean_burst(self) -> float:
        return float(self.burst_lengths.mean()) if self.burst_lengths.size else 0.0

    @property
    def mean_lull(self) -> float:
        return float(self.lull_lengths.mean()) if self.lull_lengths.size else 0.0

    @property
    def occupied_fraction(self) -> float:
        total = self.burst_lengths.sum() + self.lull_lengths.sum()
        if total == 0:
            return 0.0
        return float(self.burst_lengths.sum() / total)


def burst_lull_summary(counts: np.ndarray) -> BurstLullSummary:
    """Decompose a count process into alternating bursts and lulls.

    A bin is occupied if its count is > 0.  Runs are maximal; the sequence of
    run lengths partitions the series.
    """
    occ = np.asarray(counts) > 0
    if occ.size == 0:
        return BurstLullSummary(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    # Boundaries where occupancy flips.
    change = np.flatnonzero(np.diff(occ.astype(np.int8)) != 0)
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [occ.size]])
    lengths = ends - starts
    kinds = occ[starts]
    return BurstLullSummary(
        burst_lengths=lengths[kinds].astype(int),
        lull_lengths=lengths[~kinds].astype(int),
    )


# ----------------------------------------------------------------------
# Appendix C closed forms
# ----------------------------------------------------------------------
def burst_termination_bounds(bin_width: float, location: float, shape: float) -> tuple[float, float]:
    """Bounds (eq. 3) on the probability an interarrival ends a burst.

    An interarrival > 2b always skips a bin (ends the burst); one > b may.
    Hence  P[I > 2b] <= p_t <= P[I > b], i.e.
    (a/2b)^beta <= p_t <= (a/b)^beta   (for b >= a).
    """
    require_positive(bin_width, "bin_width")
    d = Pareto(location, shape)
    lower = float(d.sf(np.asarray(2.0 * bin_width)))
    upper = float(d.sf(np.asarray(bin_width)))
    return lower, upper


def expected_burst_length(bin_width: float, location: float, shape: float) -> float:
    """Appendix C's approximation of the expected burst length (in bins).

    B ~= b/a for beta = 2 (b >> a); ~= log(b/a) for beta = 1 (b > a);
    ~= E[1/u^(1/2)] = 2 (a constant) for beta = 1/2.  For other shapes we
    return the geometric-variable estimate 1/p_t at the midpoint of the
    eq.-3 bounds — adequate for the qualitative scaling comparisons the
    paper draws.
    """
    require_positive(bin_width, "bin_width")
    b, a = bin_width, location
    if b <= a:
        return 1.0
    if abs(shape - 2.0) < 1e-9:
        return b / a
    if abs(shape - 1.0) < 1e-9:
        return math.log(b / a)
    if abs(shape - 0.5) < 1e-9:
        return 2.0
    lower, upper = burst_termination_bounds(b, a, shape)
    mid = 0.5 * (lower + upper)
    return 1.0 / mid if mid > 0 else math.inf


def lull_length_bounds(bin_width: float, location: float, shape: float) -> tuple[Pareto, Pareto]:
    """Stochastic bounds on the lull length L (in seconds).

    Every lull is produced by a single interarrival > b (definitely) and
    possibly > 2b, so L is stochastically bounded between Pareto(b, beta)
    and Pareto(2b, beta); dividing by b, the lull measured in *bins* is
    bounded between Pareto(1, beta) and Pareto(2, beta) — independent of b.
    """
    require_positive(bin_width, "bin_width")
    d = Pareto(location, shape)
    lo = d.truncated_from_below(bin_width)
    hi = d.truncated_from_below(2.0 * bin_width)
    return lo, hi


def steady_state_empty_probability(shape: float) -> float:
    """Appendix C's limit: for beta <= 1 every bin is eventually empty a.s.

    With infinite-mean lulls and finite-mean bursts, the alternating renewal
    process spends asymptotically all its time in lulls, so in steady state
    P[bin occupied] -> 0; for beta > 1 the probability is strictly positive.
    """
    require_positive(shape, "shape")
    return 0.0 if shape <= 1.0 else float("nan")
