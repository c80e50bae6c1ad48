"""Heavy-tailed ON/OFF sources (Section VII-B, after Willinger et al. [28]).

The first of the paper's two constructions known to yield self-similar
traffic: multiplex many sources that alternate between an ON state (emitting
at a fixed rate) and an OFF state (silent), with ON and/or OFF period lengths
drawn from a heavy-tailed (infinite-variance) distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.pareto import Pareto
from repro.utils.rng import SeedLike, as_rng, spawn_rngs
from repro.utils.validation import require_count, require_positive

#: Periods drawn per vectorized block in :meth:`OnOffSource.intervals`.
#: Must be even so each block begins in the same phase it would have under
#: the scalar one-period-at-a-time walk.
PERIOD_BLOCK = 16


@dataclass(frozen=True)
class OnOffSource:
    """A single fluid ON/OFF source.

    Parameters
    ----------
    on_dist, off_dist:
        Distributions of ON and OFF period lengths (seconds).  Self-similar
        aggregate traffic requires at least one of them heavy-tailed with
        infinite variance (e.g. ``Pareto(shape < 2)``).
    rate:
        Emission rate (events/second) while ON.
    """

    on_dist: Distribution
    off_dist: Distribution
    rate: float = 1.0

    def __post_init__(self):
        require_positive(self.rate, "rate")

    @classmethod
    def pareto(
        cls,
        on_shape: float = 1.2,
        off_shape: float = 1.2,
        on_location: float = 1.0,
        off_location: float = 1.0,
        rate: float = 1.0,
    ) -> "OnOffSource":
        """The canonical construction: Pareto ON and OFF periods."""
        return cls(Pareto(on_location, on_shape), Pareto(off_location, off_shape), rate)

    def intervals(self, duration: float, seed: SeedLike = None, start_on: bool | None = None):
        """Return (start, end) ON intervals covering [0, duration).

        Periods are drawn in blocks of :data:`PERIOD_BLOCK` (half from the
        current phase's distribution, half from the other, then interleaved)
        instead of one ``sample(1)`` call per period; the period boundaries
        come from one sequential ``cumsum`` per block, bit-identical to a
        scalar ``t += length`` walk over the same variates.
        """
        require_positive(duration, "duration")
        rng = as_rng(seed)
        on = bool(rng.random() < 0.5) if start_on is None else start_on
        t = 0.0
        out = []
        block = PERIOD_BLOCK  # even, so each block starts in the same phase
        while t < duration:
            cur = (self.on_dist if on else self.off_dist).sample(
                block // 2, seed=rng
            )
            oth = (self.off_dist if on else self.on_dist).sample(
                block // 2, seed=rng
            )
            lengths = np.empty(block)
            lengths[0::2] = cur
            lengths[1::2] = oth
            bounds = np.cumsum(np.concatenate(([t], lengths)))
            starts, ends = bounds[:-1], bounds[1:]
            # starts is non-decreasing, so "still inside the horizon" is a
            # prefix of the block
            n_live = int(np.count_nonzero(starts < duration))
            phase_on = np.zeros(block, dtype=bool)
            phase_on[(0 if on else 1)::2] = True
            for i in np.flatnonzero(phase_on[:n_live]):
                out.append((float(starts[i]), min(float(ends[i]), duration)))
            if n_live < block:
                break
            t = float(bounds[-1])
        return out

    def counts(
        self, n_bins: int, bin_width: float, seed: SeedLike = None
    ) -> np.ndarray:
        """Fluid count process: work emitted per bin (rate x ON overlap).

        Bin placement follows the :mod:`repro.utils.binning` convention:
        bin ``i`` covers ``[i * bin_width, (i + 1) * bin_width)`` with the
        final bin closed on the right (an interval boundary landing exactly
        on an edge belongs to the bin on its right).  Both the first- and
        last-bin indices are clamped to ``n_bins - 1``: an interval start
        strictly inside the horizon can still round up to ``n_bins`` under
        float division when ``start / bin_width`` lands within an ulp of the
        top edge.
        """
        require_count(n_bins, "n_bins")
        require_positive(bin_width, "bin_width")
        duration = n_bins * bin_width
        if duration == 0:
            return np.zeros(0)
        work = np.zeros(n_bins, dtype=float)
        for start, end in self.intervals(duration, seed=seed):
            first = min(int(start / bin_width), n_bins - 1)
            last = min(int(end / bin_width), n_bins - 1)
            if first == last:
                work[first] += end - start
                continue
            work[first] += (first + 1) * bin_width - start
            work[first + 1:last] += bin_width
            work[last] += end - last * bin_width
        return work * self.rate


def multiplex_onoff(
    n_sources: int,
    n_bins: int,
    bin_width: float,
    source: OnOffSource | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Aggregate count process of ``n_sources`` independent ON/OFF sources.

    With heavy-tailed period lengths the aggregate converges (as sources and
    time scale grow) to fractional Gaussian noise with
    H = (3 - min(on_shape, off_shape)) / 2 — the [28] result the paper
    invokes in Section VII-B.

    This is the simple per-source loop; at scale (10^4+ sources) use the
    batched, bit-identical :func:`repro.kernels.superpose.superpose_onoff`,
    which consumes the same spawned RNG streams and supports process
    fan-out without pickling count arrays.
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    require_count(n_bins, "n_bins")
    src = source or OnOffSource.pareto()
    total = np.zeros(n_bins, dtype=float)
    for rng in spawn_rngs(seed, n_sources):
        total += src.counts(n_bins, bin_width, seed=rng)
    return total


def expected_hurst(on_shape: float, off_shape: float) -> float:
    """Limit Hurst parameter of the multiplexed ON/OFF aggregate,
    H = (3 - beta_min) / 2 for 1 < beta_min < 2."""
    beta = min(on_shape, off_shape)
    if not 1.0 < beta < 2.0:
        raise ValueError("the ON/OFF limit requires min shape in (1, 2)")
    return (3.0 - beta) / 2.0
