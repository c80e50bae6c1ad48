"""Figs. 14 and 15 + Appendix C: pseudo-self-similar Pareto renewal counts.

Both figures show 1,000-bin count processes of i.i.d. Pareto(beta=1, a=1)
interarrivals under nine seeds — Fig. 14 with bin width b = 10^3, Fig. 15
with b = 10^7.  "To the eye, the two sets of arrivals exhibit the same
general activity"; quantitatively, the paper reports the mean burst length
grows only by a factor ~2.6 across the 10^4x change in scale while the mean
lull length changes by only ~1.2x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrivals.pareto_renewal import (
    BurstLullSummary,
    burst_lull_summary,
    expected_burst_length,
    pareto_renewal_counts,
)
from repro.experiments.report import ascii_sparkline, format_table
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass(frozen=True)
class PanelResult:
    """One seed's count process and run-length summary."""

    seed_index: int
    counts: np.ndarray
    summary: BurstLullSummary


@dataclass(frozen=True)
class Fig14Result:
    bin_width: float
    shape: float
    panels: list[PanelResult]

    @property
    def mean_burst(self) -> float:
        return float(np.mean([p.summary.mean_burst for p in self.panels]))

    @property
    def mean_lull(self) -> float:
        return float(np.mean([p.summary.mean_lull for p in self.panels]))

    @property
    def occupied_fraction(self) -> float:
        return float(np.mean([p.summary.occupied_fraction for p in self.panels]))

    def rows(self) -> list[dict]:
        return [
            {
                "seed": p.seed_index,
                "mean_burst_bins": p.summary.mean_burst,
                "mean_lull_bins": p.summary.mean_lull,
                "occupied_frac": p.summary.occupied_fraction,
                "max_count": int(p.counts.max()) if p.counts.size else 0,
            }
            for p in self.panels
        ]

    def render(self) -> str:
        lines = [
            format_table(
                self.rows(),
                title=f"Fig. {'14' if self.bin_width < 1e5 else '15'}: "
                      f"i.i.d. Pareto(beta={self.shape}) counts, "
                      f"b={self.bin_width:g}",
            )
        ]
        for p in self.panels[:3]:
            lines.append(f"seed {p.seed_index}: {ascii_sparkline(p.counts)}")
        theory = expected_burst_length(self.bin_width, 1.0, self.shape)
        lines.append(f"theory E[burst] ~ log(b/a) = {theory:.2f} bins; "
                     f"measured {self.mean_burst:.2f}")
        return "\n".join(lines)


def fig14(
    seed: SeedLike = 0,
    bin_width: float = 1e3,
    n_bins: int = 1000,
    n_seeds: int = 9,
    shape: float = 1.0,
) -> Fig14Result:
    """Regenerate Fig. 14 (default b = 10^3)."""
    panels = []
    for i, rng in enumerate(spawn_rngs(seed, n_seeds)):
        counts = pareto_renewal_counts(n_bins, bin_width, shape, seed=rng)
        panels.append(PanelResult(seed_index=i, counts=counts,
                                  summary=burst_lull_summary(counts)))
    return Fig14Result(bin_width=bin_width, shape=shape, panels=panels)


def fig15(seed: SeedLike = 1, bin_width: float = 1e7, n_bins: int = 1000,
          n_seeds: int = 9, shape: float = 1.0) -> Fig14Result:
    """Regenerate Fig. 15 (b = 10^7).

    NOTE: at full scale each panel contains hundreds of millions of
    arrivals (4.8e8 in panel 0 at seed 1).  The streaming generator
    handles them at ~1e8 arrivals/s, bound by drawing and summing the
    interarrivals: ~4.5 s per panel, ~40 s for the nine, on a 2-core
    x86-64 host with AVX-512.  Benchmarks use reduced n_bins.
    """
    return fig14(seed=seed, bin_width=bin_width, n_bins=n_bins,
                 n_seeds=n_seeds, shape=shape)


@dataclass(frozen=True)
class ScaleComparison:
    """The Figs. 14-vs-15 quantitative comparison."""

    small: Fig14Result
    large: Fig14Result

    @property
    def burst_ratio(self) -> float:
        """Paper: ~2.6 for b = 10^3 -> 10^7."""
        return self.large.mean_burst / self.small.mean_burst

    @property
    def lull_ratio(self) -> float:
        """Paper: ~1.2 — lulls in bins are scale-invariant."""
        return self.large.mean_lull / self.small.mean_lull

    def render(self) -> str:
        return (
            f"scale comparison b={self.small.bin_width:g} -> "
            f"{self.large.bin_width:g}: burst ratio {self.burst_ratio:.2f} "
            f"(paper ~2.6), lull ratio {self.lull_ratio:.2f} (paper ~1.2)"
        )


def scale_comparison(
    seed: SeedLike = 0,
    small_b: float = 1e3,
    large_b: float = 1e7,
    n_bins: int = 1000,
    n_seeds: int = 5,
) -> ScaleComparison:
    """Run both figures and compare burst/lull scaling."""
    return ScaleComparison(
        small=fig14(seed=seed, bin_width=small_b, n_bins=n_bins,
                    n_seeds=n_seeds),
        large=fig14(seed=seed, bin_width=large_b, n_bins=n_bins,
                    n_seeds=n_seeds),
    )
