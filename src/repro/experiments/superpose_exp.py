"""Gaussian-vs-stable phase diagram of superposed ON/OFF sources.

Section VII-B builds self-similar traffic by multiplexing many heavy-tailed
ON/OFF sources.  *How* the aggregate converges depends on the order of
limits — the Mikosch/Resnick/Rootzén/Stegeman dichotomy: when the number of
sources grows fast relative to the observation horizon ("slow connection
growth" per horizon unit), per-source contributions are truncated and the
CLT wins, so the cumulative workload over a horizon is asymptotically
*Gaussian* (fractional Brownian motion limit); when the horizon grows fast
relative to the source count ("fast growth"), a single untruncated
heavy-tailed period can dominate the whole horizon and the workload is
*stable-like* — heavy-tailed, with tail index near the period law's
``beta``.

This experiment sweeps source count × horizon cells across both regimes,
synthesizing hundreds of independent replications per cell with the
batched grouped kernel (:func:`repro.kernels.superpose_onoff_groups`) and
scoring each cell's replication-workload marginal:

* Anderson-Darling A^2 normality (Case 4, mean/variance estimated) — the
  Gaussianity verdict;
* sample skewness and excess kurtosis — shape diagnostics;
* a Hill stability-index proxy on the upper deviations from the median —
  near the ON-period ``beta`` in the stable-like regime, larger (lighter
  tail) in the Gaussian regime.

Alongside the phase cells, a Hurst battery checks the second-order story:
one large Pareto-source aggregate must show elevated variance-time H near
the predicted ``expected_hurst(beta, beta)``, while a matched-mean
exponential control stays near 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrivals.onoff import OnOffSource, expected_hurst
from repro.distributions.exponential import Exponential
from repro.distributions.pareto import hill_estimator
from repro.experiments.report import format_table
from repro.kernels import superpose_onoff, superpose_onoff_groups
from repro.scenario import execute, resolve_section
from repro.selfsim.counts import CountProcess
from repro.selfsim.variance_time import variance_time_curve
from repro.stats import anderson_darling_normal
from repro.utils.rng import SeedLike

#: Phase-diagram grid: (regime, sources per replication, horizon).  Slow
#: cells pack many sources into a short horizon (every heavy period is
#: truncated → CLT); fast cells give few sources a long horizon (one
#: untruncated period can dominate → stable-like).  Calibrated so the
#: default seed separates cleanly at the 5% A^2 level with 192
#: replications.
CELLS: tuple[tuple[str, int, float], ...] = (
    ("slow", 256, 32.0),
    ("slow", 512, 64.0),
    ("slow", 1024, 64.0),
    ("fast", 4, 8192.0),
    ("fast", 4, 16384.0),
    ("fast", 4, 32768.0),
)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """(sample skewness, excess kurtosis) via central moments."""
    c = x - x.mean()
    m2 = float(np.mean(c**2))
    if m2 <= 0:
        return 0.0, 0.0
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / m2**2 - 3.0
    return skew, kurt


def _hill_proxy(totals: np.ndarray) -> float:
    """Hill tail-index of the upper deviations from the median.

    The stable-like regime shows up as a heavy *upper* tail of the
    replication workloads; centering on the median keeps the threshold
    positive and robust to the Gaussian bulk."""
    dev = totals - np.median(totals)
    pos = dev[dev > 0]
    k = max(5, pos.size // 4)
    if pos.size <= k:
        return float("nan")
    return hill_estimator(pos, k)


@dataclass(frozen=True)
class SuperposeCell:
    """One phase-diagram cell: the marginal law of replication workloads."""

    regime: str            # "slow" or "fast" connection growth
    n_sources: int         # sources superposed per replication
    horizon: float         # observation horizon per replication
    a2_statistic: float    # modified Case-4 A^2 of the workload marginal
    a2_critical: float
    gaussian: bool         # A^2 consistent with normal at 5%
    skewness: float
    excess_kurtosis: float
    hill_alpha: float      # stability-index proxy (upper deviations)

    @property
    def as_expected(self) -> bool:
        """Slow cells should look Gaussian, fast cells should not."""
        return self.gaussian == (self.regime == "slow")


@dataclass(frozen=True)
class SuperposePhaseDiagram:
    """Phase-diagram sweep plus the Hurst battery on one large aggregate."""

    cells: tuple[SuperposeCell, ...]
    replications: int
    pareto_shape: float
    battery_sources: int
    battery_hurst: float   # variance-time H of the Pareto-source aggregate
    control_hurst: float   # same for the matched-mean exponential control
    expected_h: float      # expected_hurst(shape, shape)

    def rows(self) -> list[dict]:
        return [
            {
                "regime": c.regime,
                "sources": c.n_sources,
                "horizon": c.horizon,
                "A2": round(c.a2_statistic, 3),
                "gaussian": c.gaussian,
                "skew": round(c.skewness, 2),
                "ex_kurt": round(c.excess_kurtosis, 2),
                "hill_alpha": round(c.hill_alpha, 2),
                "ok": c.as_expected,
            }
            for c in self.cells
        ]

    @property
    def gaussian_like_slow(self) -> bool:
        """Every slow-growth cell passes the A^2 normality test."""
        return all(c.gaussian for c in self.cells if c.regime == "slow")

    @property
    def heavy_like_fast(self) -> bool:
        """Every fast-growth cell rejects normality."""
        return all(not c.gaussian for c in self.cells if c.regime == "fast")

    @property
    def regimes_distinguished(self) -> bool:
        """The diagram separates the two limit regimes."""
        return self.gaussian_like_slow and self.heavy_like_fast

    @property
    def hurst_elevated(self) -> bool:
        """Aggregate H near the heavy-tail prediction, control near 1/2."""
        return (
            abs(self.battery_hurst - self.expected_h) <= 0.15
            and abs(self.control_hurst - 0.5) <= 0.15
        )

    def payload(self) -> dict:
        """JSON-ready summary (the phase-diagram artifact)."""
        return {
            "replications": self.replications,
            "pareto_shape": self.pareto_shape,
            "cells": self.rows(),
            "battery": {
                "sources": self.battery_sources,
                "hurst": round(self.battery_hurst, 4),
                "control_hurst": round(self.control_hurst, 4),
                "expected_hurst": round(self.expected_h, 4),
                "elevated": self.hurst_elevated,
            },
            "gaussian_like_slow": self.gaussian_like_slow,
            "heavy_like_fast": self.heavy_like_fast,
            "regimes_distinguished": self.regimes_distinguished,
        }

    def render(self) -> str:
        table = format_table(
            self.rows(),
            title=(
                "Superposition phase diagram: workload marginal per "
                f"replication (R={self.replications}, "
                f"beta={self.pareto_shape})"
            ),
        )
        lines = [
            table,
            "",
            f"slow-growth cells Gaussian-like: {self.gaussian_like_slow}",
            f"fast-growth cells heavy/stable-like: {self.heavy_like_fast}",
            f"regimes distinguished: {self.regimes_distinguished}",
            (
                f"Hurst battery ({self.battery_sources} sources): "
                f"pareto H {self.battery_hurst:.3f} "
                f"(expected {self.expected_h:.2f}), exponential control H "
                f"{self.control_hurst:.3f} (expected 0.50)"
            ),
        ]
        return "\n".join(lines)


def run_config(cfg: dict, seed: SeedLike = 0,
               jobs: int = 1) -> SuperposePhaseDiagram:
    """The superpose family runner: one ``[superpose]`` section.

    ``cfg`` may be partial; it is resolved against the schema first, so
    defaults and bounds come from :data:`repro.scenario.SCHEMA` alone.
    """
    cfg = resolve_section("superpose", cfg)["superpose"]
    replications = cfg["replications"]
    pareto_shape = cfg["pareto_shape"]
    battery_sources = cfg["battery_sources"]
    chunk = cfg["chunk"]
    if replications < 8:
        raise ValueError(f"replications must be >= 8, got {replications}")
    location = 0.1  # short mean periods: many ON/OFF cycles per horizon
    src = OnOffSource.pareto(
        on_shape=pareto_shape, off_shape=pareto_shape,
        on_location=location, off_location=location,
    )
    mean_period = location * pareto_shape / (pareto_shape - 1.0)
    control = OnOffSource(Exponential(mean_period), Exponential(mean_period))

    # A Generator contributes its SeedSequence, so spawned children stay
    # picklable SeedSequences for the jobs > 1 fan-out.
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seqs = seed.spawn(len(CELLS) + 2)
    cells = []
    for (regime, n_sources, horizon), seq in zip(CELLS, seqs):
        totals = superpose_onoff_groups(
            replications, n_sources, 1, horizon, source=src, seed=seq,
            jobs=jobs, chunk=chunk,
        )[:, 0]
        ad = anderson_darling_normal(totals)
        skew, kurt = _moments(totals)
        cells.append(SuperposeCell(
            regime=regime,
            n_sources=n_sources,
            horizon=horizon,
            a2_statistic=ad.statistic,
            a2_critical=ad.critical_value,
            gaussian=ad.passed,
            skewness=skew,
            excess_kurtosis=kurt,
            hill_alpha=_hill_proxy(totals),
        ))

    hs = []
    for s, seq in zip((src, control), seqs[len(CELLS):]):
        agg = superpose_onoff(
            battery_sources, 1024, 1.0, source=s, seed=seq,
            jobs=jobs, chunk=chunk,
        )
        curve = variance_time_curve(CountProcess(agg, 1.0))
        hs.append(float(curve.hurst(min_level=4)))

    return SuperposePhaseDiagram(
        cells=tuple(cells),
        replications=replications,
        pareto_shape=pareto_shape,
        battery_sources=battery_sources,
        battery_hurst=hs[0],
        control_hurst=hs[1],
        expected_h=expected_hurst(pareto_shape, pareto_shape),
    )


def superpose(
    seed=0,
    replications: int = 192,
    pareto_shape: float = 1.2,
    battery_sources: int = 50_000,
    jobs: int = 1,
    chunk: int = 8192,
) -> SuperposePhaseDiagram:
    """Sweep the Gaussian-vs-stable phase diagram of ON/OFF superposition.

    Each cell synthesizes ``replications`` independent aggregates of
    ``n_sources`` sources over ``horizon`` seconds in one grouped-kernel
    sweep, then tests the marginal law of the cumulative workloads.  The
    Hurst battery synthesizes one ``battery_sources``-source aggregate
    (1024 unit bins) for the Pareto law and a matched-mean exponential
    control and fits variance-time H to each.
    """
    return execute("superpose", {
        "replications": replications,
        "pareto_shape": pareto_shape,
        "battery_sources": battery_sources,
        "chunk": chunk,
    }, seed=seed, jobs=jobs)
