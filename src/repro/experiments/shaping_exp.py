"""Closed-loop policing detection: police at a known rate, recover it blind.

No 1994-era study could ask whether traffic *had been* policed — the
paper's traces predate widespread traffic conditioning.  This experiment
closes the loop the modern way: synthesize the paper's ftp workload,
push it through a token-bucket policer at a known rate, hand only the
surviving packet trace to :mod:`repro.shaping.detect`, and score how
well the enforcement rate is recovered across a rate x burst-depth
grid (an unpoliced control must come back clean).  The companion
battery measures what lossless shaping does to the Hurst signature:
fine-scale H is suppressed below the bucket's drain time, the
coarse-scale LRD slope — the paper's actual finding — is conserved.
"""

from __future__ import annotations

import numbers

from repro.scenario import execute
from repro.utils.rng import SeedLike, as_rng


def run_config(cfg: dict, seed: SeedLike = 7,
               jobs: int = 1) -> "ShapingReport":  # noqa: F821
    """The shaping family runner: one resolved ``[shaping]`` section."""
    # Lazy: repro.shaping reaches repro.stream, whose driver imports this
    # registry back — a module-level import here would close the cycle.
    from repro.shaping.scenario import ShapingScenario, run_scenario

    if seed is None:
        seed = 7
    elif not isinstance(seed, numbers.Integral):
        # A spawned stream: draw the scenario's integer seed from it.
        seed = as_rng(seed).integers(2**63)
    lists = ("rate_factors", "burst_seconds", "shaper_rate_factors")
    params = {k: tuple(v) if k in lists else v for k, v in cfg.items()}
    return run_scenario(ShapingScenario(seed=int(seed), **params))


def shaping(seed: SeedLike = 7) -> "ShapingReport":  # noqa: F821
    """Run the synthesize -> police -> detect loop plus the Hurst battery."""
    return execute("shaping", seed=seed)
