"""Flow-level simulation: heavy tails survive multi-hop networks.

The paper's self-similarity is a property of the *workload*, not of any
single link: heavy-tailed transfer sizes keep the Hurst parameter
elevated on every link the flows traverse, while an exponential workload
with the same arrival rate and mean size stays near H = 1/2.  This
experiment runs the :mod:`repro.flowsim` scenario twice — ftp (Pareto
burst bytes, Section V) and its matched exponential control — over the
same multi-hop topology, and reports the per-link variance-time H.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.flowsim.scenario import FlowScenario, ScenarioResult
from repro.scenario import execute
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class FlowsimComparisonResult:
    ftp: ScenarioResult
    control: ScenarioResult

    def rows(self) -> list[dict]:
        rows = []
        for name, out in (("ftp", self.ftp), ("exponential", self.control)):
            s = out.summary()
            hs = list(out.link_hurst.values())
            rows.append({
                "workload": name,
                "n_flows": s["n_flows"],
                "n_links_measured": len(hs),
                "hurst_mean": round(out.mean_hurst, 3),
                "hurst_min": round(min(hs), 3),
                "hurst_max": round(max(hs), 3),
            })
        return rows

    @property
    def heavy_tail_elevated(self) -> bool:
        """Pareto flows keep H well above 1/2 on every traversed link."""
        return min(self.ftp.link_hurst.values()) > 0.6

    @property
    def control_near_half(self) -> bool:
        return abs(self.control.mean_hurst - 0.5) < 0.1

    def payload(self) -> dict:
        return {"scenarios": {"ftp": self.ftp.summary(),
                              "exponential": self.control.summary()}}

    def render(self) -> str:
        table = format_table(
            self.rows(),
            title="Flow-level simulation: per-link H, ftp vs exponential",
        )
        return "\n\n".join([table, self.ftp.render(), self.control.render()])


def run_config(cfg: dict, seed: SeedLike = 0, jobs: int = 1):
    """The flowsim family runner: one resolved ``[flowsim]`` section.

    Runs every requested workload over the same topology with the same
    seed (each run spawns its streams fresh, so order is immaterial) and
    wraps the ftp/exponential pair in the comparison result the registry
    has always reported.  A single workload returns its bare
    :class:`~repro.flowsim.scenario.ScenarioResult`.
    """
    workloads = tuple(cfg["workloads"])
    params = {k: v for k, v in cfg.items() if k != "workloads"}
    outs = {w: FlowScenario(workload=w, **params).run(seed=seed, jobs=jobs)
            for w in workloads}
    if set(workloads) == {"ftp", "exponential"}:
        return FlowsimComparisonResult(ftp=outs["ftp"],
                                       control=outs["exponential"])
    if len(outs) == 1:
        return next(iter(outs.values()))
    raise ValueError(f"unsupported workload combination {workloads!r}")


def flowsim(
    seed: SeedLike = 0,
    topology: str = "line",
    n_nodes: int = 10,
    duration: float = 3600.0,
    sessions_per_hour: float = 4000.0,
    model: str = "msmo97",
    utilization: float = 0.4,
    jobs: int = 1,
) -> FlowsimComparisonResult:
    """Run the ftp scenario and its exponential control, same seed."""
    return execute("flowsim", {
        "topology": topology,
        "n_nodes": n_nodes,
        "duration": duration,
        "sessions_per_hour": sessions_per_hour,
        "model": model,
        "utilization": utilization,
    }, seed=seed, jobs=jobs)
