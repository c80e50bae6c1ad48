"""One execution pipeline behind every scenario door.

Two front doors, one path:

* **Documents** — ``repro scenario run spec.toml`` loads a TOML document,
  :func:`run_spec` resolves it and dispatches on ``scenario.kind``.
* **Registry functions** — the hand-wired experiments (``flowsim``,
  ``shaping``, ``monitor``, ``superpose``) are now thin spec-builders:
  they assemble the same config fragment a document would carry and call
  :func:`execute`, which resolves it through the *same* schema and
  dispatches to the *same* family runner.

Because both doors share the resolver and the runner, a committed example
spec reproduces its registry experiment bit-identically — there is no
second wiring to drift.

The ``synth`` kind is the composite the other kinds hand-wire: synthesize
a source workload, optionally condition it in-network, then run the
validation battery over sketches built by the shard coordinator
(:mod:`repro.scenario.shard`) — ``jobs=N`` merges per-chunk sketches with
the exact algebra, so sharded verdicts equal serial ones bit for bit.

Caching (:func:`run_spec_cached`) reuses the engine's
:class:`~repro.engine.cache.ResultCache`, keyed on the document's
*normalized content* plus this module's source closure — editing a spec
invalidates exactly its entries, same contract as the AST source digest.

Import discipline: this module imports only :mod:`repro.scenario.spec` and
stdlib at module level.  Experiment modules import :mod:`repro.scenario`
eagerly, so everything heavier (registry, engine, stream) loads lazily
inside the runners to keep the graph acyclic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.scenario.spec import (
    apply_overrides,
    canonical_json,
    resolve,
    resolve_section,
    spec_digest,
    stage_rngs,
)

__all__ = [
    "PIPELINE_MODULE",
    "ScenarioOutcome",
    "SynthValidationResult",
    "execute",
    "run_spec",
    "run_spec_cached",
]

#: Digest anchor for spec-driven cache keys: the pipeline's own source
#: closure (which reaches every family runner through the lazy imports).
PIPELINE_MODULE = "repro.scenario.pipeline"


@dataclass(frozen=True)
class ScenarioOutcome:
    """One executed scenario document: the spec, its result, its rendering."""

    spec: dict          # resolved document
    result: object      # the family result object (render()/payload())
    rendered: str
    compute_time_s: float

    @property
    def name(self) -> str:
        return self.spec["scenario"]["name"]

    @property
    def kind(self) -> str:
        return self.spec["scenario"]["kind"]

    def payload(self) -> dict:
        body = (self.result.payload()
                if hasattr(self.result, "payload") else {})
        return {
            "scenario": self.name,
            "kind": self.kind,
            "seed": self.spec["scenario"]["seed"],
            "spec_digest": spec_digest(self.spec),
            "compute_time_s": round(self.compute_time_s, 3),
            **body,
        }


# ----------------------------------------------------------------------
# Family runners (all imports lazy — see module docstring)


def _run_experiment(doc: dict, seed, jobs: int):
    import inspect

    from repro.experiments import REGISTRY

    cfg = doc["experiment"]
    fn = REGISTRY[cfg["name"]]
    kwargs = dict(cfg["params"])
    if jobs > 1 and "jobs" in inspect.signature(fn).parameters:
        kwargs.setdefault("jobs", jobs)
    return fn(seed=seed, **kwargs)


def _run_flowsim(doc: dict, seed, jobs: int):
    from repro.experiments.flowsim_exp import run_config

    return run_config(doc["flowsim"], seed=seed, jobs=jobs)


def _run_shaping(doc: dict, seed, jobs: int):
    from repro.experiments.shaping_exp import run_config

    return run_config(doc["shaping"], seed=seed, jobs=jobs)


def _run_monitor(doc: dict, seed, jobs: int):
    from repro.experiments.monitor_exp import run_config

    return run_config(doc["monitor"], seed=seed, jobs=jobs)


def _run_superpose(doc: dict, seed, jobs: int):
    from repro.experiments.superpose_exp import run_config

    return run_config(doc["superpose"], seed=seed, jobs=jobs)


@dataclass(frozen=True)
class SynthValidationResult:
    """A ``synth`` run: source → conditioning → sharded battery."""

    source: dict        # resolved [source] section
    condition: dict     # resolved [condition] section
    battery: object     # BatteryReport
    summary: object     # merged StreamSummary (exact under sharding)
    mean_rate: float    # pre-conditioning mean byte rate, bytes/s
    loss_fraction: float

    def sketch_fingerprint(self) -> str:
        """Digest of the merged count ladder — the shard-equality witness.

        Two runs of the same document agree on this hex string iff their
        merged sketches are bit-identical, whatever ``--jobs`` was.
        """
        import hashlib

        counts = self.summary.counts.finalize()
        h = hashlib.sha256()
        h.update(counts.tobytes())
        h.update(str(self.summary.n).encode())
        return h.hexdigest()[:16]

    def payload(self) -> dict:
        return {
            "source": dict(self.source),
            "condition": dict(self.condition),
            "mean_rate_bps": float(self.mean_rate),
            "loss_fraction": float(self.loss_fraction),
            "sketch_fingerprint": self.sketch_fingerprint(),
            "battery": self.battery.payload(),
        }

    def render(self) -> str:
        cond = self.condition["element"]
        lines = [
            f"synth: {self.source['model']} ×{self.source['n_packets']:,d} "
            f"packets, mean {self.mean_rate:,.0f} B/s",
        ]
        if cond != "none":
            lines.append(
                f"  conditioned by {cond} at "
                f"{self.condition['rate_factor']:g}× mean rate "
                f"({self.condition['burst_seconds']:g}s burst), "
                f"loss {self.loss_fraction:.3f}")
        lines.append(f"  sketch fingerprint: {self.sketch_fingerprint()}")
        lines.append("")
        lines.append(self.battery.render())
        return "\n".join(lines)


def _run_synth(doc: dict, seed, jobs: int):
    import numpy as np

    from repro.replay.source import synthesize_packets
    from repro.scenario.battery import run_battery
    from repro.scenario.shard import sharded_summary
    from repro.stream.summary import SummaryConfig

    src, cond, val = doc["source"], doc["condition"], doc["validate"]
    rngs = stage_rngs(seed)
    trace = synthesize_packets(
        src["model"], src["n_packets"], seed=rngs["source"],
        rate=src["rate"],
    )
    times = np.asarray(trace.timestamps, dtype=float)
    sizes = np.asarray(trace.sizes, dtype=float)
    span = float(times[-1] - times[0]) if times.size > 1 else 0.0
    if span <= 0:
        raise ValueError("synthesized trace has no span")
    mean_rate = float(sizes.sum() / span)

    loss = 0.0
    if cond["element"] != "none":
        from repro.shaping.elements import (
            LeakyBucketShaper,
            TokenBucketPolicer,
        )

        rate = cond["rate_factor"] * mean_rate
        burst = cond["burst_seconds"] * rate
        element = (TokenBucketPolicer(rate, burst)
                   if cond["element"] == "policer"
                   else LeakyBucketShaper(rate, burst))
        res = element.apply(times, sizes)
        times = np.asarray(res.accepted_times, dtype=float)
        sizes = np.asarray(res.accepted_costs, dtype=float)
        loss = float(res.loss_fraction)

    config = SummaryConfig(bin_width=val["bin_width"])
    summary = sharded_summary(times, sizes, config=config, jobs=jobs)
    battery = run_battery(times, sizes, summary, val)
    return SynthValidationResult(
        source=dict(src), condition=dict(cond), battery=battery,
        summary=summary, mean_rate=mean_rate, loss_fraction=loss,
    )


_RUNNERS = {
    "experiment": _run_experiment,
    "flowsim": _run_flowsim,
    "shaping": _run_shaping,
    "monitor": _run_monitor,
    "superpose": _run_superpose,
    "synth": _run_synth,
}


# ----------------------------------------------------------------------
# Entry points


def _resolve_seeded(doc: dict, seed: int | None) -> dict:
    """Resolve ``doc`` with an integer ``seed`` written into
    ``scenario.seed``, so the payload, digest and cache key describe the
    run that actually happens."""
    if seed is not None:
        doc = apply_overrides(doc, [f"scenario.seed={int(seed)}"])
    return resolve(doc)


def run_spec(doc: dict, *, jobs: int = 1,
             seed: int | None = None) -> ScenarioOutcome:
    """Resolve one document and execute it.

    ``seed`` overrides ``scenario.seed`` when given (the CLI's ``--seed``);
    ``jobs`` fans shardable stages over worker processes — outputs are
    independent of it by the merge-algebra contract.
    """
    resolved = _resolve_seeded(doc, seed)
    scenario = resolved["scenario"]
    t0 = time.perf_counter()
    result = _RUNNERS[scenario["kind"]](resolved, scenario["seed"], jobs)
    elapsed = time.perf_counter() - t0
    return ScenarioOutcome(
        spec=resolved, result=result, rendered=result.render(),
        compute_time_s=elapsed,
    )


def execute(kind: str, cfg: dict | None = None, *, seed=0, jobs: int = 1,
            name: str | None = None):
    """Run one kind from a bare config fragment (the spec-builder door).

    The hand-wired experiment functions call this with their keyword
    arguments; the fragment passes through the same strict resolver a
    document would, then the same family runner.  ``seed`` may be any
    ``SeedLike`` (the engine hands Generators under ``--spawn-seeds``),
    so it bypasses the document's integer slot.
    """
    doc = resolve_section(kind, cfg, name=name)
    return _RUNNERS[kind](doc, seed, jobs)


def run_spec_cached(
    doc: dict,
    *,
    jobs: int = 1,
    seed: int | None = None,
    cache=None,
    use_cache: bool = True,
) -> tuple[ScenarioOutcome, str]:
    """:func:`run_spec` through the engine's on-disk result cache.

    Returns ``(outcome, cache_state)`` where ``cache_state`` is ``"hit"``,
    ``"miss"``, or ``"off"``.  Keys combine the document's normalized
    content with this module's source closure
    (:func:`repro.engine.cache.content_digest`): editing the spec — or any
    code the pipeline can reach — invalidates exactly its entries.
    """
    from repro.engine.cache import CacheEntry, ResultCache, content_digest

    resolved = _resolve_seeded(doc, seed)
    if not use_cache:
        return run_spec(resolved, jobs=jobs), "off"
    store = cache if cache is not None else ResultCache()
    digest = content_digest(PIPELINE_MODULE, canonical_json(resolved))
    name = f"scenario-{resolved['scenario']['name']}"
    seed_token = f"master:{resolved['scenario']['seed']}"
    key = store.key(name, seed_token, digest)
    entry = store.get(key)
    if entry is not None:
        return entry.result, "hit"
    outcome = run_spec(resolved, jobs=jobs)
    store.put(key, CacheEntry(
        name=name,
        seed_token=seed_token,
        digest=digest,
        rendered=outcome.rendered,
        result=outcome,
        compute_time_s=outcome.compute_time_s,
    ))
    return outcome, "miss"
