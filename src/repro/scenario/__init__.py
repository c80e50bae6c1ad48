"""Declarative scenario specs and the shared execution pipeline.

One TOML document names a source workload, a network stage, optional
conditioning, and a validation battery; ``repro scenario run`` executes it
through the cached engine, and ``--jobs N`` shards the work with the exact
sketch-merge algebra (serial ≡ sharded, bit for bit).  See DESIGN.md §6k.

Spec helpers (:mod:`repro.scenario.spec`) load eagerly; the pipeline and
its shard/battery machinery load on first attribute access so that
experiment modules can import this package at module level without closing
an import cycle through the registry.
"""

from repro.scenario.spec import (
    KIND_SECTIONS,
    KINDS,
    SCHEMA,
    STAGES,
    SpecError,
    apply_overrides,
    canonical_json,
    dump_spec,
    load_spec,
    loads_spec,
    resolve,
    resolve_section,
    spec_digest,
    stage_rngs,
)

__all__ = [
    "KINDS",
    "KIND_SECTIONS",
    "SCHEMA",
    "STAGES",
    "SpecError",
    "ScenarioOutcome",
    "apply_overrides",
    "canonical_json",
    "dump_spec",
    "execute",
    "load_spec",
    "loads_spec",
    "resolve",
    "resolve_section",
    "run_battery",
    "run_spec",
    "run_spec_cached",
    "sharded_summary",
    "spec_digest",
    "stage_rngs",
]

_LAZY = {
    "ScenarioOutcome": "repro.scenario.pipeline",
    "SynthValidationResult": "repro.scenario.pipeline",
    "execute": "repro.scenario.pipeline",
    "run_spec": "repro.scenario.pipeline",
    "run_spec_cached": "repro.scenario.pipeline",
    "sharded_summary": "repro.scenario.shard",
    "shard_bounds": "repro.scenario.shard",
    "run_battery": "repro.scenario.battery",
    "BatteryReport": "repro.scenario.battery",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
