"""Declarative scenario documents: schema, strict resolver, TOML round trip.

A scenario *spec* is one plain document (a nested dict, loadable from TOML)
that names everything a run needs: the source workload, the network stage,
optional conditioning, and the validation battery.  The per-figure python
modules wire the same pipeline by hand; the spec makes the composition
matrix — sources × topology × conditioning × battery — data instead of
code, so a new cell is a new document, not a new module.

Three contracts, each load-bearing:

* **Strict resolution.**  :func:`resolve` normalizes a raw document against
  the schema: every default is filled in, every value is type-checked, and
  any unknown section or key raises :class:`SpecError` naming the full key
  path (``flowsim.n_node``) with a did-you-mean suggestion.  Silent typos
  are how "reproductions" drift.
* **Round-trip identity.**  ``resolve(parse(dump(resolve(doc))))`` is a
  fixed point: a resolved document dumps to TOML and re-loads to exactly
  itself.  The dump is canonical (schema ordering), so the document's
  content digest (:func:`spec_digest`) is independent of the key order the
  author typed.
* **Seed derivation.**  One integer seed in the document; per-stage RNG
  streams come from the same :func:`repro.utils.rng.spawn_rngs` tree the
  rest of the codebase uses (:func:`stage_rngs`), so stages are
  statistically independent yet fully determined by the document.

Parsing uses :mod:`tomllib` where available (Python >= 3.11) and falls back
to a bundled parser for the TOML subset the schema emits — no third-party
dependency either way.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.utils.rng import spawn_rngs

__all__ = [
    "KINDS",
    "SCHEMA",
    "KIND_SECTIONS",
    "STAGES",
    "SpecError",
    "Field",
    "apply_overrides",
    "resolve",
    "resolve_section",
    "load_spec",
    "loads_spec",
    "dump_spec",
    "canonical_json",
    "spec_digest",
    "stage_rngs",
]

#: Scenario kinds: four dedicated subsystem families, the generic registry
#: bridge, and the composite source → condition → validate pipeline.
KINDS = ("experiment", "flowsim", "shaping", "monitor", "superpose", "synth")

#: Stage order for per-stage seed derivation (:func:`stage_rngs`).  Fixed
#: and append-only: inserting a stage would reshuffle every later stream.
STAGES = ("source", "network", "condition", "validate")


class SpecError(ValueError):
    """A document failed strict resolution.

    ``path`` is the dotted location of the offending key or section
    (``"flowsim.n_node"``), empty for document-level problems.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class Field:
    """One schema slot: its default, type tag, and admissible values.

    ``type`` is one of ``str | int | float | bool | floats | strs | table``
    (``floats``/``strs`` are homogeneous lists; ``table`` is a free-form
    sub-dict of scalars, used only for ``experiment.params``).  ``None``
    defaults mark optional values that are omitted from dumps.
    ``positive`` demands a finite value > 0 (of every element, for lists).
    """

    default: object
    type: str
    choices: tuple | None = None
    required: bool = False
    positive: bool = False


#: The document schema, section by section.  ``scenario`` is universal;
#: each kind owns the sections :data:`KIND_SECTIONS` grants it.
SCHEMA: dict[str, dict[str, Field]] = {
    "scenario": {
        "name": Field(None, "str", required=True),
        "kind": Field(None, "str", choices=KINDS, required=True),
        "seed": Field(0, "int"),
        "description": Field("", "str"),
    },
    # kind = "experiment": any registry entry, parameterized.
    "experiment": {
        "name": Field(None, "str", required=True),
        "params": Field({}, "table"),
    },
    # kind = "flowsim": source workload(s) routed over a topology.
    "flowsim": {
        "topology": Field("line", "str",
                          choices=("line", "star", "dumbbell")),
        "n_nodes": Field(10, "int", positive=True),
        "duration": Field(3600.0, "float", positive=True),
        "sessions_per_hour": Field(4000.0, "float", positive=True),
        "workloads": Field(["ftp", "exponential"], "strs",
                           choices=("ftp", "exponential")),
        "model": Field("msmo97", "str", choices=("msmo97", "csa00")),
        "discipline": Field("fair", "str", choices=("fair", "fifo")),
        "utilization": Field(0.4, "float", positive=True),
        "bin_width": Field(1.0, "float", positive=True),
    },
    # kind = "shaping": the synthesize → police → detect closed loop.
    "shaping": {
        "model": Field("ftp", "str"),
        "n_packets": Field(60_000, "int", positive=True),
        "source_rate": Field(240.0, "float", positive=True),
        "rate_factors": Field([0.3, 0.5, 0.8], "floats", positive=True),
        "burst_seconds": Field([0.25, 1.0, 4.0], "floats", positive=True),
        "shaper_rate_factors": Field([1.0, 1.5, 3.0], "floats", positive=True),
        "hurst_bin_s": Field(0.01, "float"),
        "hurst_split_level": Field(8, "int"),
    },
    # kind = "monitor": the five-stream LRD-vs-drift battery.
    "monitor": {
        "duration": Field(400.0, "float"),
        "rate": Field(50.0, "float"),
        "window": Field(60.0, "float"),
    },
    # kind = "superpose": the Gaussian-vs-stable phase diagram.
    "superpose": {
        "replications": Field(192, "int", positive=True),
        "pareto_shape": Field(1.2, "float", positive=True),
        "battery_sources": Field(50_000, "int", positive=True),
        "chunk": Field(8192, "int", positive=True),
    },
    # kind = "synth": source → optional conditioning → sharded battery.
    "source": {
        "model": Field("ftp", "str",
                       choices=("fulltel", "ftp", "poisson", "pareto",
                                "mix")),
        "n_packets": Field(20_000, "int"),
        "rate": Field(None, "float"),
    },
    "condition": {
        "element": Field("none", "str",
                         choices=("none", "policer", "shaper")),
        "rate_factor": Field(0.5, "float"),
        "burst_seconds": Field(1.0, "float"),
    },
    "validate": {
        "bin_width": Field(0.01, "float"),
        "tail_fraction": Field(0.03, "float"),
        "significance": Field(0.05, "float"),
        "min_level": Field(10, "int"),
        "poisson_interval": Field(600.0, "float"),
        "drift_check": Field(True, "bool"),
    },
}

#: Sections each kind may (and, resolved, always does) carry beyond
#: ``scenario``.
KIND_SECTIONS: dict[str, tuple[str, ...]] = {
    "experiment": ("experiment",),
    "flowsim": ("flowsim",),
    "shaping": ("shaping",),
    "monitor": ("monitor",),
    "superpose": ("superpose",),
    "synth": ("source", "condition", "validate"),
}


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_scalar(value, field: Field, path: str):
    """Type-check/coerce one scalar against a scalar field type."""
    t = field.type
    if t == "str":
        if not isinstance(value, str):
            raise SpecError(path, f"expected a string, got {value!r}")
    elif t == "bool":
        if not isinstance(value, bool):
            raise SpecError(path, f"expected true/false, got {value!r}")
    elif t == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an integer, got {value!r}")
    elif t == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(path, f"expected a number, got {value!r}")
        value = float(value)
    else:  # pragma: no cover - schema authoring error
        raise SpecError(path, f"unhandled field type {t!r}")
    if field.positive and not 0 < value < math.inf:
        raise SpecError(path, f"must be a finite number > 0, got {value!r}")
    if field.choices is not None and value not in field.choices:
        raise SpecError(
            path,
            f"must be one of {list(field.choices)}, got {value!r}"
            f"{_suggest(str(value), map(str, field.choices))}",
        )
    return value


def _check_value(value, field: Field, path: str):
    if value is None and field.default is None and not field.required:
        return None  # nullable field restated at its default — idempotent
    if field.type in ("floats", "strs"):
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {value!r}")
        elem = Field(None, "float" if field.type == "floats" else "str",
                     choices=field.choices, positive=field.positive)
        return [_check_scalar(v, elem, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if field.type == "table":
        if not isinstance(value, dict):
            raise SpecError(path, f"expected a table, got {value!r}")
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise SpecError(path, f"table keys must be strings, "
                                      f"got {key!r}")
            kp = f"{path}.{key}"
            if isinstance(v, (list, tuple)):
                out[key] = [_check_table_scalar(x, f"{kp}[{i}]")
                            for i, x in enumerate(v)]
            else:
                out[key] = _check_table_scalar(v, kp)
        return out
    return _check_scalar(value, field, path)


def _check_table_scalar(value, path: str):
    if not isinstance(value, (str, bool, int, float)):
        raise SpecError(
            path, f"params values must be scalars or lists of scalars, "
                  f"got {value!r}")
    return value


def _resolve_section(name: str, raw: dict, path: str) -> dict:
    schema = SCHEMA[name]
    if not isinstance(raw, dict):
        raise SpecError(path, f"expected a table, got {raw!r}")
    for key in raw:
        if key not in schema:
            raise SpecError(f"{path}.{key}",
                            f"unknown key{_suggest(key, schema)}")
    out = {}
    for key, field in schema.items():
        if key in raw:
            out[key] = _check_value(raw[key], field, f"{path}.{key}")
        elif field.required:
            raise SpecError(f"{path}.{key}", "required key is missing")
        else:
            default = field.default
            out[key] = (list(default) if isinstance(default, list)
                        else dict(default) if isinstance(default, dict)
                        else default)
    return out


def _validate_experiment(section: dict) -> None:
    """Check ``experiment.name``/``params`` against the live registry."""
    import inspect

    from repro.experiments import REGISTRY

    name = section["name"]
    if name not in REGISTRY:
        raise SpecError(
            "experiment.name",
            f"unknown experiment {name!r}{_suggest(name, REGISTRY)}",
        )
    params = inspect.signature(REGISTRY[name]).parameters
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    if accepts_kwargs:
        return
    for key in section["params"]:
        if key not in params or key == "seed":
            raise SpecError(
                f"experiment.params.{key}",
                f"{name}() accepts no such parameter"
                f"{_suggest(key, [p for p in params if p != 'seed'])}",
            )


def resolve(doc: dict) -> dict:
    """Normalize a raw document: fill defaults, reject unknowns, order keys.

    Returns the canonical nested-dict form (idempotent: resolving a
    resolved document returns an equal document).  Raises
    :class:`SpecError` with the offending key path on any violation.
    """
    if not isinstance(doc, dict):
        raise SpecError("", f"spec must be a table, got {doc!r}")
    if "scenario" not in doc:
        raise SpecError("scenario", "required section is missing")
    scenario = _resolve_section("scenario", doc["scenario"], "scenario")
    if not scenario["name"]:
        raise SpecError("scenario.name", "must be a non-empty string")
    kind = scenario["kind"]
    allowed = KIND_SECTIONS[kind]
    for section in doc:
        if section == "scenario" or section in allowed:
            continue
        if section in SCHEMA:
            owner = next(
                (k for k, secs in KIND_SECTIONS.items() if section in secs),
                None,
            )
            raise SpecError(
                section,
                f"section not allowed for kind {kind!r}"
                + (f" (it belongs to kind {owner!r})" if owner else ""),
            )
        raise SpecError(section,
                        f"unknown section"
                        f"{_suggest(section, ('scenario', *allowed))}")
    out = {"scenario": scenario}
    for section in allowed:
        out[section] = _resolve_section(section, doc.get(section, {}),
                                        section)
    if kind == "experiment":
        _validate_experiment(out["experiment"])
    return out


def resolve_section(kind: str, cfg: dict | None = None, *,
                    name: str | None = None, seed: int = 0) -> dict:
    """Resolve a bare kind-config fragment into a full document.

    The spec-builder entry point: the hand-wired experiment functions hand
    their keyword arguments here as ``cfg`` and get back the same resolved
    document a TOML file would produce — one code path for both doors.
    ``cfg`` maps section names to tables for multi-section kinds
    (``synth``), or is the kind's single section directly.
    """
    if kind not in KIND_SECTIONS:
        raise SpecError("scenario.kind",
                        f"must be one of {list(KINDS)}, got {kind!r}"
                        f"{_suggest(str(kind), KINDS)}")
    sections = KIND_SECTIONS[kind]
    cfg = dict(cfg or {})
    doc: dict = {"scenario": {"name": name or kind, "kind": kind,
                              "seed": int(seed)}}
    if len(sections) == 1 and not (set(cfg) <= set(sections)):
        doc[sections[0]] = cfg
    else:
        for key in cfg:
            if key not in sections:
                raise SpecError(
                    key, f"unknown section for kind {kind!r}"
                         f"{_suggest(key, sections)}")
        doc.update({s: cfg[s] for s in sections if s in cfg})
    return resolve(doc)


def apply_overrides(doc: dict, assignments) -> dict:
    """Merge ``section.key=VALUE`` assignments into a raw document.

    The ``--set`` grammar: each ``VALUE`` is parsed as a TOML value
    (``5``, ``0.5``, ``[0.5, 0.8]``, ``true``, ``"ftp"``) and, if it does
    not parse, taken as a bare string.  The merge happens before
    :func:`resolve`, so a mistyped key gets the resolver's key-path error
    and the override flows into :func:`canonical_json` and the digest.
    Returns a new document; ``doc`` is left untouched.
    """
    out = copy.deepcopy(doc)
    for text in assignments:
        path, sep, raw = text.partition("=")
        keys = path.strip().split(".")
        if not sep or len(keys) < 2 or not all(keys):
            raise SpecError(path, f"expected section.key=VALUE, got {text!r}")
        try:
            parsed = loads_spec(f"v = {raw}")
        except SpecError:
            parsed = {}
        value = parsed["v"] if list(parsed) == ["v"] else raw
        table = out
        for depth, key in enumerate(keys[:-1], start=1):
            table = table.setdefault(key, {})
            if not isinstance(table, dict):
                raise SpecError(".".join(keys[:depth]), "is not a table")
        table[keys[-1]] = value
    return out


# ----------------------------------------------------------------------
# TOML round trip


def loads_spec(text: str) -> dict:
    """Parse TOML text into a raw (unresolved) document."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: bundled subset parser
        return _parse_toml_subset(text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError("", f"invalid TOML: {exc}") from None


def load_spec(path: str | Path) -> dict:
    """Load and parse one TOML spec file (unresolved)."""
    return loads_spec(Path(path).read_text(encoding="utf-8"))


def _parse_scalar(token: str, where: str):
    token = token.strip()
    if token.startswith('"'):
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            raise SpecError("", f"{where}: malformed string {token}") \
                from None
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        if any(c in token for c in ".eE") and not token.startswith("0x"):
            return float(token)
        return int(token, 0)
    except ValueError:
        raise SpecError("", f"{where}: malformed value {token!r}") from None


def _split_array(body: str, where: str) -> list[str]:
    """Split a single-line TOML array body on top-level commas."""
    items, depth, in_str, cur = [], 0, False, []
    i = 0
    while i < len(body):
        ch = body[i]
        if in_str:
            cur.append(ch)
            if ch == "\\" and i + 1 < len(body):
                cur.append(body[i + 1])
                i += 1
            elif ch == '"':
                in_str = False
        elif ch == '"':
            in_str = True
            cur.append(ch)
        elif ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    if "".join(cur).strip():
        items.append("".join(cur))
    return items


def _parse_toml_subset(text: str) -> dict:
    """Parse the TOML subset :func:`dump_spec` emits (Python 3.10 path).

    Supported: ``[dotted.section]`` headers, ``key = scalar`` and
    ``key = [scalars]`` pairs, ``#`` comments, basic strings with JSON-style
    escapes.  That is exactly the grammar canonical dumps use; richer input
    should run on Python >= 3.11 where :mod:`tomllib` takes over.
    """
    root: dict = {}
    table = root
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line.startswith("#") or not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError("", f"{where}: malformed section header")
            table = root
            for part in line[1:-1].strip().split("."):
                if not part:
                    raise SpecError("", f"{where}: empty section name")
                table = table.setdefault(part.strip(), {})
            continue
        if "=" not in line:
            raise SpecError("", f"{where}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        # Strip a trailing comment (never inside a string or array).
        if "#" in value and not value.startswith(('"', "[")):
            value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise SpecError("", f"{where}: expected 'key = value'")
        if value.startswith("["):
            if not value.endswith("]"):
                raise SpecError("", f"{where}: arrays must be single-line")
            table[key] = [_parse_scalar(tok, where)
                          for tok in _split_array(value[1:-1], where)]
        else:
            table[key] = _parse_scalar(value, where)
    return root


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_scalar(v) for v in value) + "]"
    return _format_scalar(value)


def dump_spec(doc: dict) -> str:
    """Render a resolved document as canonical TOML.

    Sections and keys come out in schema order; ``None`` values and empty
    tables are omitted (they resolve back to their defaults), which makes
    ``resolve → dump → parse → resolve`` a fixed point.
    """
    doc = resolve(doc)
    lines: list[str] = []
    for section, content in doc.items():
        lines.append(f"[{section}]")
        subtables = []
        for key, value in content.items():
            if value is None:
                continue
            if isinstance(value, dict):
                if value:
                    subtables.append((f"{section}.{key}", value))
                continue
            lines.append(f"{key} = {_format_value(value)}")
        for path, tbl in subtables:
            lines.append("")
            lines.append(f"[{path}]")
            for key in sorted(tbl):
                lines.append(f"{key} = {_format_value(tbl[key])}")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Digest & seeds


def canonical_json(doc: dict) -> str:
    """The resolved document as deterministic JSON (digest input)."""
    return json.dumps(resolve(doc), sort_keys=True, separators=(",", ":"))


def spec_digest(doc: dict) -> str:
    """Content digest of the *normalized* document.

    Key-order and formatting invariant: two TOML files that resolve to the
    same document share a digest; changing any effective value changes it.
    """
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def stage_rngs(seed: int) -> dict[str, object]:
    """Independent per-stage generators for one document seed.

    Spawned over the fixed :data:`STAGES` order via the same
    ``SeedSequence`` tree as everything else in the codebase, so the
    source stream is identical whether or not later stages exist.
    """
    return dict(zip(STAGES, spawn_rngs(int(seed), len(STAGES))))
