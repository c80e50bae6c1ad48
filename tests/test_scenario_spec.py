"""Tests for the declarative scenario spec layer (repro.scenario.spec)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    KIND_SECTIONS,
    KINDS,
    SCHEMA,
    STAGES,
    SpecError,
    apply_overrides,
    canonical_json,
    dump_spec,
    loads_spec,
    resolve,
    resolve_section,
    spec_digest,
    stage_rngs,
)
from repro.scenario.spec import _parse_toml_subset


def _minimal(kind: str) -> dict:
    doc = {"scenario": {"name": f"t-{kind}", "kind": kind}}
    if kind == "experiment":
        doc["experiment"] = {"name": "fig03"}
    return doc


class TestResolve:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fills_every_allowed_section(self, kind):
        resolved = resolve(_minimal(kind))
        assert set(resolved) == {"scenario", *KIND_SECTIONS[kind]}
        for section in KIND_SECTIONS[kind]:
            assert set(resolved[section]) == set(SCHEMA[section])

    @pytest.mark.parametrize("kind", KINDS)
    def test_fixed_point(self, kind):
        resolved = resolve(_minimal(kind))
        assert resolve(resolved) == resolved

    def test_int_coerces_to_float(self):
        doc = _minimal("flowsim")
        doc["flowsim"] = {"duration": 1200}
        assert resolve(doc)["flowsim"]["duration"] == 1200.0

    def test_defaults_are_fresh_copies(self):
        a = resolve(_minimal("shaping"))
        b = resolve(_minimal("shaping"))
        a["shaping"]["rate_factors"].append(99.0)
        assert 99.0 not in b["shaping"]["rate_factors"]


class TestStrictErrors:
    def test_unknown_key_names_path(self):
        doc = _minimal("synth")
        doc["source"] = {"modle": "ftp"}
        with pytest.raises(SpecError) as err:
            resolve(doc)
        assert str(err.value).startswith("source.modle:")
        assert "did you mean 'model'" in str(err.value)
        assert err.value.path == "source.modle"

    def test_unknown_section_for_kind(self):
        doc = _minimal("flowsim")
        doc["shaping"] = {}
        with pytest.raises(SpecError, match="shaping"):
            resolve(doc)

    def test_unknown_scenario_key(self):
        doc = {"scenario": {"name": "x", "kind": "synth", "sed": 3}}
        with pytest.raises(SpecError, match=r"scenario\.sed"):
            resolve(doc)

    def test_missing_required(self):
        with pytest.raises(SpecError, match=r"scenario\.kind"):
            resolve({"scenario": {"name": "x"}})

    def test_bad_choice_suggests(self):
        doc = _minimal("flowsim")
        doc["flowsim"] = {"topology": "lnie"}
        with pytest.raises(SpecError, match="did you mean 'line'"):
            resolve(doc)

    def test_bool_is_not_an_int(self):
        doc = _minimal("synth")
        doc["source"] = {"n_packets": True}
        with pytest.raises(SpecError, match=r"source\.n_packets"):
            resolve(doc)

    def test_list_element_path(self):
        doc = _minimal("shaping")
        doc["shaping"] = {"rate_factors": [0.5, "x"]}
        with pytest.raises(SpecError,
                           match=r"shaping\.rate_factors\[1\]"):
            resolve(doc)

    def test_unknown_experiment_name(self):
        doc = {"scenario": {"name": "x", "kind": "experiment"},
               "experiment": {"name": "fig99"}}
        with pytest.raises(SpecError, match=r"experiment\.name"):
            resolve(doc)

    def test_experiment_param_not_in_signature(self):
        doc = {"scenario": {"name": "x", "kind": "experiment"},
               "experiment": {"name": "fig03", "params": {"nope": 1}}}
        with pytest.raises(SpecError, match=r"experiment\.params\.nope"):
            resolve(doc)

    def test_experiment_seed_param_rejected(self):
        doc = {"scenario": {"name": "x", "kind": "experiment"},
               "experiment": {"name": "fig03", "params": {"seed": 1}}}
        with pytest.raises(SpecError, match="seed"):
            resolve(doc)

    def test_resolve_section_rejects_unknown_synth_section(self):
        with pytest.raises(SpecError, match="unknown section"):
            resolve_section("synth", {"sauce": {}})


# One strategy per section key keeps generated docs always-valid, so the
# round-trip property below is a true fixed-point test, not error fishing.
_SECTION_VALUES = {
    ("scenario", "seed"): st.integers(0, 2**31 - 1),
    ("scenario", "description"): st.text(
        st.characters(min_codepoint=32, max_codepoint=126,
                      exclude_characters='\\"'),
        max_size=20),
    ("flowsim", "topology"): st.sampled_from(["line", "star", "dumbbell"]),
    ("flowsim", "n_nodes"): st.integers(2, 16),
    ("flowsim", "duration"): st.floats(10.0, 1e4),
    ("flowsim", "utilization"): st.floats(0.05, 0.9),
    ("shaping", "rate_factors"): st.lists(
        st.floats(0.1, 2.0), min_size=1, max_size=3),
    ("shaping", "n_packets"): st.integers(100, 10**6),
    ("monitor", "duration"): st.floats(10.0, 1e4),
    ("superpose", "replications"): st.integers(8, 512),
    ("source", "model"): st.sampled_from(
        list(SCHEMA["source"]["model"].choices)),
    ("source", "n_packets"): st.integers(10, 10**6),
    ("condition", "element"): st.sampled_from(
        list(SCHEMA["condition"]["element"].choices)),
    ("validate", "bin_width"): st.floats(0.001, 1.0),
    ("validate", "drift_check"): st.booleans(),
}


@st.composite
def _valid_docs(draw):
    kind = draw(st.sampled_from([k for k in KINDS if k != "experiment"]))
    doc = {"scenario": {"name": "gen", "kind": kind}}
    for (section, key), strat in _SECTION_VALUES.items():
        if section != "scenario" and section not in KIND_SECTIONS[kind]:
            continue
        if draw(st.booleans()):
            doc.setdefault(section, {})[key] = draw(strat)
    return doc


#: Every field whose value must be positive: the bounds the deleted
#: ``flowsim``/``superpose``/``shaping run`` flags enforced in argparse.
POSITIVE_FIELDS = (
    ("flowsim", "n_nodes"), ("flowsim", "duration"),
    ("flowsim", "sessions_per_hour"), ("flowsim", "utilization"),
    ("flowsim", "bin_width"),
    ("superpose", "replications"), ("superpose", "pareto_shape"),
    ("superpose", "battery_sources"), ("superpose", "chunk"),
    ("shaping", "n_packets"), ("shaping", "source_rate"),
    ("shaping", "rate_factors"), ("shaping", "burst_seconds"),
    ("shaping", "shaper_rate_factors"),
)


def _bad_values(section: str, key: str):
    field = SCHEMA[section][key]
    values = [0, -1] + ([float("nan")] if field.type != "int" else [])
    if field.type == "floats":
        return [[1.0, v] for v in values]
    return values


class TestPositiveFields:
    def test_schema_flags_exactly_these(self):
        flagged = {(s, k) for s, fields in SCHEMA.items()
                   for k, f in fields.items() if f.positive}
        assert flagged == set(POSITIVE_FIELDS)

    @pytest.mark.parametrize(
        "section,key,value",
        [(s, k, v) for s, k in POSITIVE_FIELDS for v in _bad_values(s, k)],
        ids=repr,
    )
    def test_non_positive_rejected_with_path(self, section, key, value):
        doc = _minimal(section)
        doc[section] = {key: value}
        with pytest.raises(SpecError) as err:
            resolve(doc)
        assert err.value.path.startswith(f"{section}.{key}")
        assert "> 0" in str(err.value)

    def test_infinity_rejected(self):
        doc = _minimal("flowsim")
        doc["flowsim"] = {"duration": float("inf")}
        with pytest.raises(SpecError, match="flowsim.duration"):
            resolve(doc)


class TestOverrides:
    def test_values_parse_as_toml_else_bare_string(self):
        doc = apply_overrides(_minimal("shaping"), [
            "shaping.n_packets=4000",
            "shaping.source_rate=1.5",
            "shaping.rate_factors=[0.5, 0.8]",
            "shaping.model=pareto",
            "validate.drift_check=false",
            'scenario.description="a = b"',
        ])
        assert doc["shaping"] == {"n_packets": 4000, "source_rate": 1.5,
                                  "rate_factors": [0.5, 0.8],
                                  "model": "pareto"}
        assert doc["validate"] == {"drift_check": False}
        assert doc["scenario"]["description"] == "a = b"

    def test_input_untouched_and_later_wins(self):
        base = _minimal("monitor")
        doc = apply_overrides(base, ["monitor.rate=1", "monitor.rate=2"])
        assert doc["monitor"]["rate"] == 2
        assert "monitor" not in base

    def test_extra_toml_is_a_bare_string_not_a_second_key(self):
        doc = apply_overrides(_minimal("shaping"),
                              ["shaping.model=1\n[x]"])
        assert doc["shaping"]["model"] == "1\n[x]"
        assert "x" not in doc

    @pytest.mark.parametrize("text", ["nokey", "shaping=1", ".x=1",
                                      "shaping.=1"])
    def test_malformed_assignment(self, text):
        with pytest.raises(SpecError, match="section.key=VALUE"):
            apply_overrides(_minimal("shaping"), [text])

    def test_override_through_a_scalar_is_rejected(self):
        with pytest.raises(SpecError) as err:
            apply_overrides(_minimal("shaping"), ["scenario.kind.x=1"])
        assert err.value.path == "scenario.kind"

    def test_typo_gets_resolver_key_path(self):
        doc = apply_overrides(_minimal("flowsim"), ["flowsim.n_node=4"])
        with pytest.raises(SpecError, match="did you mean 'n_nodes'"):
            resolve(doc)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_valid_docs())
    def test_parse_normalize_dump_parse_is_fixed_point(self, doc):
        resolved = resolve(doc)
        text = dump_spec(doc)
        reparsed = loads_spec(text)
        assert resolve(reparsed) == resolved
        # dumping the reparsed doc reproduces the text exactly
        assert dump_spec(reparsed) == text

    @settings(max_examples=40, deadline=None)
    @given(_valid_docs())
    def test_digest_invariant_under_dump_cycle(self, doc):
        assert spec_digest(loads_spec(dump_spec(doc))) == spec_digest(doc)

    def test_minimal_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        doc = _minimal("synth")
        doc["source"] = {"model": "ftp", "n_packets": 500}
        doc["validate"] = {"drift_check": False, "bin_width": 0.5}
        text = dump_spec(doc)
        assert _parse_toml_subset(text) == tomllib.loads(text)


class TestDigest:
    def test_key_order_and_defaults_do_not_matter(self):
        a = {"scenario": {"name": "d", "kind": "synth", "seed": 1},
             "source": {"model": "ftp", "n_packets": 500}}
        b = {"source": {"n_packets": 500, "model": "ftp"},
             "scenario": {"kind": "synth", "seed": 1, "name": "d",
                          "description": ""}}
        assert spec_digest(a) == spec_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_any_effective_change_changes_digest(self):
        base = {"scenario": {"name": "d", "kind": "synth", "seed": 1},
                "source": {"model": "ftp", "n_packets": 500}}
        for mutated in (
            {**base, "scenario": {**base["scenario"], "seed": 2}},
            {**base, "source": {"model": "ftp", "n_packets": 501}},
            {**base, "source": {"model": "poisson", "n_packets": 500}},
        ):
            assert spec_digest(mutated) != spec_digest(base)


class TestTomlSubset:
    def test_error_cites_line_number(self):
        with pytest.raises(SpecError, match="line 3"):
            _parse_toml_subset("[scenario]\nname = \"x\"\nwhat even\n")

    def test_loads_rejects_bad_toml(self):
        with pytest.raises(SpecError):
            loads_spec("[scenario\nname=")


class TestStageRngs:
    def test_fixed_stage_vocabulary(self):
        rngs = stage_rngs(0)
        assert tuple(rngs) == STAGES

    def test_deterministic_and_independent(self):
        a = stage_rngs(5)["source"].random(4)
        b = stage_rngs(5)["source"].random(4)
        c = stage_rngs(5)["network"].random(4)
        assert (a == b).all()
        assert (a != c).any()
