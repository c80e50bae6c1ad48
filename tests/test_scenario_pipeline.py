"""Tests for the shared scenario pipeline, shard algebra, and spec cache."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import ResultCache, content_digest, source_digest
from repro.experiments import REGISTRY
from repro.scenario import (
    execute,
    run_spec,
    run_spec_cached,
    sharded_summary,
    spec_digest,
)
from repro.scenario.shard import shard_bounds

#: Small-but-viable synth doc: enough events for every battery check,
#: fast enough for the tier-1 suite.
SYNTH_DOC = {
    "scenario": {"name": "synth-test", "kind": "synth", "seed": 3},
    "source": {"model": "poisson", "n_packets": 6000},
    "validate": {"bin_width": 0.05, "min_level": 5},
}


class TestShardBounds:
    def test_partitions_exactly(self):
        for n in (0, 1, 7, 100):
            for shards in (1, 2, 3, 8):
                bounds = shard_bounds(n, shards)
                covered = [i for lo, hi in bounds for i in range(lo, hi)]
                assert covered == list(range(n))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in shard_bounds(10, 3)]
        assert max(sizes) - min(sizes) <= 1


class TestShardedSummary:
    def test_matches_serial_bitwise(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.exponential(0.01, 5000).cumsum())
        sizes = rng.integers(40, 1500, times.size).astype(float)
        serial = sharded_summary(times, sizes, jobs=1)
        for jobs in (2, 3, 5):
            sharded = sharded_summary(times, sizes, jobs=jobs)
            assert sharded.n == serial.n
            assert (sharded.counts.finalize() ==
                    serial.counts.finalize()).all()
            f = serial.best_tail_fraction(0.03, "gap")
            assert (sharded.interarrival_tail_beta(f) ==
                    serial.interarrival_tail_beta(f))


class TestSpecVsRegistryIdentity:
    """The two front doors — spec documents and registry calls — share one
    resolver and one runner, so their outputs are byte-identical."""

    def test_flowsim(self):
        doc = {"scenario": {"name": "f", "kind": "flowsim", "seed": 0},
               "flowsim": {"duration": 1200.0, "n_nodes": 4,
                           "sessions_per_hour": 900.0}}
        out = run_spec(doc)
        direct = REGISTRY["flowsim"](seed=0, duration=1200.0, n_nodes=4,
                                     sessions_per_hour=900.0)
        assert out.rendered == direct.render()

    def test_shaping(self):
        cfg = {"n_packets": 4000, "rate_factors": [0.5],
               "burst_seconds": [0.5], "shaper_rate_factors": [1.5]}
        doc = {"scenario": {"name": "s", "kind": "shaping", "seed": 0},
               "shaping": cfg}
        out = run_spec(doc)
        assert out.rendered == execute("shaping", cfg, seed=0).render()

    def test_experiment_kind(self):
        doc = {"scenario": {"name": "e", "kind": "experiment", "seed": 1},
               "experiment": {"name": "fig03"}}
        out = run_spec(doc)
        assert out.rendered == REGISTRY["fig03"](seed=1).render()
        assert out.kind == "experiment"

    def test_experiment_kind_with_params(self):
        doc = {"scenario": {"name": "e", "kind": "experiment", "seed": 2},
               "experiment": {"name": "weathermap",
                              "params": {"hours": 24}}}
        out = run_spec(doc)
        assert out.rendered == REGISTRY["weathermap"](seed=2,
                                                      hours=24).render()


#: Small configs for every family kind, seconds each.
SMALL_CFGS = {
    "flowsim": {"duration": 1200.0, "n_nodes": 4,
                "sessions_per_hour": 900.0},
    "shaping": {"n_packets": 4000, "rate_factors": [0.5],
                "burst_seconds": [0.5], "shaper_rate_factors": [1.5]},
    "monitor": {"duration": 200.0},
    "superpose": {"replications": 8, "battery_sources": 64},
}


class TestSpawnedSeeds:
    """``run all --spawn-seeds`` hands each family a Generator."""

    @pytest.mark.parametrize("kind", sorted(SMALL_CFGS))
    def test_generator_seed_runs_deterministically(self, kind):
        cfg = SMALL_CFGS[kind]
        a = execute(kind, cfg, seed=np.random.default_rng(0))
        b = execute(kind, cfg, seed=np.random.default_rng(0))
        assert a.render() == b.render()

    def test_shaping_int_seed_path_unchanged(self):
        from repro.shaping.scenario import ShapingScenario, run_scenario

        cfg = SMALL_CFGS["shaping"]
        direct = run_scenario(ShapingScenario(
            n_packets=4000, rate_factors=(0.5,), burst_seconds=(0.5,),
            shaper_rate_factors=(1.5,), seed=3))
        assert execute("shaping", cfg, seed=3).render() == direct.render()


class TestSynthSharding:
    def test_jobs_do_not_change_anything(self):
        serial = run_spec(SYNTH_DOC, jobs=1)
        sharded = run_spec(SYNTH_DOC, jobs=3)
        assert (serial.result.sketch_fingerprint() ==
                sharded.result.sketch_fingerprint())
        assert serial.rendered == sharded.rendered
        a, b = serial.result.payload(), sharded.result.payload()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_poisson_synth_verdict(self):
        out = run_spec(SYNTH_DOC)
        assert out.result.battery.verdict == "poisson-like"
        assert out.result.battery.a2_passed

    def test_policer_reports_loss(self):
        doc = {"scenario": {"name": "p", "kind": "synth", "seed": 3},
               "source": {"model": "ftp", "n_packets": 4000},
               "condition": {"element": "policer", "rate_factor": 0.6,
                             "burst_seconds": 0.5},
               "validate": {"bin_width": 0.02, "min_level": 6}}
        out = run_spec(doc)
        assert out.result.loss_fraction > 0
        assert out.result.battery.n_events < 4000


class TestSpecCache:
    def test_hit_miss_and_mutation(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache)
        out2, s2 = run_spec_cached(SYNTH_DOC, cache=cache)
        assert (s1, s2) == ("miss", "hit")
        serial = run_spec(SYNTH_DOC)
        assert out2.rendered == serial.rendered
        # restating defaults / reordering keys still hits
        reordered = {
            "validate": {"min_level": 5, "bin_width": 0.05},
            "scenario": {"kind": "synth", "seed": 3, "name": "synth-test",
                         "description": ""},
            "source": {"n_packets": 6000, "model": "poisson"},
        }
        _, s3 = run_spec_cached(reordered, cache=cache)
        assert s3 == "hit"
        # any effective change misses: the digest is content-keyed
        mutated = {**SYNTH_DOC,
                   "source": {"model": "poisson", "n_packets": 6001}}
        _, s4 = run_spec_cached(mutated, cache=cache)
        assert s4 == "miss"

    def test_seed_override_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache)
        _, s2 = run_spec_cached(SYNTH_DOC, seed=4, cache=cache)
        assert (s1, s2) == ("miss", "miss")

    def test_seed_override_is_written_into_the_document(self, tmp_path):
        seeded = {**SYNTH_DOC, "scenario": {**SYNTH_DOC["scenario"],
                                            "seed": 4}}
        direct = run_spec(seeded)
        for use_cache in (True, False):
            out, _ = run_spec_cached(SYNTH_DOC, seed=4, use_cache=use_cache,
                                     cache=ResultCache(tmp_path))
            payload = out.payload()
            assert payload["seed"] == 4
            assert payload["spec_digest"] == spec_digest(seeded)
            assert (out.result.sketch_fingerprint() ==
                    direct.result.sketch_fingerprint())
        _, state = run_spec_cached(seeded, cache=ResultCache(tmp_path))
        assert state == "hit"

    def test_no_cache_bypasses(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache, use_cache=False)
        _, s2 = run_spec_cached(SYNTH_DOC, cache=cache, use_cache=False)
        assert (s1, s2) == ("off", "off")

    def test_content_digest_contract(self):
        base = content_digest("repro.scenario.pipeline", "abc")
        assert base == content_digest("repro.scenario.pipeline", b"abc")
        assert base != content_digest("repro.scenario.pipeline", "abd")
        assert base != source_digest("repro.scenario.pipeline")


class TestScenarioCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "spec.toml"
        path.write_text(text)
        return str(path)

    def test_validate_committed_examples(self, capsys):
        import glob
        specs = sorted(glob.glob("examples/specs/*.toml"))
        assert len(specs) >= 6
        assert main(["scenario", "validate", *specs]) == 0
        out = capsys.readouterr().out
        assert out.count(": valid") == len(specs)

    def test_validate_bad_spec_rc2(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[scenario]\nname = "b"\nkind = "synth"\n\n[source]\n'
            'modle = "ftp"\n')
        assert main(["scenario", "validate", path]) == 2
        err = capsys.readouterr().err
        assert "source.modle" in err and "did you mean" in err

    def test_run_spec_file(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[scenario]\nname = "cli-synth"\nkind = "synth"\nseed = 3\n\n'
            '[source]\nmodel = "poisson"\nn_packets = 6000\n\n'
            '[validate]\nbin_width = 0.05\nmin_level = 5\n')
        rc = main(["scenario", "run", path, "--no-cache", "--jobs", "2",
                   "--json", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "cli-synth"
        assert payload["battery"]["verdict"] == "poisson-like"
        bench = tmp_path / "BENCH_scenario_cli-synth.json"
        assert bench.exists()
        on_disk = json.loads(bench.read_text())
        assert on_disk["battery"] == payload["battery"]

    SYNTH_TOML = ('[scenario]\nname = "cli-synth"\nkind = "synth"\n'
                  'seed = 3\n\n[source]\nmodel = "ftp"\nn_packets = 500\n')

    def test_set_values_reach_the_resolved_document(self, tmp_path, capsys):
        path = self._write(tmp_path, self.SYNTH_TOML)
        rc = main(["scenario", "validate", path,
                   "--set", "source.n_packets=6000",        # int
                   "--set", "validate.bin_width=0.05",      # float
                   "--set", "validate.drift_check=false",   # bool
                   "--set", "source.model=poisson"])        # bare string
        assert rc == 0
        out = capsys.readouterr().out
        for line in ('n_packets = 6000', 'bin_width = 0.05',
                     'drift_check = false', 'model = "poisson"'):
            assert line in out
        rc = main(["scenario", "validate", "examples/specs/shaping_grid.toml",
                   "--set", "shaping.rate_factors=[0.5, 0.8]"])  # list
        assert rc == 0
        assert "rate_factors = [0.5, 0.8]" in capsys.readouterr().out

    @pytest.mark.parametrize("assignment,where", [
        ("source.n_packts=6000", "source.n_packts: unknown key (did you "
                                 "mean 'n_packets'?)"),
        ("sauce.model=ftp", "sauce: unknown section (did you mean "
                            "'source'?)"),
        ("flowsim.n_nodes=3", "flowsim: section not allowed"),
        ("source.n_packets=many", "source.n_packets: expected an integer"),
    ])
    def test_set_errors_rc2_with_path(self, tmp_path, capsys, assignment,
                                      where):
        path = self._write(tmp_path, self.SYNTH_TOML)
        assert main(["scenario", "run", path, "--no-cache",
                     "--set", assignment]) == 2
        captured = capsys.readouterr()
        assert where in captured.err and captured.out == ""

    def test_flowsim_negative_nodes_rejected(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[scenario]\nname = "f"\nkind = "flowsim"\n\n[flowsim]\n'
            'n_nodes = -3\nduration = -5.0\nbin_width = 0.0\n')
        assert main(["scenario", "validate", path]) == 2
        assert "flowsim.n_nodes" in capsys.readouterr().err
        for key in ("duration=-5.0", "bin_width=0.0", "utilization=nan"):
            assert main(["scenario", "validate",
                         "examples/specs/flowsim_line.toml",
                         "--set", f"flowsim.{key}"]) == 2
            assert f"flowsim.{key.split('=')[0]}" in capsys.readouterr().err

    def test_set_changes_cache_key(self, tmp_path, capsys):
        path = self._write(tmp_path, self.SYNTH_TOML)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        states = []
        for extra in ([], [], ["--set", "source.n_packets=501"]):
            assert main(["scenario", "run", path, *cache, *extra]) == 0
            states.append(capsys.readouterr().out.rsplit("cache ", 1)[1])
        assert states == ["miss]\n", "hit]\n", "miss]\n"]

    def test_seed_flag_equals_set_scenario_seed(self, tmp_path, capsys):
        path = self._write(tmp_path, self.SYNTH_TOML)
        payloads = []
        for flags in (["--seed", "5"], ["--set", "scenario.seed=5"]):
            assert main(["scenario", "run", path, "--no-cache", "--json",
                         *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("compute_time_s")
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert payloads[0]["seed"] == 5

    def test_run_unknown_file_rc2(self, tmp_path, capsys):
        assert main(["scenario", "run",
                     str(tmp_path / "missing.toml")]) == 2
