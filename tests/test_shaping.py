"""In-network conditioning and its trace-side inverse (repro.shaping).

The acceptance properties of the subsystem:

* the vectorized GCRA scan is *bit-identical* to the scalar
  ``GcraCore.offer`` reference loop on float64-exact inputs;
* a policer partitions its input exactly (accept ∪ drop, nothing lost,
  accepted timestamps untouched); a lossless shaper conserves the byte
  total and the packet multiset, moving timestamps only forward and
  monotonically;
* bucket state carries across chunk boundaries exactly — any split of
  a column (or a batch stream) reproduces the unsplit result;
* the policing detector's accumulator merge is exact and order-
  invariant, so the verdict is independent of chunking and jobs;
* the closed loop passes: traffic policed at a known rate is recovered
  from the surviving trace within 10%, and the unpoliced control comes
  back clean;
* the fluid forms conserve bytes and respect the (rho, sigma) envelope,
  and the queueing/CLI composition surfaces work end to end.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.queueing import fifo_queue
from repro.replay.source import synthesize_packets
from repro.shaping import (
    DetectorConfig,
    GcraCore,
    LeakyBucketShaper,
    PolicingDetector,
    ShapingScenario,
    TokenBucketPolicer,
    condition_batches,
    detect_times,
    detect_trace,
    fluid_police_curve,
    reference_condition,
    run_scenario,
    shaped_curve_eval,
    shaper_drain_end,
)
from repro.traces.trace import PacketTrace

DETECTOR = DetectorConfig()


@pytest.fixture(scope="module")
def dense():
    """Dense ftp packet columns (times, sizes) plus their mean rate."""
    trace = synthesize_packets("ftp", 40_000, seed=7, rate=240.0)
    t = np.asarray(trace.timestamps, dtype=float)
    c = np.asarray(trace.sizes, dtype=float)
    return t, c, float(c.sum() / (t[-1] - t[0]))


def _arrivals(seed, n, span=30.0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, span, n))
    costs = rng.uniform(1.0, 2000.0, n)
    return times, costs


def _exact_arrivals(seed, n):
    """Float64-exact columns: dyadic times, integer costs."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.integers(0, 64, n)) / 64.0
    costs = rng.integers(1, 4096, n).astype(float)
    return times, costs


# ----------------------------------------------------------------------
# GCRA core
# ----------------------------------------------------------------------
class TestGcraCore:
    def test_advance_is_deficit_admission(self):
        core = GcraCore(100.0, 10.0)
        assert core.advance(0.0, 10.0) == 0.0  # one burst rides free
        # 1000 more units at 100/s: tat jumps to 10.1, wait is tat
        # minus the one-burst (0.1 s) conformance tolerance.
        assert core.advance(0.0, 1000.0) == pytest.approx(10.0, rel=1e-12)

    def test_offer_policer_reject_leaves_state_untouched(self):
        # Dyadic rate/depth so every tat step is float64-exact.
        core = GcraCore(128.0, 16.0)
        assert core.offer(0.0, 16.0) == (True, 0.0)
        # Conformance is tat - now <= burst_s: the packet that lands
        # exactly on the edge still conforms.
        assert core.offer(0.0, 16.0) == (True, 0.0)
        tat = core.tat
        ok, delay = core.offer(0.0, 16.0)  # now past the tolerance
        assert not ok and delay == pytest.approx(0.125)
        assert core.tat == tat  # the defining property of a policer

    def test_offer_shaper_delay_to_conformance(self):
        core = GcraCore(128.0, 16.0)
        core.offer(0.0, 16.0)
        core.offer(0.0, 16.0)  # tat now one burst past the tolerance edge
        ok, delay = core.offer(0.0, 16.0, max_wait=float("inf"))
        assert ok
        assert delay == pytest.approx(0.125)  # held until it conforms

    def test_idle_credit_capped_at_one_burst(self):
        core = GcraCore(128.0, 16.0)
        core.offer(0.0, 16.0)
        # A long idle gap refills exactly one burst, never more: one
        # full burst plus the edge packet conform, the next does not.
        assert core.offer(1000.0, 16.0) == (True, 0.0)
        assert core.offer(1000.0, 16.0) == (True, 0.0)
        ok, _ = core.offer(1000.0, 16.0)
        assert not ok

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="rate must be > 0"):
            GcraCore(0.0, 1.0)
        with pytest.raises(ValueError, match="depth must be > 0"):
            GcraCore(1.0, 0.0)

    def test_burst_reset_repr(self):
        core = GcraCore(200.0, 50.0)
        assert core.burst_s == pytest.approx(0.25)
        core.advance(1.0, 5.0)
        assert core.tat is not None
        core.reset()
        assert core.tat is None
        assert "GcraCore" in repr(core)


# ----------------------------------------------------------------------
# Vectorized elements vs the scalar reference
# ----------------------------------------------------------------------
class TestScanMatchesReference:
    @pytest.mark.parametrize("element_cls,kwargs", [
        (TokenBucketPolicer, {}),
        (LeakyBucketShaper, {}),
        (LeakyBucketShaper, {"max_delay": 0.5}),
    ])
    def test_bit_identical_on_exact_inputs(self, element_cls, kwargs):
        for seed in range(10):
            times, costs = _exact_arrivals(seed, 500)
            # Power-of-two rate: cost / rate is exact in float64.
            element = element_cls(rate=4096.0, depth=8192.0, **kwargs)
            fast = element.apply(times, costs)
            slow = reference_condition(element, times, costs)
            np.testing.assert_array_equal(fast.accept, slow.accept)
            np.testing.assert_array_equal(fast.emission_times,
                                          slow.emission_times)
            assert fast.final_tat == slow.final_tat  # exact, not approx

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketPolicer(10.0, 10.0).apply(np.array([1.0, 0.5]))

    def test_cost_validation(self):
        pol = TokenBucketPolicer(10.0, 10.0)
        with pytest.raises(ValueError, match="one cost per arrival"):
            pol.apply(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match=">= 0"):
            pol.apply(np.array([0.0]), np.array([-1.0]))


class TestElementProperties:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 400),
           rate=st.floats(10.0, 1e5), burst_s=st.floats(0.05, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_policer_partitions_input_exactly(self, seed, n, rate, burst_s):
        times, costs = _arrivals(seed, n)
        res = TokenBucketPolicer(rate, burst_s * rate).apply(times, costs)
        assert res.n_accepted + res.n_dropped == n
        # Accepted packets pass through with timestamps untouched ...
        np.testing.assert_array_equal(res.accepted_times,
                                      times[res.accept])
        # ... and the cost partition is exact.
        assert res.dropped_cost + res.accepted_costs.sum() == \
            pytest.approx(costs.sum(), rel=1e-12)
        # Dropped rows have no emission time.
        assert np.isnan(res.emission_times[~res.accept]).all()
        assert res.max_delay_s == 0.0

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 400),
           rate=st.floats(10.0, 1e5), burst_s=st.floats(0.05, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_shaper_conserves_and_is_monotone(self, seed, n, rate, burst_s):
        times, costs = _arrivals(seed, n)
        res = LeakyBucketShaper(rate, burst_s * rate).apply(times, costs)
        assert res.accept.all()  # lossless: nothing dropped
        assert res.accepted_costs.sum() == pytest.approx(costs.sum(),
                                                         rel=1e-12)
        np.testing.assert_array_equal(res.accepted_costs, costs)  # multiset
        # Only timestamps move: forward, and monotonically per flow.
        assert (res.delays >= 0.0).all()
        assert (np.diff(res.accepted_times) >= 0.0).all()

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 300),
           max_delay=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_shaper_honours_its_bound(self, seed, n, max_delay):
        times, costs = _arrivals(seed, n, span=5.0)
        res = LeakyBucketShaper(2000.0, 1000.0,
                                max_delay=max_delay).apply(times, costs)
        assert (res.delays <= max_delay + 1e-9).all()

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 400),
           k=st.integers(1, 399))
    @settings(max_examples=60, deadline=None)
    def test_tat_carry_makes_any_split_exact(self, seed, n, k):
        # Float64-exact columns: the split result is *bit-identical*.
        times, costs = _exact_arrivals(seed, n)
        k = min(k, n - 1)
        for element in (TokenBucketPolicer(512.0, 1024.0),
                        LeakyBucketShaper(512.0, 1024.0)):
            whole = element.apply(times, costs)
            a = element.apply(times[:k], costs[:k])
            b = element.apply(times[k:], costs[k:], tat=a.final_tat)
            np.testing.assert_array_equal(
                whole.accept, np.concatenate([a.accept, b.accept])
            )
            np.testing.assert_array_equal(
                whole.emission_times,
                np.concatenate([a.emission_times, b.emission_times]),
            )
            assert whole.final_tat == b.final_tat

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 400),
           k=st.integers(1, 399))
    @settings(max_examples=40, deadline=None)
    def test_tat_carry_on_arbitrary_floats(self, seed, n, k):
        # On arbitrary float inputs the scan's block boundaries move with
        # the split, so emissions agree to rounding; the accept partition
        # and the carried bucket state stay exact.
        times, costs = _arrivals(seed, n)
        k = min(k, n - 1)
        for element in (TokenBucketPolicer(500.0, 800.0),
                        LeakyBucketShaper(500.0, 800.0)):
            whole = element.apply(times, costs)
            a = element.apply(times[:k], costs[:k])
            b = element.apply(times[k:], costs[k:], tat=a.final_tat)
            np.testing.assert_array_equal(
                whole.accept, np.concatenate([a.accept, b.accept])
            )
            np.testing.assert_allclose(
                whole.emission_times,
                np.concatenate([a.emission_times, b.emission_times]),
                rtol=1e-12,
            )
            assert whole.final_tat == pytest.approx(b.final_tat, rel=1e-12)


class TestConditionBatches:
    def _batches(self, times, sizes, splits):
        from repro.stream.reader import PacketBatch

        out = []
        for lo, hi in zip([0] + list(splits), list(splits) + [times.size]):
            n = hi - lo
            out.append(PacketBatch(
                timestamps=times[lo:hi],
                protocols=np.array(["FTPDATA"] * n, dtype=object),
                connection_ids=np.zeros(n, dtype=np.int64),
                directions=np.zeros(n, dtype=np.int8),
                sizes=sizes[lo:hi].astype(np.int64),
                user_data=np.ones(n, dtype=bool),
            ))
        return out

    def test_stream_is_chunking_invariant(self):
        times, costs = _arrivals(11, 600)
        sizes = np.ceil(costs)
        pol = TokenBucketPolicer(5000.0, 2500.0)
        one = list(condition_batches(self._batches(times, sizes, []), pol))
        many = list(condition_batches(
            self._batches(times, sizes, [7, 100, 101, 400]), pol
        ))
        cat = lambda bs, f: np.concatenate([f(b) for b in bs])  # noqa: E731
        np.testing.assert_array_equal(
            cat(one, lambda b: b.timestamps), cat(many, lambda b: b.timestamps)
        )
        np.testing.assert_array_equal(
            cat(one, lambda b: b.sizes), cat(many, lambda b: b.sizes)
        )

    def test_shaper_rewrites_timestamps(self):
        times, costs = _arrivals(3, 200, span=2.0)
        sizes = np.ceil(costs)
        sh = LeakyBucketShaper(10_000.0, 2_000.0)
        out = list(condition_batches(self._batches(times, sizes, [50]), sh))
        shaped = np.concatenate([b.timestamps for b in out])
        assert shaped.size == times.size
        assert (shaped >= times).all()


# ----------------------------------------------------------------------
# Fluid forms
# ----------------------------------------------------------------------
class TestFluidForms:
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 200),
           rate=st.floats(100.0, 1e5), burst_s=st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_police_curve_conserves_and_caps(self, seed, n, rate, burst_s):
        times, costs = _arrivals(seed, n, span=20.0)
        cum = np.concatenate([[0.0], np.cumsum(costs[1:])])
        out_t, out_c, dropped = fluid_police_curve(
            times, cum, rate, burst_s * rate
        )
        assert out_c[-1] + dropped == pytest.approx(cum[-1], rel=1e-9,
                                                    abs=1e-6)
        assert (np.diff(out_c) >= -1e-9).all()  # admitted curve monotone
        # Admitted never exceeds offered at any admitted breakpoint.
        offered_at = np.interp(out_t, times, cum)
        assert (out_c <= offered_at + 1e-6 * max(cum[-1], 1.0)).all()

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 200),
           rate=st.floats(100.0, 1e5), burst_s=st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_shaped_curve_conserves_at_drain_and_respects_envelope(
            self, seed, n, rate, burst_s):
        times, costs = _arrivals(seed, n, span=20.0)
        cum = np.concatenate([[0.0], np.cumsum(costs[1:])])
        depth = burst_s * rate
        drain = shaper_drain_end(times, cum, rate, depth)
        at = np.linspace(times[0], drain, 64)
        out = shaped_curve_eval(times, cum, rate, depth, at)
        assert (np.diff(out) >= -1e-6).all()  # output curve monotone
        # Never ahead of the offered curve, never beyond the envelope.
        assert (out <= np.interp(at, times, cum,
                                 right=float(cum[-1])) + 1e-6).all()
        assert out[-1] == pytest.approx(cum[-1], rel=1e-9, abs=1e-6)


# ----------------------------------------------------------------------
# Policing detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_closed_loop_recovers_rate_within_10pct(self, dense):
        times, costs, mean_rate = dense
        rate = 0.5 * mean_rate
        res = TokenBucketPolicer(rate, 0.5 * rate).apply(times, costs)
        verdict = detect_times(res.accepted_times, res.accepted_costs,
                               DETECTOR)
        assert verdict.policed
        assert abs(verdict.rate - rate) / rate <= 0.10
        assert verdict.confidence >= DETECTOR.decision_threshold

    def test_unpoliced_control_is_clean(self, dense):
        times, costs, _ = dense
        verdict = detect_times(times, costs, DETECTOR)
        assert not verdict.policed

    @pytest.mark.parametrize("model", ["poisson", "fulltel"])
    def test_smooth_and_telnet_controls_are_clean(self, model):
        trace = synthesize_packets(model, 20_000, seed=3)
        verdict = detect_times(np.asarray(trace.timestamps, float),
                               np.asarray(trace.sizes, float), DETECTOR)
        assert not verdict.policed

    def test_merge_is_exact_and_order_invariant(self, dense):
        times, costs, mean_rate = dense
        rate = 0.5 * mean_rate
        res = TokenBucketPolicer(rate, 0.5 * rate).apply(times, costs)
        t, c = res.accepted_times, res.accepted_costs

        whole = PolicingDetector(DETECTOR)
        whole.update(t, c)
        reference = whole.infer()

        for n_parts, order_seed in [(3, 0), (7, 1), (13, 2)]:
            bounds = np.linspace(0, t.size, n_parts + 1).astype(int)
            parts = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                d = PolicingDetector(DETECTOR)
                d.update(t[lo:hi], c[lo:hi])
                parts.append(d)
            order = np.random.default_rng(order_seed).permutation(n_parts)
            merged = parts[order[0]]
            for i in order[1:]:
                merged.merge(parts[int(i)])
            assert merged.infer() == reference  # exact dataclass equality

    def test_detect_trace_jobs_invariant(self, dense, tmp_path):
        from repro.traces.io import write_packet_trace

        times, costs, mean_rate = dense
        rate = 0.5 * mean_rate
        res = TokenBucketPolicer(rate, 0.5 * rate).apply(times, costs)
        trace = PacketTrace.from_arrays(
            "policed",
            timestamps=res.accepted_times,
            sizes=np.maximum(res.accepted_costs, 1.0).astype(np.int64),
        )
        path = tmp_path / "policed.txt"
        write_packet_trace(trace, path)
        serial = detect_trace(path, jobs=1, config=DETECTOR,
                              target_chunk_bytes=64 * 1024)
        pooled = detect_trace(path, jobs=3, config=DETECTOR,
                              target_chunk_bytes=64 * 1024)
        assert serial == pooled
        assert serial.policed
        assert abs(serial.rate - rate) / rate <= 0.10

    def test_detect_trace_rejects_connection_traces(self, tmp_path):
        from repro.traces.io import write_connection_trace
        from repro.traces.trace import ConnectionTrace

        trace = ConnectionTrace.from_arrays(
            "conns", start_times=np.array([0.0, 1.0, 2.0])
        )
        path = tmp_path / "conns.txt"
        write_connection_trace(trace, path)
        with pytest.raises(ValueError):
            detect_trace(path)

    def test_verdict_surfaces(self, dense):
        times, costs, mean_rate = dense
        rate = 0.5 * mean_rate
        res = TokenBucketPolicer(rate, 0.5 * rate).apply(times, costs)
        verdict = detect_times(res.accepted_times, res.accepted_costs)
        payload = verdict.payload()
        assert json.dumps(payload)  # JSON-safe
        assert payload["policed"] and payload["rate_bps"] > 0
        assert "policing detected" in verdict.render()
        clean = detect_times(times, costs)
        assert "no policing detected" in clean.render()


# ----------------------------------------------------------------------
# Queueing composition
# ----------------------------------------------------------------------
class TestQueueComposition:
    def test_policer_prefilters_arrivals_and_services(self):
        # fifo_queue conditions in packet units (cost 1 per arrival):
        # 500 packets over 10 s against a 20 pkt/s bucket must drop.
        times, _ = _arrivals(5, 500, span=10.0)
        services = np.linspace(1e-4, 2e-4, times.size)
        pol = TokenBucketPolicer(20.0, 10.0)
        res = fifo_queue(times, services, pre=pol)
        applied = res.conditioning[0]
        assert applied.n_dropped > 0
        assert res.waiting_times.size == applied.n_accepted
        # Services are filtered alongside the arrivals they belong to.
        np.testing.assert_array_equal(res.service_times,
                                      services[applied.accept])

    def test_shaper_smooths_the_queue(self):
        rng = np.random.default_rng(8)
        # One tight burst: shaping spreads it out, the queue calms down.
        times = np.sort(rng.uniform(0.0, 0.05, 400))
        raw = fifo_queue(times, 1e-3)
        shaped = fifo_queue(
            times, 1e-3,
            pre=LeakyBucketShaper(1000.0, 10.0),  # unit costs: 1000 pkt/s
        )
        assert shaped.conditioning[0].max_delay_s > 0.0
        assert shaped.mean_wait < raw.mean_wait

    def test_elements_chain_in_order(self):
        times, _ = _arrivals(6, 300, span=5.0)
        chain = (LeakyBucketShaper(80.0, 20.0),
                 TokenBucketPolicer(50.0, 12.5))
        res = fifo_queue(times, 1e-4, pre=chain)
        assert len(res.conditioning) == 2
        assert res.conditioning[0].element is chain[0]
        assert res.conditioning[1].n_dropped > 0

    def test_first_packet_always_conforms(self):
        # A fresh GCRA bucket admits its first arrival unconditionally,
        # so a real element can never empty the queue's input.
        res = fifo_queue(np.array([0.0]), 1e-3,
                         pre=TokenBucketPolicer(1.0, 0.5))
        assert res.conditioning[0].n_accepted == 1

    def test_dropping_everything_raises(self):
        class _DropAll:
            def apply(self, times, costs=None):
                res = TokenBucketPolicer(1.0, 1.0).apply(times)
                object.__setattr__(
                    res, "accept", np.zeros(times.size, dtype=bool)
                )
                return res

            def __repr__(self):
                return "_DropAll()"

        with pytest.raises(ValueError, match="dropped every arrival"):
            fifo_queue(np.array([0.0, 1.0]), 1e-3, pre=_DropAll())


# ----------------------------------------------------------------------
# Scenario + CLI
# ----------------------------------------------------------------------
SMOKE_SCENARIO = dict(n_packets=30_000, rate_factors=(0.5,),
                      burst_seconds=(0.25, 1.0),
                      shaper_rate_factors=(1.5,), seed=7)


class TestScenario:
    def test_closed_loop_smoke_grid(self):
        report = run_scenario(ShapingScenario(**SMOKE_SCENARIO))
        assert report.control_clean
        assert report.n_recovered == len(report.cells) == 2
        assert report.max_rate_error <= 0.10
        assert report.recovery_ok
        # Lossless shaping must not move the coarse-scale LRD signature.
        assert report.coarse_hurst_conserved
        for cell in report.hurst_cells:
            assert cell.hurst_fine <= report.baseline_hurst_fine + 0.05
        text = report.render()
        assert "police → detect recovery grid" in text
        assert "Hurst impact" in text
        assert json.dumps(report.payload())

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="shaper_rate_factors"):
            ShapingScenario(shaper_rate_factors=(0.5,))
        with pytest.raises(ValueError, match="non-empty"):
            ShapingScenario(rate_factors=())

    def test_experiment_registered(self):
        from repro.experiments import REGISTRY

        assert "shaping" in REGISTRY


class TestCli:
    SPEC = "examples/specs/shaping_grid.toml"

    def test_shaping_run_json(self, capsys):
        rc = main([
            "scenario", "run", self.SPEC, "--seed", "7", "--no-cache",
            "--set", "shaping.n_packets=30000",
            "--set", "shaping.rate_factors=[0.5]",
            "--set", "shaping.burst_seconds=[0.25, 1.0]",
            "--set", "shaping.shaper_rate_factors=[1.5]", "--json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["recovery_ok"]
        assert out["n_recovered"] == 2
        assert all(c["rate_error"] <= 0.10 for c in out["cells"]
                   if c["recovered"])

    def test_shaping_run_writes_bench_json(self, tmp_path, capsys):
        rc = main([
            "scenario", "run", self.SPEC, "--seed", "7", "--no-cache",
            "--set", "shaping.n_packets=30000",
            "--set", "shaping.rate_factors=[0.5]",
            "--set", "shaping.burst_seconds=[0.25]",
            "--set", "shaping.shaper_rate_factors=[1.5]",
            "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(
            (tmp_path / "BENCH_scenario_shaping-grid.json").read_text()
        )
        assert payload["recovery_ok"] and "compute_time_s" in payload

    def test_loopback_police_flag(self, capsys):
        rc = main([
            "replay", "loopback", "--packets", "3000", "--model", "ftp",
            "--rate", "240", "--seed", "7", "--police-rate", "20000",
            "--json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["zero_loss"]
        assert out["n_sent"] < 3000  # the policer dropped records in-path

    def test_loopback_shape_and_police_are_exclusive(self):
        with pytest.raises(SystemExit):
            main([
                "replay", "loopback", "--packets", "100",
                "--police-rate", "1000", "--shape-rate", "1000",
            ])
