"""Identity contract of the incremental ``DecayedTopK`` reservoir.

``DecayedTopK.update`` and ``merge`` fold new pairs into the stored
arrays, which stay sorted by ``(value, time)``: pairs that cannot beat a
full reservoir's minimum are dropped, the rest are sorted on their own
and merged in by binary search.  These tests pin that path bit for bit
to the whole-reservoir ``lexsort`` it replaced, frozen below, over
random sequences of updates and merges with many tied values, repeated
``(value, time)`` pairs, out-of-order times and age eviction.  The
``decay=0`` twin contract with ``stream.TopK`` is checked on the same
sequences.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitor import DecayedTopK
from repro.stream import TopK


class FrozenDecayedTopK(DecayedTopK):
    """``DecayedTopK`` with the whole-reservoir ``lexsort`` update and
    merge, verbatim."""

    def _select(self, values: np.ndarray, times: np.ndarray,
                evict_age: bool = True) -> None:
        if evict_age and self.decay > 0.0 and values.size:
            young = (self.t_ref - times) <= self._max_age
            values, times = values[young], times[young]
        order = np.lexsort((times, values))
        values, times = values[order], times[order]
        if values.size > self.capacity:
            values = values[values.size - self.capacity:]
            times = times[times.size - self.capacity:]
        self.values, self.times = values, times

    def update(self, values, times=None) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        if times is None:
            t = np.full(arr.size, self.t_ref if self.t_ref > -np.inf else 0.0)
        else:
            t = np.broadcast_to(np.asarray(times, dtype=float), arr.shape)
        self.n_seen += int(arr.size)
        now = max(self.t_ref, float(t.max()))
        self._advance(now)
        if self.decay:
            self.n_eff += float(np.exp(-self.decay * (now - t)).sum())
        else:
            self.n_eff += float(arr.size)
        self._select(np.concatenate([self.values, arr]),
                     np.concatenate([self.times, t]))

    def merge(self, other) -> None:
        if (other.capacity != self.capacity or other.decay != self.decay
                or other.weight_floor != self.weight_floor):
            raise ValueError(
                "cannot merge DecayedTopK with different parameters"
            )
        now = max(self.t_ref, other.t_ref)
        self._advance(now)
        boost = (math.exp(-self.decay * (now - other.t_ref))
                 if now > other.t_ref and other.n_eff else 1.0)
        self.n_eff += other.n_eff * boost
        self.n_seen += other.n_seen
        self._select(np.concatenate([self.values, other.values]),
                     np.concatenate([self.times, other.times]),
                     evict_age=False)


def outcome(fn, *args):
    """A call's result, or its exception, as a comparable value."""
    try:
        with np.errstate(all="ignore"):  # NaN and inf values are allowed
            return "ok", repr(fn(*args))
    except ValueError as err:
        return "error", str(err)


def assert_same_state(fast, frozen):
    # Bytes, not values: -0.0 and 0.0 compare equal but must not swap.
    assert fast.values.tobytes() == frozen.values.tobytes()
    assert fast.times.tobytes() == frozen.times.tobytes()
    assert fast.n_seen == frozen.n_seen
    assert repr(fast.n_eff) == repr(frozen.n_eff)
    assert fast.t_ref == frozen.t_ref
    for fraction in (0.05, 0.3):
        assert (outcome(fast.tail_fit, fraction)
                == outcome(frozen.tail_fit, fraction))
    assert (outcome(fast.max_tail_fraction)
            == outcome(frozen.max_tail_fraction))


def assert_twin(fast, twin):
    assert np.array_equal(fast.values, twin.values, equal_nan=True)
    assert fast.n_seen == twin.n_seen
    got, want = outcome(fast.tail_fit, 0.05), outcome(twin.tail_fit, 0.05)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert got == want


# Few distinct values and times, so ties and repeated pairs are common.
QUANTA = st.sampled_from([1.0, 0.25, 1e-6, 0.1])
ODD_VALUES = st.sampled_from([0.0, -0.0, math.nan, math.inf])


@st.composite
def batches(draw):
    quantum = draw(QUANTA)
    n = draw(st.integers(0, 40))
    vals = [q * quantum for q in draw(st.lists(st.integers(-2, 25),
                                               min_size=n, max_size=n))]
    if vals and draw(st.booleans()):
        vals[draw(st.integers(0, n - 1))] = draw(ODD_VALUES)
    if draw(st.integers(0, 9)) == 0:
        return np.asarray(vals, dtype=float), None
    times = [0.5 * q for q in draw(st.lists(st.integers(0, 120),
                                            min_size=n, max_size=n))]
    if n > 1 and draw(st.booleans()):
        # Repeat one whole (value, time) pair.
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        vals[j], times[j] = vals[i], times[i]
    return np.asarray(vals, dtype=float), np.asarray(times, dtype=float)


#: A step is a batch to update with, or a list of batches that build
#: another reservoir to merge in.
steps = st.lists(st.one_of(batches(), st.lists(batches(), max_size=4)),
                 min_size=1, max_size=12)


def build(cls, batch_list, capacity, decay, floor):
    sketch = cls(capacity, decay=decay, weight_floor=floor)
    for values, times in batch_list:
        sketch.update(values, times)
    return sketch


class TestFrozenOracle:
    @given(steps, st.integers(1, 64), st.sampled_from([0.0, 0.05, 0.5, 3.0]),
           st.sampled_from([1e-9, 0.01, 0.5]))
    @settings(max_examples=300, deadline=None)
    @example(
        # A full reservoir offered pairs equal to its minimum pair.
        [(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0])),
         (np.array([1.0, 1.0, 0.5, 2.0]), np.array([5.0, 4.0, 9.0, 5.0]))],
        3, 0.0, 1e-9,
    )
    def test_update_and_merge_match_full_lexsort(self, plan, capacity,
                                                 decay, floor):
        fast = DecayedTopK(capacity, decay=decay, weight_floor=floor)
        frozen = FrozenDecayedTopK(capacity, decay=decay, weight_floor=floor)
        twin = TopK(capacity) if decay == 0.0 else None
        for step in plan:
            if isinstance(step, tuple):
                values, times = step
                fast.update(values, times)
                frozen.update(values, times)
                if twin is not None:
                    twin.update(values)
            else:
                other_fast = build(DecayedTopK, step, capacity, decay, floor)
                other_frozen = build(FrozenDecayedTopK, step, capacity,
                                     decay, floor)
                assert_same_state(other_fast, other_frozen)
                fast.merge(other_fast)
                frozen.merge(other_frozen)
                if twin is not None:
                    other_twin = TopK(capacity)
                    for values, _ in step:
                        other_twin.update(values)
                    twin.merge(other_twin)
            assert_same_state(fast, frozen)
            if twin is not None:
                assert_twin(fast, twin)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1e-6, 1e-3]))
    @settings(max_examples=20, deadline=None)
    def test_service_sized_batches_of_quantized_gaps(self, seed, quantum):
        # Monitor-shaped input: ~200 gaps per 1 s batch, quantized so
        # many gaps are equal, into a capacity far below the stream.
        rng = np.random.default_rng(seed)
        fast = DecayedTopK(256, decay=0.05)
        frozen = FrozenDecayedTopK(256, decay=0.05)
        t0 = 0.0
        for _ in range(40):
            gaps = np.round(rng.pareto(1.3, 200) * 0.005 / quantum) * quantum
            stamps = t0 + np.cumsum(gaps)
            t0 = float(stamps[-1])
            pos = gaps > 0
            fast.update(gaps[pos], stamps[pos])
            frozen.update(gaps[pos], stamps[pos])
            assert_same_state(fast, frozen)

    def test_warm_batches_leave_the_arrays_untouched(self):
        fast = DecayedTopK(4, decay=0.0)
        fast.update([5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0])
        values, times = fast.values, fast.times
        fast.update([1.0, 4.0, 4.5], [5.0, 6.0, 7.0])
        assert fast.values is values and fast.times is times
        assert fast.n_seen == 7
