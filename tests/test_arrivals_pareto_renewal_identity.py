"""Identity contract of the Appendix C renewal counts.

``pareto_renewal_counts`` bins sorted arrivals by binary search and draws
its last block in growing sub-chunks.  These tests pin it bit for bit to
the whole-block loop it replaced, frozen below, and pin the in-place
``Pareto.sample`` / ``pareto_renewal_arrivals`` to the expressions they
replaced.
"""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrivals import pareto_renewal_arrivals, pareto_renewal_counts
from repro.arrivals.pareto_renewal import RENEWAL_BLOCK, _add_sorted_bin_counts
from repro.distributions.pareto import Pareto
from repro.utils.rng import as_rng


def frozen_pareto_renewal_counts(n_bins, bin_width, shape, location=1.0,
                                 seed=None):
    """The whole-block loop, verbatim: sample, cumsum, mask, divide, bincount."""
    rng = as_rng(seed)
    horizon = n_bins * bin_width
    dist = Pareto(location, shape)
    counts = np.zeros(n_bins, dtype=np.int64)
    t = 0.0
    block = 1 << 20
    while t < horizon:
        gaps = dist.sample(block, seed=rng)
        cum = t + np.cumsum(gaps)
        t = float(cum[-1])
        in_window = cum[cum < horizon]
        if in_window.size:
            idx = (in_window / bin_width).astype(np.int64)
            counts += np.bincount(idx, minlength=n_bins)
    return counts


def typical_span(arrivals, shape, location):
    """Rough time taken by ``arrivals`` i.i.d. Pareto interarrivals."""
    if shape > 1.0:
        return arrivals * location * shape / (shape - 1.0)
    return location * arrivals ** (1.0 / shape)


@contextlib.contextmanager
def time_box(seconds):
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        n_bins=st.integers(1, 400),
        # Up to four blocks of arrivals, so the block carry and every
        # sub-chunk carry are crossed.
        arrivals=st.one_of(st.integers(1, 20_000),
                           st.integers(RENEWAL_BLOCK - 5_000,
                                       4 * RENEWAL_BLOCK)),
        shape=st.floats(0.5, 50.0),
        location=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_bins=6, arrivals=4 * RENEWAL_BLOCK, shape=1.0, location=1.0,
             seed=0)
    @example(n_bins=1, arrivals=3 * RENEWAL_BLOCK, shape=50.0, location=1.0,
             seed=1)
    def test_matches_frozen_loop(self, n_bins, arrivals, shape, location, seed):
        bin_width = typical_span(arrivals, shape, location) / n_bins
        fast = pareto_renewal_counts(n_bins, bin_width, shape, location,
                                     seed=seed)
        frozen = frozen_pareto_renewal_counts(n_bins, bin_width, shape,
                                              location, seed=seed)
        assert fast.dtype == frozen.dtype
        assert np.array_equal(fast, frozen)

    @pytest.mark.parametrize("n_bins,bin_width,shape,location", [
        (1000, 1e3, 1.0, 1.0),   # Fig. 14
        (3, 1e7, 1.0, 1.0),      # a Fig. 15 panel, cut short
        (2000, 1e2, 2.0, 1.0),   # Appendix C scaling grid
        (2000, 1e4, 0.5, 1.0),
        (500, 0.1, 3.0, 0.01),   # bins narrower than most gaps
        (37, 1.0 / 3.0, 1.5, 0.2),
    ])
    def test_matches_frozen_loop_on_experiment_grid(self, n_bins, bin_width,
                                                    shape, location):
        for seed in range(3):
            assert np.array_equal(
                pareto_renewal_counts(n_bins, bin_width, shape, location,
                                      seed=seed),
                frozen_pareto_renewal_counts(n_bins, bin_width, shape,
                                             location, seed=seed))

    def test_same_result_from_spawned_generator(self):
        stream = np.random.SeedSequence(4).spawn(1)[0]
        fast = pareto_renewal_counts(6, 1e7, 1.0,
                                     seed=np.random.default_rng(stream))
        frozen = frozen_pareto_renewal_counts(
            6, 1e7, 1.0, seed=np.random.default_rng(stream))
        assert np.array_equal(fast, frozen)


class TestSortedBinning:
    """``int(x / b)`` and ``x < k * b`` disagree at float edges."""

    @staticmethod
    def edge_neighbours(bin_width, ks, extra=()):
        points = list(extra)
        for k in ks:
            edge = k * bin_width
            below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
            points += [np.nextafter(below, 0.0), below, edge, above,
                       np.nextafter(above, np.inf)]
        return np.sort(np.asarray(points, dtype=float))

    def check(self, x, bin_width):
        expected = np.bincount((x / bin_width).astype(np.int64))
        counts = np.zeros(expected.size, dtype=np.int64)
        _add_sorted_bin_counts(counts, x, bin_width)
        assert np.array_equal(counts, expected)

    def test_known_disagreements(self):
        # 1.7 < 17 * 0.1 == 1.7000000000000002, yet int(1.7 / 0.1) == 17;
        # 4.3 == 43 * 0.1, yet int(4.3 / 0.1) == 42.  The search position
        # must move left for the first and right for the second.
        assert 1.7 < 17 * 0.1 and int(1.7 / 0.1) == 17
        assert 4.3 == 43 * 0.1 and int(4.3 / 0.1) == 42
        x = self.edge_neighbours(0.1, [17, 43], extra=[0.05, 1.7, 4.3, 4.3])
        self.check(x, 0.1)

    @pytest.mark.parametrize("bin_width", [0.1, 0.3, 1.0 / 3.0, 0.7, 1e-3,
                                           15.036443894814957, 1e7])
    def test_every_edge_neighbour(self, bin_width):
        x = self.edge_neighbours(bin_width, range(1, 120))
        self.check(x, bin_width)

    def test_repeated_values_at_an_edge(self):
        x = np.repeat(self.edge_neighbours(0.1, range(1, 60)), 3)
        self.check(x, 0.1)

    def test_single_bin(self):
        self.check(np.array([0.11, 0.12, 0.12, 0.19]), 0.1)

    def test_top_edge_clamped_into_last_bin(self):
        # Strictly inside the window yet divides to n_bins.
        n_bins, bin_width = 4300, 15.036443894814957
        x = np.array([1.0, np.nextafter(n_bins * bin_width, 0.0)])
        assert int(x[-1] / bin_width) == n_bins
        counts = np.zeros(n_bins, dtype=np.int64)
        _add_sorted_bin_counts(counts, x, bin_width)
        assert counts[0] == 1 and counts[-1] == 1 and counts.sum() == 2


class TestBadArguments:
    """Arguments that used to hang or fail deep inside numpy."""

    @pytest.mark.parametrize("n_bins,bin_width,name", [
        (4, math.inf, "bin_width"),
        (10**300, 1e10, "n_bins \\* bin_width"),
        (4, math.nan, "bin_width"),
    ])
    def test_infinite_window_rejected(self, n_bins, bin_width, name):
        with time_box(5.0), pytest.raises(ValueError, match=name):
            pareto_renewal_counts(n_bins, bin_width, 1.0, seed=1)

    @pytest.mark.parametrize("n_bins", [4.0, -1, "4"])
    def test_non_integer_bin_count_rejected(self, n_bins):
        with time_box(5.0), pytest.raises(ValueError, match="n_bins"):
            pareto_renewal_counts(n_bins, 1.0, 1.0, seed=1)

    def test_non_integer_arrival_count_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            pareto_renewal_arrivals(4.0, shape=1.0)

    def test_numpy_integer_bin_count_accepted(self):
        assert np.array_equal(
            pareto_renewal_counts(np.int64(5), 10.0, 1.0, seed=2),
            pareto_renewal_counts(5, 10.0, 1.0, seed=2))


class TestInPlaceSampling:
    @pytest.mark.parametrize("shape", [0.5, 0.9, 1.0, 1.2, 2.0, 50.0])
    @pytest.mark.parametrize("location", [1e-3, 0.1, 1.0, 7.5])
    def test_sample_matches_out_of_place_expression(self, shape, location):
        u = np.random.default_rng(3).random(10_007)
        expected = location * np.power(u, -1.0 / shape)
        got = Pareto(location, shape).sample(10_007, seed=3)
        assert np.array_equal(got, expected)

    def test_scalar_draw(self):
        u = np.random.default_rng(5).random()
        got = Pareto(2.0, 1.3).sample(None, seed=5)
        assert np.ndim(got) == 0
        assert got == 2.0 * np.power(u, -1.0 / 1.3)

    def test_shaped_draw(self):
        u = np.random.default_rng(6).random((3, 4))
        got = Pareto(0.5, 0.8).sample((3, 4), seed=6)
        assert np.array_equal(got, 0.5 * np.power(u, -1.0 / 0.8))

    @pytest.mark.parametrize("shape,location", [(1.0, 1.0), (0.9, 0.1),
                                                (1.5, 3.0)])
    def test_arrivals_match_out_of_place_cumsum(self, shape, location):
        gaps = Pareto(location, shape).sample(50_000, seed=7)
        got = pareto_renewal_arrivals(50_000, shape, location, seed=7)
        assert np.array_equal(got, np.cumsum(gaps))
