"""Bit-identity of the one-pass FTP session assembly.

``FtpSessionModel`` draws every session from its own child stream in a
frozen order, then assembles all sessions of a group at once.  These tests
pin all eight output columns, byte for byte and dtype for dtype, to two
independent references on the same seed:

* the per-session assembly it replaced, frozen in ``tests/oracles``, fed
  by ``spawn_rngs`` children;
* the scalar record path, ``synthesize(batch=False)``.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.poisson import homogeneous_poisson
from repro.core.ftp import FTP_PROTOCOL_TABLE, FtpSessionModel
from repro.utils.rng import as_rng, spawn_rngs

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles.ftp_assembly import _session_group_columns as oracle_group  # noqa: E402

COLUMNS = ("starts", "durations", "codes", "bytes_orig", "bytes_resp",
           "orig_hosts", "resp_hosts", "session_ids")


def _columns(model, duration, seed, **kw):
    return model._columns(duration, seed, kw.get("first_session_id", 0),
                          kw.get("start_offset", 0.0),
                          kw.get("session_starts"), kw.get("jobs", 1))


def _oracle_columns(model, duration, seed, first_session_id=0,
                    start_offset=0.0, session_starts=None, jobs=1):
    """``_columns`` as it was before the one-pass assembly: ``spawn_rngs``
    children, each session assembled on its own (``jobs`` never changes
    the output)."""
    rng = as_rng(seed)
    if session_starts is None:
        session_starts = homogeneous_poisson(
            model.sessions_per_hour / 3600.0, duration, seed=rng)
    t0s = np.asarray(session_starts, dtype=float)
    cols = oracle_group(model, first_session_id, t0s,
                        spawn_rngs(rng, t0s.size))
    if start_offset:
        cols = (cols[0] + start_offset,) + cols[1:]
    return cols


def _record_columns(records, like):
    """``batch=False`` records as columns with the dtypes of ``like``."""
    codes = {name: i for i, name in enumerate(FTP_PROTOCOL_TABLE.tolist())}
    fields = (
        [r.start_time for r in records],
        [r.duration for r in records],
        [codes[r.protocol] for r in records],
        [r.bytes_orig for r in records],
        [r.bytes_resp for r in records],
        [r.orig_host for r in records],
        [r.resp_host for r in records],
        [r.session_id for r in records],
    )
    return tuple(np.array(f, dtype=c.dtype) for f, c in zip(fields, like))


def _assert_identical(got, want, label):
    assert len(got) == len(want) == len(COLUMNS)
    for name, a, b in zip(COLUMNS, got, want):
        assert a.dtype == b.dtype, (label, name, a.dtype, b.dtype)
        assert a.shape == b.shape, (label, name, a.shape, b.shape)
        assert a.tobytes() == b.tobytes(), (label, name)


def _check(model, duration, seed, **kw):
    got = _columns(model, duration, seed, **kw)
    _assert_identical(got, _oracle_columns(model, duration, seed, **kw),
                      "oracle")
    records = model.synthesize(duration, seed=seed, batch=False, **kw)
    _assert_identical(got, _record_columns(records, got), "batch=False")
    return got


SESSION_STARTS = st.one_of(
    st.none(),
    st.just(np.zeros(0)),
    st.lists(st.floats(min_value=0.0, max_value=5_000.0), min_size=1,
             max_size=12).map(lambda xs: np.sort(np.array(xs))),
)


@given(
    sessions_per_hour=st.floats(min_value=1.0, max_value=1_000.0),
    duration=st.floats(min_value=1.0, max_value=3_600.0),
    seed=st.integers(min_value=0, max_value=2**32),
    first_session_id=st.integers(min_value=0, max_value=10**6),
    start_offset=st.sampled_from([0.0, 0.1, 1234.5678, 86_400.0]),
    session_starts=SESSION_STARTS,
    max_conns=st.sampled_from([1, 3, 1000]),
    mean_bursts=st.floats(min_value=1.0, max_value=6.0),
    jobs=st.sampled_from([1, 3]),
)
@settings(max_examples=60, deadline=None)
def test_columns_match_oracle_and_record_path(
        sessions_per_hour, duration, seed, first_session_id, start_offset,
        session_starts, max_conns, mean_bursts, jobs):
    model = FtpSessionModel(sessions_per_hour=sessions_per_hour,
                            max_conns_per_burst=max_conns,
                            mean_bursts_per_session=mean_bursts)
    _check(model, duration, seed, first_session_id=first_session_id,
           start_offset=start_offset, session_starts=session_starts,
           jobs=jobs)


def test_many_sessions_many_segment_lengths():
    """>= 5k sessions: the segmented cumsum sees many distinct session
    lengths, including the heavy-tailed long ones."""
    model = FtpSessionModel(sessions_per_hour=4_000.0)
    got = _check(model, 5 * 3600.0, 11, first_session_id=7,
                 start_offset=12.5)
    sids = got[-1]
    assert np.unique(sids).size >= 5_000
    lengths = np.unique(np.bincount(sids - 7))
    assert lengths.size >= 50


def test_single_session():
    model = FtpSessionModel()
    got = _check(model, 10.0, 3, session_starts=np.array([4.0]))
    assert got[2][-1] == 0 and got[0][-1] == 4.0  # control row last


def test_generator_seed_left_where_record_path_leaves_it():
    """The one-pass children advance a caller's Generator exactly as
    ``spawn_rngs`` does, so later draws from it are unchanged."""
    model = FtpSessionModel(sessions_per_hour=300.0)
    fast, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2):  # successive calls get disjoint children
        got = _columns(model, 3600.0, fast)
        records = model.synthesize(3600.0, seed=ref, batch=False)
        _assert_identical(got, _record_columns(records, got), "generator")
    assert (fast.bit_generator.seed_seq.n_children_spawned
            == ref.bit_generator.seed_seq.n_children_spawned)
    assert fast.bit_generator.state == ref.bit_generator.state


def test_non_pcg64_generator_falls_back_to_spawn():
    model = FtpSessionModel(sessions_per_hour=300.0)
    got = _columns(model, 3600.0, np.random.Generator(np.random.Philox(9)))
    records = model.synthesize(
        3600.0, seed=np.random.Generator(np.random.Philox(9)), batch=False)
    _assert_identical(got, _record_columns(records, got), "philox")
