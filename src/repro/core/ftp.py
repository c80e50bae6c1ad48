"""FTPDATA burst structure (Section VI).

Two halves:

1. **Analysis** — coalesce a session's FTPDATA connections into *bursts*
   using the paper's spacing rule ("we somewhat arbitrarily chose a spacing
   of <= 4 s as defining connections belonging to the same burst"), then
   measure the burst-size distribution, whose upper 0.5% tail carries
   30-60% of all FTPDATA bytes.

2. **Generation** — an FTP source model: Poisson session arrivals
   (Section III); each session spawns bursts separated by heavy think-time
   gaps; each burst contains a Pareto-distributed number of back-to-back
   FTPDATA connections ("multiple-get file transfers") and a Pareto-tailed
   byte total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrivals.poisson import homogeneous_poisson
from repro.distributions.lognormal import Log2Normal
from repro.distributions.pareto import Pareto
from repro.utils.pool import pool_map
from repro.kernels.segments import grouped_cumsum, grouped_sum, segment_starts
from repro.stats.tail import concentration_curve, top_fraction_share
from repro.traces.columns import ConnectionBatch, decode_protocols
from repro.traces.records import ConnectionRecord
from repro.traces.trace import ConnectionTrace
from repro.utils.rng import SeedLike, as_rng, spawn_rngs, spawn_streams
from repro.utils.validation import require_positive

#: The paper's burst-coalescing spacing rule (seconds).  Footnoted as robust:
#: "using a cutoff spacing of 2 s instead ... results in virtually identical
#: results".
BURST_SPACING_SECONDS = 4.0


@dataclass(frozen=True)
class Burst:
    """A coalesced run of FTPDATA connections within one FTP session."""

    session_id: int
    start_time: float
    end_time: float
    n_connections: int
    total_bytes: int

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def coalesce_bursts(
    starts: np.ndarray,
    durations: np.ndarray,
    data_bytes: np.ndarray,
    spacing: float = BURST_SPACING_SECONDS,
    session_id: int = 0,
) -> list[Burst]:
    """Group one session's FTPDATA connections into bursts.

    "Spacing" is "the amount of time between the end of one FTPDATA
    connection within a session and the beginning of the next"; consecutive
    connections with spacing <= ``spacing`` share a burst.

    The gap scan is vectorized (one ``flatnonzero`` over the gap mask, then
    ``maximum.reduceat``/``add.reduceat`` per burst segment — exact, since
    byte totals are int64 and the max picks an element), with an early-exit
    fast path for the common single-burst session in which no gap exceeds
    the spacing rule.
    """
    require_positive(spacing, "spacing")
    s = np.asarray(starts, dtype=float)
    d = np.asarray(durations, dtype=float)
    b = np.asarray(data_bytes, dtype=np.int64)
    if not s.size == d.size == b.size:
        raise ValueError("starts, durations, data_bytes must have equal length")
    if s.size == 0:
        return []
    order = np.argsort(s, kind="stable")
    s, d, b = s[order], d[order], b[order]
    ends = s + d

    boundaries = (
        np.zeros(0, dtype=np.int64)
        if s.size == 1
        else np.flatnonzero(s[1:] - ends[:-1] > spacing) + 1
    )
    if boundaries.size == 0:
        # Fast path: every gap within the spacing rule — one burst.
        return [Burst(
            session_id=session_id,
            start_time=float(s[0]),
            end_time=float(ends.max()),
            n_connections=s.size,
            total_bytes=int(b.sum()),
        )]
    firsts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [s.size]))
    end_times = np.maximum.reduceat(ends, firsts)
    byte_totals = np.add.reduceat(b, firsts)
    return [
        Burst(
            session_id=session_id,
            start_time=float(s[first]),
            end_time=float(end_time),
            n_connections=int(stop - first),
            total_bytes=int(total),
        )
        for first, stop, end_time, total
        in zip(firsts, stops, end_times, byte_totals)
    ]


def trace_bursts(
    trace: ConnectionTrace, spacing: float = BURST_SPACING_SECONDS
) -> list[Burst]:
    """Coalesce every FTP session's FTPDATA connections in a trace."""
    out: list[Burst] = []
    for sid, rows in trace.sessions("FTPDATA").items():
        out.extend(
            coalesce_bursts(
                trace.start_times[rows],
                trace.durations[rows],
                trace.bytes_resp[rows] + trace.bytes_orig[rows],
                spacing=spacing,
                session_id=sid,
            )
        )
    out.sort(key=lambda burst: burst.start_time)
    return out


def intra_session_spacings(trace: ConnectionTrace) -> np.ndarray:
    """All end-to-next-start gaps between FTPDATA connections sharing a
    session — the distribution plotted in Fig. 8 (clamped at >= 0: slightly
    overlapping transfers count as zero spacing)."""
    gaps = []
    for rows in trace.sessions("FTPDATA").values():
        s = trace.start_times[rows]
        e = s + trace.durations[rows]
        if s.size > 1:
            gaps.append(np.maximum(s[1:] - e[:-1], 0.0))
    if not gaps:
        return np.zeros(0)
    return np.concatenate(gaps)


@dataclass(frozen=True)
class BurstTailSummary:
    """Section VI's headline numbers for one trace."""

    n_bursts: int
    total_bytes: int
    share_top_half_percent: float
    share_top_two_percent: float
    tail_shape: float | None  # Pareto fit of the upper 5% tail

    def dominated_by_tail(self) -> bool:
        """The paper's qualitative claim: the top 0.5% of bursts holds a
        large multiple of its 'fair share' (0.5%) of the bytes."""
        return self.share_top_half_percent > 0.10


def burst_tail_summary(bursts: list[Burst]) -> BurstTailSummary:
    """Compute the Fig. 9 / Section VI tail-dominance numbers."""
    if not bursts:
        raise ValueError("no bursts to summarize")
    sizes = np.array([b.total_bytes for b in bursts], dtype=float)
    tail_shape = None
    if sizes.size >= 40 and np.all(sizes > 0):
        from repro.distributions.pareto import tail_fit

        try:
            tail_shape = tail_fit(sizes, tail_fraction=0.05).shape
        except ValueError:
            tail_shape = None
    return BurstTailSummary(
        n_bursts=sizes.size,
        total_bytes=int(sizes.sum()),
        share_top_half_percent=top_fraction_share(sizes, 0.005),
        share_top_two_percent=top_fraction_share(sizes, 0.02),
        tail_shape=tail_shape,
    )


def burst_concentration(bursts: list[Burst]):
    """Fig. 9's curve for a list of bursts."""
    return concentration_curve([b.total_bytes for b in bursts])


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FtpSessionModel:
    """Generative model of FTP sessions and their FTPDATA connections.

    Structure per session:

    * the session (control connection) arrives Poisson at
      ``sessions_per_hour`` (Section III's validated model);
    * it contains ``n_bursts`` ~ 1 + Geometric bursts (directory listings /
      mget groups), separated by log-normal think gaps well above the 4 s
      coalescing cutoff;
    * each burst holds a discrete-Pareto number of connections separated by
      sub-cutoff gaps, and a Pareto(``burst_bytes_shape``) byte total split
      log-normally across its connections;
    * each connection's duration is its bytes over ``transfer_rate`` plus a
      setup overhead.

    Defaults give burst-size tails with shape ~1.1 — the middle of the
    paper's fitted range 0.9 <= beta <= 1.4.
    """

    sessions_per_hour: float = 40.0
    mean_bursts_per_session: float = 2.5
    conns_per_burst_shape: float = 1.3
    burst_bytes_shape: float = 1.1
    burst_bytes_location: float = 20_000.0
    inter_burst_gap_log2_mean: float = 5.0  # median 2^5 = 32 s
    inter_burst_gap_log2_sd: float = 1.5
    intra_burst_gap_mean: float = 0.8  # well under the 4 s cutoff
    transfer_rate: float = 50_000.0  # bytes/second
    setup_overhead: float = 0.4  # seconds per connection
    max_conns_per_burst: int = 1000

    def __post_init__(self):
        require_positive(self.sessions_per_hour, "sessions_per_hour")
        require_positive(self.transfer_rate, "transfer_rate")

    # ------------------------------------------------------------------
    def synthesize(
        self,
        duration: float,
        seed: SeedLike = None,
        first_session_id: int = 0,
        start_offset: float = 0.0,
        session_starts: np.ndarray | None = None,
        jobs: int = 1,
        batch: bool = True,
    ) -> list[ConnectionRecord]:
        """Generate FTP control + FTPDATA connection records.

        ``session_starts`` overrides the Poisson session arrivals (used by
        the trace synthesizer, which draws them from a diurnal profile).

        RNG-stream contract: after the session starts are drawn from the
        seed stream, every session owns an independent child generator
        (``spawn_rngs``) that draws, in order: host pair, burst count, all
        burst connection counts, all burst byte totals, all inter-burst
        gaps, all connection weights, all intra-burst gaps, and the control
        record's byte counts — each as one vectorized call.  Sessions are
        therefore independent (``jobs > 1`` fans them over a process pool
        with identical output).  The default ``batch=True`` path derives
        the children in one pass (``spawn_streams``, the same streams) and
        assembles all sessions at once, every connection's start time from
        one segmented ``cumsum`` over per-session ``[t0, increments...]``,
        bit-identical to the scalar accumulation of ``batch=False``.

        The batched path assembles columns (:meth:`synthesize_columns` is
        the array-native entry point; :meth:`synthesize_trace` skips record
        objects entirely) and materializes this record list as a view of
        them; ``batch=False`` is the scalar record-path reference.
        """
        if not batch:
            return _records_loop(self, duration, seed, first_session_id,
                                 start_offset, session_starts, jobs)
        cols = self._columns(duration, seed, first_session_id,
                             start_offset, session_starts, jobs)
        starts, durations, codes, b_orig, b_resp, o_hosts, r_hosts, sids = cols
        names = FTP_PROTOCOL_TABLE.tolist()
        return [
            ConnectionRecord(
                start_time=st,
                duration=du,
                protocol=names[c],
                bytes_orig=bo,
                bytes_resp=br,
                orig_host=oh,
                resp_host=rh,
                session_id=si,
            )
            for st, du, c, bo, br, oh, rh, si in zip(
                starts.tolist(), durations.tolist(), codes.tolist(),
                b_orig.tolist(), b_resp.tolist(), o_hosts.tolist(),
                r_hosts.tolist(), sids.tolist(),
            )
        ]

    def synthesize_columns(
        self,
        duration: float,
        seed: SeedLike = None,
        first_session_id: int = 0,
        start_offset: float = 0.0,
        session_starts: np.ndarray | None = None,
        jobs: int = 1,
    ) -> ConnectionBatch:
        """Array-native synthesis: the same stream contract as
        :meth:`synthesize`, assembled directly into a
        :class:`~repro.traces.columns.ConnectionBatch` (bit-identical
        column values; no record objects)."""
        (starts, durations, codes, b_orig, b_resp, o_hosts, r_hosts,
         sids) = self._columns(duration, seed, first_session_id,
                               start_offset, session_starts, jobs)
        return ConnectionBatch(
            start_times=starts,
            durations=durations,
            protocols=decode_protocols(codes, FTP_PROTOCOL_TABLE),
            bytes_orig=b_orig,
            bytes_resp=b_resp,
            orig_hosts=o_hosts,
            resp_hosts=r_hosts,
            session_ids=sids,
        )

    def synthesize_trace(
        self,
        duration: float,
        seed: SeedLike = None,
        name: str = "ftp-model",
        first_session_id: int = 0,
        start_offset: float = 0.0,
        session_starts: np.ndarray | None = None,
        jobs: int = 1,
    ) -> ConnectionTrace:
        """Synthesize straight into a :class:`ConnectionTrace`: columns all
        the way, with the protocol table passed through pre-interned."""
        (starts, durations, codes, b_orig, b_resp, o_hosts, r_hosts,
         sids) = self._columns(duration, seed, first_session_id,
                               start_offset, session_starts, jobs)
        return ConnectionTrace.from_arrays(
            name,
            start_times=starts,
            durations=durations,
            protocol_codes=codes,
            protocol_table=FTP_PROTOCOL_TABLE,
            bytes_orig=b_orig,
            bytes_resp=b_resp,
            orig_hosts=o_hosts,
            resp_hosts=r_hosts,
            session_ids=sids,
        )

    def _columns(self, duration, seed, first_session_id, start_offset,
                 session_starts, jobs):
        """Shared columnar synthesis core (session fan-out + concat)."""
        require_positive(duration, "duration")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        rng = as_rng(seed)
        if session_starts is None:
            session_starts = homogeneous_poisson(
                self.sessions_per_hour / 3600.0, duration, seed=rng
            )
        t0s = np.asarray(session_starts, dtype=float)
        session_rngs = spawn_streams(rng, t0s.size)

        if jobs == 1 or t0s.size <= 1:
            cols = _session_group_columns(self, first_session_id, t0s,
                                          session_rngs)
        else:
            groups = [
                g for g in np.array_split(np.arange(t0s.size), jobs)
                if g.size
            ]
            tasks = [
                (self, first_session_id + int(g[0]), t0s[g],
                 [session_rngs[i] for i in g])
                for g in groups
            ]
            outcomes = pool_map(_session_group_columns, tasks, jobs)
            parts = []
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
                parts.append(outcome)
            cols = tuple(
                np.concatenate([p[j] for p in parts])
                for j in range(len(parts[0]))
            )
        if start_offset:
            cols = (cols[0] + start_offset,) + cols[1:]
        return cols


#: The model's protocol category table (sorted, as interning requires).
FTP_PROTOCOL_TABLE = np.array(["FTP", "FTPDATA"], dtype=object)
_FTP_CODE = 0
_FTPDATA_CODE = 1


def _records_loop(model, duration, seed, first_session_id, start_offset,
                  session_starts, jobs):
    """The ``batch=False`` scalar record path (the stream reference)."""
    require_positive(duration, "duration")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rng = as_rng(seed)
    if session_starts is None:
        session_starts = homogeneous_poisson(
            model.sessions_per_hour / 3600.0, duration, seed=rng
        )
    t0s = np.asarray(session_starts, dtype=float)
    session_rngs = spawn_rngs(rng, t0s.size)

    if jobs == 1 or t0s.size <= 1:
        records = _session_group_records(model, first_session_id, t0s,
                                         session_rngs)
    else:
        groups = [
            g for g in np.array_split(np.arange(t0s.size), jobs)
            if g.size
        ]
        tasks = [
            (model, first_session_id + int(g[0]), t0s[g],
             [session_rngs[i] for i in g])
            for g in groups
        ]
        outcomes = pool_map(_session_group_records, tasks, jobs)
        records = []
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            records.extend(outcome)
    if start_offset:
        records = [
            ConnectionRecord(
                start_time=r.start_time + start_offset,
                duration=r.duration,
                protocol=r.protocol,
                bytes_orig=r.bytes_orig,
                bytes_resp=r.bytes_resp,
                orig_host=r.orig_host,
                resp_host=r.resp_host,
                session_id=r.session_id,
            )
            for r in records
        ]
    return records


def _session_distributions(model):
    gap_dist = Log2Normal(model.inter_burst_gap_log2_mean,
                          model.inter_burst_gap_log2_sd)
    conn_count = Pareto(1.0, model.conns_per_burst_shape)
    burst_bytes = Pareto(model.burst_bytes_location, model.burst_bytes_shape)
    return gap_dist, conn_count, burst_bytes


def _session_draws(model, rng, gap_dist, conn_count, burst_bytes):
    """One session's stochastic draws, in the frozen per-session stream
    order (host pair, burst count, counts, totals, gaps, weights, intra
    gaps, control bytes) — shared by every assembly path."""
    # per-session host pair, so periodic-source detection and
    # host-level analyses see realistic structure
    orig = int(rng.integers(0, 500))
    resp = int(rng.integers(500, 1000))
    n_bursts = 1 + int(rng.geometric(1.0 / model.mean_bursts_per_session))
    conn_raw = conn_count.sample(n_bursts, seed=rng)
    totals = burst_bytes.sample(n_bursts, seed=rng)
    inter_gaps = gap_dist.sample(n_bursts, seed=rng)
    # Pareto(1, shape) floored gives a discrete power-law count >= 1.
    n_conns = np.minimum(
        np.floor(conn_raw).astype(np.int64), model.max_conns_per_burst
    )
    total_conns = int(n_conns.sum())
    weights = rng.lognormal(0.0, 1.0, size=total_conns)
    intra = rng.exponential(model.intra_burst_gap_mean, size=total_conns)
    ctrl_orig = int(rng.integers(200, 2000))
    ctrl_resp = int(rng.integers(500, 5000))
    return (orig, resp, n_conns, totals, inter_gaps, weights, intra,
            ctrl_orig, ctrl_resp)


def _session_group_columns(model: FtpSessionModel, sid0, t0s, rngs):
    """Pool worker: columns for a contiguous group of sessions.

    Only the draws loop over sessions (each session's stream in its frozen
    order); assembly then runs once over the whole group.  Per session the
    row order is the FTPDATA connections in start order followed by the
    FTP control row — the order the record paths emit.  Every column is
    bit-identical to assembling each session on its own: ``wsum`` is a
    per-burst ``grouped_sum``, ``shares`` and ``durs`` are elementwise,
    and the start times are one ``grouped_cumsum`` over per-session
    segments ``[t0, incs...]`` — the very array the scalar walk
    ``t += inc`` accumulates, with ``t0`` summed first.
    """
    gap_dist, conn_count, burst_bytes = _session_distributions(model)
    draws = [_session_draws(model, rng, gap_dist, conn_count, burst_bytes)
             for rng in rngs]
    n_sess = len(draws)
    if not n_sess:
        return (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    (orig, resp, n_conns, totals, inter_gaps, weights, intra,
     ctrl_orig, ctrl_resp) = zip(*draws)
    bursts_per = np.fromiter(map(len, n_conns), np.int64, n_sess)
    n_conns = np.concatenate(n_conns)
    weights = np.concatenate(weights)
    wsum = grouped_sum(weights, n_conns)
    shares = np.maximum(
        (np.repeat(np.concatenate(totals), n_conns) * weights
         / np.repeat(wsum, n_conns)).astype(np.int64),
        1,
    )
    durs = model.setup_overhead + shares / model.transfer_rate

    # Session segments [t0, (conn incs, burst gap) per burst]: the head,
    # then each burst's connections and its gap.
    conns_per = np.add.reduceat(n_conns, segment_starts(bursts_per))
    seg_len = 1 + conns_per + bursts_per
    heads = segment_starts(seg_len)
    session_of_burst = np.repeat(np.arange(n_sess), bursts_per)
    gap_pos = np.cumsum(n_conns + 1) + session_of_burst
    vals = np.empty(int(seg_len.sum()))
    conn_mask = np.ones(vals.size, dtype=bool)
    conn_mask[heads] = False
    conn_mask[gap_pos] = False
    vals[heads] = t0s
    vals[gap_pos] = np.concatenate(inter_gaps) + BURST_SPACING_SECONDS
    vals[conn_mask] = durs + np.concatenate(intra)
    full = grouped_cumsum(vals, seg_len)
    # A connection starts at the running time before its own increment;
    # a session ends before its last burst's gap.
    conn_starts = full[:-1][conn_mask[1:]]
    session_end = full[heads + seg_len - 2]

    # Output rows: each session's connections, then its control row.
    rows_per = conns_per + 1
    ctrl = np.cumsum(rows_per) - 1
    data = np.ones(int(rows_per.sum()), dtype=bool)
    data[ctrl] = False
    starts = np.empty(data.size)
    starts[data] = conn_starts
    starts[ctrl] = t0s
    durations = np.empty(data.size)
    durations[data] = durs
    durations[ctrl] = np.maximum(session_end - t0s, 1.0)
    codes = np.full(data.size, _FTPDATA_CODE, dtype=np.int8)
    codes[ctrl] = _FTP_CODE
    b_orig = np.zeros(data.size, dtype=np.int64)
    b_orig[ctrl] = ctrl_orig
    b_resp = np.empty(data.size, dtype=np.int64)
    b_resp[data] = shares
    b_resp[ctrl] = ctrl_resp
    return (
        starts, durations, codes, b_orig, b_resp,
        np.repeat(np.array(orig, dtype=np.int64), rows_per),
        np.repeat(np.array(resp, dtype=np.int64), rows_per),
        np.repeat(sid0 + np.arange(n_sess, dtype=np.int64), rows_per),
    )


def _session_group_records(model: FtpSessionModel, sid0, t0s, rngs):
    """Pool worker: scalar-assembly records for a group of sessions."""
    gap_dist, conn_count, burst_bytes = _session_distributions(model)
    records: list[ConnectionRecord] = []
    for k, (t0, rng) in enumerate(zip(t0s, rngs)):
        records.extend(
            _one_session_records(model, sid0 + k, float(t0), rng,
                                 gap_dist, conn_count, burst_bytes)
        )
    return records


def _one_session_records(model, sid, t0, rng, gap_dist, conn_count,
                         burst_bytes):
    """One session's records via the scalar assembly reference."""
    (orig, resp, n_conns, totals, inter_gaps, weights, intra,
     ctrl_orig, ctrl_resp) = _session_draws(
        model, rng, gap_dist, conn_count, burst_bytes)
    records, session_end = _assemble_loop(
        model, sid, t0, n_conns, totals, inter_gaps, weights, intra,
        orig, resp,
    )
    records.append(
        ConnectionRecord(
            start_time=t0,
            duration=max(session_end - t0, 1.0),
            protocol="FTP",
            bytes_orig=ctrl_orig,
            bytes_resp=ctrl_resp,
            orig_host=orig,
            resp_host=resp,
            session_id=sid,
        )
    )
    return records


def _assemble_loop(model, sid, t0, n_conns, totals, inter_gaps, weights,
                   intra, orig, resp):
    """Scalar reference assembly over the same pre-drawn variates."""
    records = []
    t = t0
    session_end = t0
    pos = 0
    for bi in range(n_conns.size):
        k = int(n_conns[bi])
        w = weights[pos: pos + k]
        shares = np.maximum(
            (float(totals[bi]) * w / w.sum()).astype(np.int64), 1
        )
        for j in range(k):
            share = shares[j]
            dur = model.setup_overhead + float(share) / model.transfer_rate
            records.append(
                ConnectionRecord(
                    start_time=float(t),
                    duration=float(dur),
                    protocol="FTPDATA",
                    bytes_orig=0,
                    bytes_resp=int(share),
                    orig_host=orig,
                    resp_host=resp,
                    session_id=sid,
                )
            )
            t = t + (dur + float(intra[pos + j]))
        pos += k
        session_end = t
        t = t + (float(inter_gaps[bi]) + BURST_SPACING_SECONDS)
    return records, session_end
