"""The per-session FTP column assembly that ``repro.core.ftp`` used before
it assembled every session of a group in one pass, kept verbatim as the
oracle for ``tests/test_core_ftp_identity.py``.

Each session draws through ``repro.core.ftp._session_draws`` (the frozen
per-session stream order) and is assembled on its own: one ``cumsum`` over
``[t0, increments...]``, then ``np.append`` / ``np.full`` per column and a
``concatenate`` over sessions.
"""

import numpy as np

from repro.core.ftp import (
    _FTP_CODE,
    _FTPDATA_CODE,
    BURST_SPACING_SECONDS,
    FtpSessionModel,
    _session_distributions,
    _session_draws,
)
from repro.kernels.segments import grouped_sum


def _session_group_columns(model: FtpSessionModel, sid0, t0s, rngs):
    """Pool worker: columns for a contiguous group of sessions.

    Per session the row order is the FTPDATA connections in start order
    followed by the FTP control row — the same order the record paths
    emit, so the concatenated columns are bit-identical to them.
    """
    gap_dist, conn_count, burst_bytes = _session_distributions(model)
    parts = []
    for k, (t0, rng) in enumerate(zip(t0s, rngs)):
        t0 = float(t0)
        (orig, resp, n_conns, totals, inter_gaps, weights, intra,
         ctrl_orig, ctrl_resp) = _session_draws(
            model, rng, gap_dist, conn_count, burst_bytes)
        shares, durs, conn_starts, session_end = _assemble_batched(
            model, t0, n_conns, totals, inter_gaps, weights, intra
        )
        n = conn_starts.size
        starts = np.append(conn_starts, t0)
        durations = np.append(durs, max(session_end - t0, 1.0))
        codes = np.full(n + 1, _FTPDATA_CODE, dtype=np.int8)
        codes[-1] = _FTP_CODE
        b_orig = np.zeros(n + 1, dtype=np.int64)
        b_orig[-1] = ctrl_orig
        b_resp = np.append(shares, np.int64(ctrl_resp))
        parts.append((
            starts, durations, codes, b_orig, b_resp,
            np.full(n + 1, orig, dtype=np.int64),
            np.full(n + 1, resp, dtype=np.int64),
            np.full(n + 1, sid0 + k, dtype=np.int64),
        ))
    if not parts:
        return (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    if len(parts) == 1:
        return parts[0]
    return tuple(
        np.concatenate([p[j] for p in parts]) for j in range(len(parts[0]))
    )


def _assemble_batched(model, t0, n_conns, totals, inter_gaps, weights, intra):
    """Vectorized assembly: one ``cumsum`` over the session's interleaved
    increments (connection ``duration + intra gap``, then burst
    ``inter gap + spacing``).  ``cumsum`` accumulates sequentially, so every
    start time is bit-identical to the scalar ``t += inc`` walk of
    :func:`_assemble_loop`."""
    wsum = grouped_sum(weights, n_conns)
    shares = np.maximum(
        (np.repeat(totals, n_conns) * weights
         / np.repeat(wsum, n_conns)).astype(np.int64),
        1,
    )
    durs = model.setup_overhead + shares / model.transfer_rate
    seg_len = n_conns + 1
    total_len = int(seg_len.sum())
    gap_pos = np.cumsum(seg_len) - 1
    conn_mask = np.ones(total_len, dtype=bool)
    conn_mask[gap_pos] = False
    incs = np.empty(total_len)
    incs[conn_mask] = durs + intra
    incs[gap_pos] = inter_gaps + BURST_SPACING_SECONDS
    full = np.cumsum(np.concatenate(([t0], incs)))
    conn_starts = full[:-1][conn_mask]
    session_end = float(full[-2])
    return shares, durs, conn_starts, session_end
