"""Batched superposition of heavy-tailed sources (Section VII-B at scale).

The paper's second self-similarity construction multiplexes many ON/OFF
sources; the López-Oliveros & Resnick phase diagram needs 10^5–10^6 of
them, which the per-source ``arrivals.onoff.multiplex_onoff`` loop cannot
reach.  This module synthesizes whole *chunks* of sources at once:

* period lengths are drawn as ``(n_alive, SUPER_ROUNDS * PERIOD_BLOCK)``
  arrays — one ``Generator`` call per source per *eight* rounds instead of
  one ``sample`` per half-block.  PCG64's uniform/exponential fills are
  call-size invariant (``random(16)`` eight times equals ``random(128)``
  on the same stream), and over-drawing a source that dies mid-super-block
  is invisible because its stream is never consumed again — so each child
  stream yields exactly the variates :meth:`OnOffSource.intervals` would
  see (phase coin first, then per round the current phase's half-block
  followed by the other's), and the batched aggregate is bit-identical to
  the frozen per-source loop
  (:func:`repro.kernels.reference.multiplex_onoff_loop`) on the same seed;
* child streams are derived in one pass:
  :func:`repro.utils.rng.child_rngs` runs numpy's SeedSequence hashing
  as uint32 array arithmetic over all of a chunk's children at once, and
  builds each ``Generator(PCG64(...))`` from its precomputed state row
  — the states ``SeedSequence(entropy, spawn_key=(*key, first + i),
  pool_size=p)`` yields, checked against numpy on every call;
* interval→bin overlap is accumulated without materializing interval
  lists: each iteration takes its live (slot, source) pairs slot-major
  and applies their fractional edge-bin contributions with one
  ``np.add.at`` on a flattened per-source work matrix, each pair's
  first-bin add before its last-bin add.  ``np.add.at`` applies repeated
  indices in index order, so every cell sees the reference's
  time-ordered add sequence.  Interior fully-covered bins — each covered
  by exactly one ON interval, since intervals are disjoint — are marked
  in an int16 coverage-diff array and paid with a single
  ``+= bin_width`` after a cumsum;
* chunks fan out through :func:`repro.utils.pool.pool_map_shared`, each
  worker writing its partial aggregate into a slot of one shared buffer
  and returning only metadata — no count arrays ride through pickle.

Reduction contract: sources are partitioned into fixed ``chunk``-sized
ranges, each chunk's partial is accumulated fully-left in source order,
and the total is accumulated fully-left over chunk partials in chunk
order.  The chunk grid — not ``jobs`` — defines the float-addition tree,
so ``jobs=N`` is bit-identical to serial for any ``N``, and with
``chunk >= n_sources`` the tree degenerates to the frozen loop's
fully-left sum, making the kernel bit-identical to it.  (The one
theoretical exception: if a float quotient ``t / bin_width`` rounds
across a bin boundary, an edge add and an interior ``+= bin_width`` can
land on the same cell in a different order than the reference — a
sub-ulp-probability event per interval that the equivalence tests pin
down empirically.)

:func:`superpose_renewal` is the Pareto-renewal sibling: counts are
integers, so its aggregation is exact and order-free — bit-identical to
:func:`repro.kernels.reference.superpose_renewal_loop` for *any* chunking
and ``jobs``, provided the per-stream draw protocol (``gap_block`` gaps
per round) matches.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import partial

import numpy as np
from numpy.random import Generator

from repro.arrivals.onoff import PERIOD_BLOCK, OnOffSource
from repro.distributions.exponential import Exponential
from repro.distributions.pareto import Pareto
from repro.utils.pool import pool_map_shared
from repro.utils.rng import SeedLike, child_rngs, child_streams
from repro.utils.validation import require_count, require_positive

#: Sources synthesized per batched chunk.  The chunk grid is the reduction
#: unit (see the module docstring), so changing it changes the float-sum
#: association of the ON/OFF aggregate (never the renewal counts).
DEFAULT_CHUNK = 1024

#: Gaps drawn per source per round in :func:`superpose_renewal`.  Part of
#: the RNG-stream protocol: both the batched kernel and the frozen
#: reference must use the same value to consume streams identically.
DEFAULT_GAP_BLOCK = 256

#: Rounds of :data:`PERIOD_BLOCK` periods drawn per ``Generator`` call on
#: the merged ON/OFF fast path.  Purely an amortization knob: PCG64 fills
#: are call-size invariant, so any value consumes the streams identically.
SUPER_ROUNDS = 8

_DRAWERS = {
    "uniform": lambda rng, out: rng.random(out=out),
    "stdexp": lambda rng, out: rng.standard_exponential(out=out),
}


def _raw_spec(dist):
    """Split a distribution into (raw-draw kind, params, elementwise map).

    For the two distribution families the superposition experiments use,
    ``dist.sample(k, seed=rng)`` decomposes into a raw generator call that
    consumes the stream (``rng.random`` / ``rng.standard_exponential``)
    plus a deterministic elementwise map — which lets one merged
    ``(n, block)`` raw draw replace two half-block ``sample`` calls while
    consuming each stream identically.  Returns ``(None, None, None)`` for
    anything else; callers then fall back to per-source ``sample`` calls.
    """
    if type(dist) is Pareto:
        loc, expo = dist.location, -1.0 / dist.shape
        return "uniform", (loc, expo), lambda raw: loc * np.power(raw, expo)
    if type(dist) is Exponential:
        mean = dist.mean
        return "stdexp", (mean,), lambda raw: mean * raw
    return None, None, None


def _seed_info(seed: SeedLike, n_sources: int, jobs: int):
    """Resolve ``seed`` into per-source child-stream instructions.

    Returns a picklable ``(entropy, spawn_key, first, pool_size)`` tuple
    (:func:`repro.utils.rng.child_streams`) from which any process
    reconstructs child ``i`` as ``SeedSequence(entropy,
    spawn_key=(*spawn_key, first + i), pool_size=pool_size)`` — exactly the
    children ``utils.rng.spawn_rngs`` would hand the reference loop, with
    a caller's ``SeedSequence`` or ``Generator`` counter advanced as
    ``spawn_rngs`` advances it.  A Generator whose children are not PCG64
    streams of a plain SeedSequence yields its spawned Generators instead.
    """
    if isinstance(seed, np.random.Generator) and jobs > 1:
        raise ValueError(
            "jobs > 1 requires an int / SeedSequence / None seed; a "
            "live Generator cannot be split across processes "
            "reproducibly"
        )
    info = child_streams(seed, n_sources)
    return seed.spawn(n_sources) if info is None else info


def _child_rngs(seed_info, lo: int, hi: int) -> list[np.random.Generator]:
    if isinstance(seed_info, list):
        return seed_info[lo:hi]
    entropy, spawn_key, first, pool_size = seed_info
    return child_rngs(entropy, spawn_key, first + lo, hi - lo, pool_size)


# ----------------------------------------------------------------------
# ON/OFF fluid superposition
# ----------------------------------------------------------------------
def _onoff_chunk(out, lo, hi, source, n_bins, bin_width, seed_info,
                 group_size=None):
    """Synthesize sources ``[lo, hi)`` and accumulate their fluid count
    rows fully-left into ``out``.

    With ``group_size=None`` (the :func:`superpose_onoff` path) ``out`` has
    shape ``(n_bins,)`` and receives every source.  Otherwise ``out`` has
    shape ``(groups_per_chunk, n_bins)`` and local source ``j`` accumulates
    into row ``j // group_size`` — the :func:`superpose_onoff_groups` path,
    which requires ``lo`` to sit on a group boundary."""
    m = hi - lo
    duration = n_bins * bin_width
    block = PERIOD_BLOCK
    half = block // 2
    rngs = _child_rngs(seed_info, lo, hi)
    on_kind, on_args, on_tf = _raw_spec(source.on_dist)
    off_kind, off_args, off_tf = _raw_spec(source.off_dist)
    fast = on_kind is not None and off_kind is not None
    # Identical ON/OFF laws draw and transform the whole block uniformly,
    # with no phase split at all.
    same = fast and on_kind == off_kind and on_args == off_args
    merged = fast and on_kind == off_kind
    # Rounds per iteration: the merged path draws SUPER_ROUNDS rounds with
    # one Generator call per source (PCG64 fills are call-size invariant;
    # over-draw past a source's death never gets consumed), the per-source
    # draw paths keep one round per iteration.
    n_rounds = SUPER_ROUNDS if merged else 1
    S = block * n_rounds  # periods per iteration
    shalf = S // 2  # ON slots per iteration

    phase_on = np.fromiter(map(Generator.random, rngs), float, m) < 0.5

    work = np.zeros((m, n_bins))
    work_flat = work.ravel()
    cover = np.zeros((m, n_bins + 1), dtype=np.int16)
    cover_flat = cover.ravel()
    used_cover = False

    raw = np.empty((m, S))
    lengths = np.empty((m, S))
    trans = np.empty((m, S))
    take_buf = np.empty((m, S))
    bounds_buf = np.empty((m, S + 1))
    cum_buf = np.empty((m, S + 1))
    cols_off = 2 * np.arange(shalf)  # ON-slot column offsets
    a_rows = np.arange(m)  # global chunk-row index per alive slot
    a_phase = phase_on
    a_t = np.zeros(m)
    a_rngs = rngs
    a_idx = None  # original raw-row index per alive slot; None = identity
    if merged:
        # One raw call covers the whole super-block.  Pre-bind each
        # source's draw to its fixed row of ``raw`` as a no-argument
        # partial, so the per-iteration draw loop runs at C speed via
        # deque(map(...)).
        attr = "random" if on_kind == "uniform" else "standard_exponential"
        a_draw = [
            partial(getattr(rng, attr), out=row)
            for rng, row in zip(rngs, raw)
        ]
    n_alive = m
    rounds = 0
    while n_alive:
        rounds += n_rounds
        L = lengths[:n_alive]
        if merged:
            deque(map(operator.call, a_draw), maxlen=0)
            if a_idx is None:
                R = raw[:n_alive]
            else:
                R = take_buf[:n_alive]
                np.take(raw, a_idx, axis=0, out=R)
            # Raw layout per super-block row: [r0 cur(8), r0 oth(8),
            # r1 cur(8), ...]; lengths interleave cur/oth within each round.
            R4 = R.reshape(n_alive, n_rounds, 2, half)
            L4 = L.reshape(n_alive, n_rounds, half, 2)
            if same:
                T = trans[:n_alive]
                if on_kind == "uniform":
                    loc, expo = on_args
                    np.power(R, expo, out=T)
                    np.multiply(loc, T, out=T)
                else:
                    np.multiply(on_args[0], R, out=T)
                T4 = T.reshape(n_alive, n_rounds, 2, half)
                L4[:, :, :, 0] = T4[:, :, 0, :]
                L4[:, :, :, 1] = T4[:, :, 1, :]
            else:
                onr = a_phase
                offr = ~a_phase
                if onr.any():
                    L4[onr, :, :, 0] = on_tf(R4[onr, :, 0, :])
                    L4[onr, :, :, 1] = off_tf(R4[onr, :, 1, :])
                if offr.any():
                    L4[offr, :, :, 0] = off_tf(R4[offr, :, 0, :])
                    L4[offr, :, :, 1] = on_tf(R4[offr, :, 1, :])
        elif fast:
            R = raw[:n_alive]
            d_on, d_off = _DRAWERS[on_kind], _DRAWERS[off_kind]
            for i, rng in enumerate(a_rngs):
                if a_phase[i]:
                    d_on(rng, R[i, :half])
                    d_off(rng, R[i, half:])
                else:
                    d_off(rng, R[i, :half])
                    d_on(rng, R[i, half:])
            onr = a_phase
            offr = ~a_phase
            if onr.any():
                L[onr, 0::2] = on_tf(R[onr, :half])
                L[onr, 1::2] = off_tf(R[onr, half:])
            if offr.any():
                L[offr, 0::2] = off_tf(R[offr, :half])
                L[offr, 1::2] = on_tf(R[offr, half:])
        else:
            for i, rng in enumerate(a_rngs):
                cur, oth = (
                    (source.on_dist, source.off_dist)
                    if a_phase[i]
                    else (source.off_dist, source.on_dist)
                )
                L[i, 0::2] = cur.sample(half, seed=rng)
                L[i, 1::2] = oth.sample(half, seed=rng)

        B = bounds_buf[:n_alive]
        B[:, 0] = a_t
        B[:, 1:] = L
        bounds = cum_buf[:n_alive]
        np.cumsum(B, axis=1, out=bounds)
        bounds_flat = bounds.ravel()
        n_live = np.count_nonzero(bounds[:, :-1] < duration, axis=1)
        flat0 = np.arange(n_alive) * (S + 1)

        # ON slots are every other period starting at the phase offset.
        # The live (slot, source) pairs are taken slot-major, so one
        # ordered ``np.add.at`` (which applies repeated indices in index
        # order) gives every cell the reference's time-ordered add
        # sequence: each pair's first-bin add, then its last-bin add.
        cols = np.where(a_phase, 0, 1) + cols_off[:, None]
        live = cols < n_live
        gidx = (flat0 + cols)[live]
        rows = np.broadcast_to(a_rows, cols.shape)[live]
        sv = bounds_flat[gidx]
        ev = np.minimum(bounds_flat[gidx + 1], duration)
        first = (sv / bin_width).astype(np.int64)
        np.minimum(first, n_bins - 1, out=first)
        last = (ev / bin_width).astype(np.int64)
        np.minimum(last, n_bins - 1, out=last)
        wb = rows * n_bins
        idx = np.empty((gidx.size, 2), dtype=np.int64)
        val = np.empty((gidx.size, 2))
        np.add(wb, first, out=idx[:, 0])
        np.add(wb, last, out=idx[:, 1])
        # A single-bin interval adds its length once; its second add is
        # -0.0, which leaves every float (signed zeros included) unchanged.
        np.subtract(ev, sv, out=val[:, 0])
        val[:, 1] = -0.0
        mlt = np.flatnonzero(first != last)
        if mlt.size:
            used_cover = True
            fm, lm = first[mlt], last[mlt]
            val[mlt, 0] = (fm + 1) * bin_width - sv[mlt]
            val[mlt, 1] = ev[mlt] - lm * bin_width
            # +1 after the first bin, -1 at the last.  int16 operands keep
            # ``np.add.at`` on its fast typed loop.
            cb = rows[mlt] * (n_bins + 1)
            np.add.at(cover_flat, cb + fm + 1, np.int16(1))
            np.add.at(cover_flat, cb + lm, np.int16(-1))
        np.add.at(work_flat, idx.ravel(), val.ravel())

        cont = (n_live == S) & (bounds[:, -1] < duration)
        if cont.all():
            a_t = bounds[:, -1]
            continue
        keep = np.flatnonzero(cont)
        n_alive = keep.size
        if n_alive == 0:
            break
        a_rows = a_rows[keep]
        a_phase = a_phase[keep]
        a_t = bounds[keep, -1]
        if merged:
            a_draw = [a_draw[k] for k in keep]
            a_idx = keep if a_idx is None else a_idx[keep]
        else:
            a_rngs = [a_rngs[k] for k in keep]

    # Interior bins: disjoint ON intervals mean a fully-covered bin is
    # covered by exactly one interval, so each marked cell receives exactly
    # one += bin_width — same value sequence as the reference's slice add.
    if used_cover:
        covered = np.cumsum(cover[:, :-1], axis=1, dtype=np.int16)
        work[covered == 1] += bin_width
    work *= source.rate
    # Row j of group g is added into out[g] in j order: one vectorized
    # add over all groups per j, the same fully-left sum per group.
    rows = work.reshape(-1, group_size or m, n_bins)
    acc = out[:len(rows)] if group_size else out[None]
    for j in range(rows.shape[1]):
        acc += rows[:, j]
    return {"sources": m, "rounds": rounds}


def superpose_onoff(
    n_sources: int,
    n_bins: int,
    bin_width: float,
    source: OnOffSource | None = None,
    seed: SeedLike = None,
    *,
    jobs: int = 1,
    chunk: int = DEFAULT_CHUNK,
    scratch_dir: str | None = None,
    meta: list | None = None,
) -> np.ndarray:
    """Batched aggregate fluid count process of ``n_sources`` ON/OFF sources.

    Bit-identical to :func:`repro.arrivals.onoff.multiplex_onoff` (and the
    frozen :func:`repro.kernels.reference.multiplex_onoff_loop`) on the
    same seed when ``chunk >= n_sources``; for smaller chunks the fixed
    chunk grid defines the float-sum association, so results are
    bit-identical across any ``jobs`` but differ from the monolithic sum
    by float-addition reordering (~1e-15 relative).  Worker failures raise
    :class:`repro.utils.pool.PoolTaskError` with the failing chunk index.

    ``meta``, if a list, receives one ``{"sources", "rounds"}`` dict per
    chunk — the only data workers return across the process boundary.
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    n_bins = require_count(n_bins, "n_bins")
    require_positive(bin_width, "bin_width")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if n_bins == 0:
        return np.zeros(0)
    src = source if source is not None else OnOffSource.pareto()
    seed_info = _seed_info(seed, n_sources, jobs)
    tasks = [
        (lo, min(lo + chunk, n_sources), src, n_bins, bin_width, seed_info)
        for lo in range(0, n_sources, chunk)
    ]
    buffer, metas = pool_map_shared(
        _onoff_chunk, tasks, jobs, shape=(n_bins,), scratch_dir=scratch_dir
    )
    if meta is not None:
        meta.extend(metas)
    total = np.zeros(n_bins)
    for row in buffer:
        total += row
    return total


def superpose_onoff_groups(
    n_groups: int,
    group_size: int,
    n_bins: int,
    bin_width: float,
    source: OnOffSource | None = None,
    seed: SeedLike = None,
    *,
    jobs: int = 1,
    chunk: int = DEFAULT_CHUNK,
    scratch_dir: str | None = None,
    meta: list | None = None,
) -> np.ndarray:
    """``n_groups`` independent ON/OFF aggregates of ``group_size`` sources.

    Synthesizes ``n_groups * group_size`` sources in one batched sweep and
    reduces them group-wise, returning a ``(n_groups, n_bins)`` array whose
    row ``g`` is the aggregate of sources ``[g * group_size,
    (g+1) * group_size)``.  This is how the phase-diagram experiment gets
    hundreds of independent replications per cell without paying the
    per-call batching overhead ``group_size`` times: small groups ride the
    same ``(n_alive, S)`` draw matrices as one giant chunk.

    Row ``g`` is bit-identical to the standalone
    ``superpose_onoff(group_size, ..., chunk >= group_size)`` call that
    consumes the same ``group_size`` child streams (each group's sources
    are accumulated fully-left into a zeroed row, the exact float-addition
    tree of the monolithic call).  Chunk boundaries are snapped to group
    boundaries — ``groups_per_chunk = max(1, chunk // group_size)`` — so a
    group never straddles two workers.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    n_bins = require_count(n_bins, "n_bins")
    require_positive(bin_width, "bin_width")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if n_bins == 0:
        return np.zeros((n_groups, 0))
    src = source if source is not None else OnOffSource.pareto()
    n_sources = n_groups * group_size
    groups_per_chunk = max(1, chunk // group_size)
    chunk_sources = groups_per_chunk * group_size
    seed_info = _seed_info(seed, n_sources, jobs)
    tasks = [
        (lo, min(lo + chunk_sources, n_sources), src, n_bins, bin_width,
         seed_info, group_size)
        for lo in range(0, n_sources, chunk_sources)
    ]
    buffer, metas = pool_map_shared(
        _onoff_chunk, tasks, jobs, shape=(groups_per_chunk, n_bins),
        scratch_dir=scratch_dir,
    )
    if meta is not None:
        meta.extend(metas)
    return buffer.reshape(-1, n_bins)[:n_groups].copy()


# ----------------------------------------------------------------------
# Pareto-renewal superposition
# ----------------------------------------------------------------------
def _renewal_chunk(out, lo, hi, gap_dist, n_bins, bin_width, gap_block,
                   seed_info):
    """Arrival counts of renewal sources ``[lo, hi)`` summed into ``out``
    (shape ``(n_bins,)``, int64)."""
    rngs = _child_rngs(seed_info, lo, hi)
    horizon = n_bins * bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    kind, _args, tf = _raw_spec(gap_dist)

    raw = np.empty((len(rngs), gap_block))
    a_rngs = [rng for rng in rngs if horizon > 0]
    a_t = np.zeros(len(a_rngs))
    rounds = 0
    while a_rngs:
        rounds += 1
        n_alive = len(a_rngs)
        R = raw[:n_alive]
        if kind is not None:
            draw = _DRAWERS[kind]
            for i, rng in enumerate(a_rngs):
                draw(rng, R[i])
            gaps = tf(R)
        else:
            gaps = np.empty((n_alive, gap_block))
            for i, rng in enumerate(a_rngs):
                gaps[i] = gap_dist.sample(gap_block, seed=rng)
        cum = a_t[:, None] + np.cumsum(gaps, axis=1)
        vals = cum[cum < horizon]
        if vals.size:
            idx = (vals / bin_width).astype(np.int64)
            np.minimum(idx, n_bins - 1, out=idx)
            counts += np.bincount(idx, minlength=n_bins)
        a_t = cum[:, -1]
        keep = np.flatnonzero(a_t < horizon)
        a_t = a_t[keep]
        a_rngs = [a_rngs[k] for k in keep]
    out[:] = counts
    return {"sources": hi - lo, "rounds": rounds}


def superpose_renewal(
    n_sources: int,
    n_bins: int,
    bin_width: float,
    gap_dist=None,
    seed: SeedLike = None,
    *,
    jobs: int = 1,
    chunk: int = DEFAULT_CHUNK,
    gap_block: int = DEFAULT_GAP_BLOCK,
    scratch_dir: str | None = None,
    meta: list | None = None,
) -> np.ndarray:
    """Batched aggregate arrival counts of ``n_sources`` renewal sources.

    ``gap_dist`` defaults to the canonical ``Pareto(1.0, 1.2)`` interarrival
    law.  Counts are integers, so the aggregation is exact: the result is
    bit-identical to :func:`repro.kernels.reference.superpose_renewal_loop`
    with the same ``gap_block`` for *any* ``chunk`` and ``jobs``.
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    n_bins = require_count(n_bins, "n_bins")
    require_positive(bin_width, "bin_width")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if gap_block < 1:
        raise ValueError(f"gap_block must be >= 1, got {gap_block}")
    if n_bins == 0:
        return np.zeros(0, dtype=np.int64)
    dist = gap_dist if gap_dist is not None else Pareto(1.0, 1.2)
    seed_info = _seed_info(seed, n_sources, jobs)
    tasks = [
        (lo, min(lo + chunk, n_sources), dist, n_bins, bin_width, gap_block,
         seed_info)
        for lo in range(0, n_sources, chunk)
    ]
    buffer, metas = pool_map_shared(
        _renewal_chunk, tasks, jobs, shape=(n_bins,), dtype=np.int64,
        scratch_dir=scratch_dir,
    )
    if meta is not None:
        meta.extend(metas)
    return buffer.sum(axis=0)
