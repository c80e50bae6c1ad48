"""Random-number-generator plumbing.

Every stochastic entry point in this library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an already-constructed
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps the
rest of the codebase free of ``isinstance`` checks and makes experiments
reproducible by passing a single integer at the top level.
"""

from __future__ import annotations

import pickle
from typing import Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so helper functions
    can thread a single stream through nested calls without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Produce ``n`` statistically independent child generators.

    Used when an experiment runs several replicates (e.g. the nine seeds of
    Figs. 14 and 15) and wants each replicate independent yet reproducible
    from one master seed.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        return seed.spawn(n)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x) -> list[int]:
    """SeedSequence's entropy coercion: an int becomes its little-endian
    uint32 words (0 -> ``[0]``), a sequence the concatenation of its
    elements' words."""
    if isinstance(x, str):
        x = int(x, 16) if x.startswith("0x") else int(x)
    if isinstance(x, (int, np.integer)):
        x = int(x)
        if x < 0:
            raise ValueError(f"entropy words must be non-negative, got {x}")
        out = [x & _MASK32]
        while x := x >> 32:
            out.append(x & _MASK32)
        return out
    return [w for v in x for w in _words(v)]


def child_seed_states(entropy, spawn_key, first: int, n: int,
                      pool_size: int = 4) -> np.ndarray:
    """PCG64 seed states of ``n`` spawned children, derived in one pass.

    Row ``i`` equals ``SeedSequence(entropy, spawn_key=(*spawn_key,
    first + i), pool_size=pool_size).generate_state(4, np.uint64)`` — the
    child ``seq.spawn`` hands out as number ``first + i``.  SeedSequence's
    hash constants do not depend on the data, so the whole algorithm runs
    as uint32 array arithmetic: the parent's words (entropy zero-padded to
    the pool, then the spawn key) mix into a scalar pool once, and only
    the child-index words are mixed per row.  Indices past 2**32 take two
    words, exactly as numpy splits them.  Returns an ``(n, 4)`` uint64
    array; the first row is checked against numpy's own SeedSequence, so
    a numpy release that changes the algorithm fails loudly here instead
    of silently changing streams.
    """
    prefix = _words(entropy)
    prefix += [0] * (pool_size - len(prefix))  # children always carry a key
    prefix += _words(spawn_key)
    states = np.empty((n, 4), dtype=np.uint64)
    lo = 0
    while lo < n:
        # Children whose index has the same word count share one layout.
        k = len(_words(first + lo))
        hi = min(n, (1 << (32 * k)) - first)
        if k == 1:
            idx = [np.arange(first + lo, first + hi, dtype=np.uint32)]
        else:
            idx = [np.array([(first + i) >> (32 * j) & _MASK32
                             for i in range(lo, hi)], dtype=np.uint32)
                   for j in range(k)]
        states[lo:hi] = _mixed_states(prefix, idx, pool_size)
        lo = hi
    if n:
        want = np.random.SeedSequence(
            entropy, spawn_key=(*spawn_key, first), pool_size=pool_size
        ).generate_state(4, np.uint64)
        if not np.array_equal(states[0], want):
            raise RuntimeError(
                "child_seed_states disagrees with numpy's SeedSequence; "
                f"numpy {np.__version__} changed the seeding algorithm"
            )
    return states


class _PresetSeed(ISeedSequence):
    """Hands ``PCG64`` one precomputed ``generate_state(4, uint64)`` row,
    so a child Generator costs no SeedSequence hashing of its own.  Any
    other request means numpy's ``PCG64`` seeding changed, and raises.
    Generators built on it cannot ``spawn``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"PCG64 asked for generate_state({n_words}, "
                f"{np.dtype(dtype)}), not (4, uint64); numpy "
                f"{np.__version__} changed how PCG64 is seeded"
            )
        return self.state


def child_rngs(entropy, spawn_key, first: int, n: int,
               pool_size: int = 4) -> list[np.random.Generator]:
    """The Generators ``default_rng`` builds for the ``n`` children of
    :func:`child_seed_states`, each seeded from its precomputed state row
    with no SeedSequence of its own.  They cannot ``spawn``, so they are
    for drawing inside a kernel, not for handing back to callers."""
    states = child_seed_states(entropy, spawn_key, first, n, pool_size)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(row)))
            for row in states]


#: Where ``n_children_spawned`` sits in the state tuple of numpy's
#: Cython-generated ``SeedSequence.__reduce__``: the fields in name order
#: (entropy, n_children_spawned, pool, pool_size, spawn_key).
_COUNTER_FIELD = 1


def _advance_spawn_counter(seq: np.random.SeedSequence, n: int) -> int:
    """Advance ``seq``'s spawn counter by ``n`` in O(1), as ``seq.spawn(n)``
    would, and return the number of the first child it hands out.

    ``n_children_spawned`` is read-only, so the counter is rewritten
    through the pickle state.  Every call first advances two probe copies,
    one by ``spawn(1)`` and one through the state, and raises
    ``RuntimeError`` unless they pickle identically, so a numpy release
    that changes the pickle layout fails loudly instead of silently
    reusing children.
    """
    first = seq.n_children_spawned
    ctor, args, state = seq.__reduce__()
    if not (isinstance(state, tuple) and len(state) > _COUNTER_FIELD
            and state[_COUNTER_FIELD] == first):
        raise RuntimeError(
            f"numpy {np.__version__} changed SeedSequence's pickle layout; "
            "cannot advance its spawn counter"
        )

    def with_counter(count):
        return (state[:_COUNTER_FIELD] + (count,)
                + state[_COUNTER_FIELD + 1:])

    spawned, rewritten = ctor(*args), ctor(*args)
    spawned.__setstate__(state)
    spawned.spawn(1)
    rewritten.__setstate__(with_counter(first + 1))
    if pickle.dumps(spawned) != pickle.dumps(rewritten):
        raise RuntimeError(
            f"numpy {np.__version__} changed SeedSequence's pickle layout; "
            "rewriting its spawn counter no longer matches spawn()"
        )
    seq.__setstate__(with_counter(first + n))
    return first


def child_streams(seed: SeedLike, n: int):
    """Reserve the ``n`` children ``spawn_rngs(seed, n)`` would hand out,
    without building them.

    Returns ``(entropy, spawn_key, first, pool_size)``: child ``i`` is
    ``SeedSequence(entropy, spawn_key=(*spawn_key, first + i),
    pool_size=pool_size)``, which :func:`child_rngs` derives in one pass
    in any process.  The parent's spawn counter advances by ``n`` in O(1),
    so successive calls on one ``SeedSequence`` or ``Generator`` draw
    disjoint children exactly as successive ``spawn_rngs`` calls do.
    Returns ``None``, and advances nothing, for a Generator whose children
    would not be PCG64 streams of a plain ``SeedSequence``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
        if type(seed.bit_generator) is not np.random.PCG64:
            return None
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    if type(seq) is not np.random.SeedSequence:
        return None
    first = _advance_spawn_counter(seq, n)
    return (seq.entropy, seq.spawn_key, first, seq.pool_size)


def spawn_streams(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """The streams of ``spawn_rngs(seed, n)``, derived in one pass through
    :func:`child_streams` and :func:`child_rngs` (falling back to
    ``spawn_rngs`` where :func:`child_streams` cannot).  Like
    :func:`child_rngs`, the Generators cannot ``spawn``."""
    info = child_streams(seed, n)
    if info is None:
        return spawn_rngs(seed, n)
    entropy, spawn_key, first, pool_size = info
    return child_rngs(entropy, spawn_key, first, n, pool_size)


def _hash_steps(hc: int, mult: int, count: int):
    """The (xor, multiply) constants of ``count`` successive steps of
    SeedSequence's running hash from ``hc``, and the hash after them."""
    xs, ms = [], []
    for _ in range(count):
        xs.append(hc)
        hc = hc * mult & _MASK32
        ms.append(hc)
    return np.array(xs, np.uint32), np.array(ms, np.uint32), hc


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _mixed_states(prefix: list[int], index_words: list[np.ndarray],
                  pool_size: int) -> np.ndarray:
    """``SeedSequence.mix_entropy`` then ``generate_state(4, uint64)`` for
    the assembled entropy ``prefix + [index_words[0][r], ...]`` of every
    row ``r``.  ``prefix`` holds at least ``pool_size`` words."""
    hc = _INIT_A
    pool = []
    for word in prefix[:pool_size]:
        x, hc = hc, hc * _MULT_A & _MASK32
        pool.append(_hashmix(word, x, hc))
    # Cross-mixing reads words it has just rewritten: scalar, in order.
    for i_src in range(pool_size):
        for i_dst in range(pool_size):
            if i_src != i_dst:
                x, hc = hc, hc * _MULT_A & _MASK32
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], x, hc))
    # Each later word mixes into every pool word with its own hash step,
    # so one word is one vector operation over (rows, pool).
    pool = np.array(pool, dtype=np.uint32)
    for word in [*prefix[pool_size:], *index_words]:
        xs, ms, hc = _hash_steps(hc, _MULT_A, pool_size)
        pool = _mix(pool, _hashmix(np.asarray(word, np.uint32)[..., None],
                                   xs, ms))
    xs, ms, _ = _hash_steps(_INIT_B, _MULT_B, 8)
    state = _hashmix(pool[:, np.arange(8) % pool_size], xs, ms)
    state = state.astype(np.uint64)
    # Little-endian pairs of uint32 words make the four uint64 words.
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)
