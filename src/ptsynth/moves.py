"""Search moves: propose, apply, and exactly revert single-network updates.

A reassign-one move draws uniformly from its slot's replacement pool, a
prefix of one of the lists ``source_pools`` builds once per network shape.
``engine.sweep`` draws from that prefix in place; ``replacement_pool``
copies it out.  With ``propose_reassign_one``, and ``apply_proposal`` with
``revert_proposal``, it is the plain reference the sweep is tested
against: list the pool and draw from it, write the edits and recompute,
then undo them.  The sweep draws its swaps here, through the one swap
proposer, which checks each literal against its new slot's pool too.

A move is a tuple of ``(gate, slot, new_code)`` writes: reassign-one is
``((g, s, c),)`` and swap-between-gates ``((g1, s1, l2), (g2, s2, l1))``.
The first and last writes name every edited gate.  Proposals keep the
network valid; ``apply_proposal`` returns the score delta and a 4-field
undo record: the old ``(gate, slot, code)`` triples, the overwritten
``(source, column)`` pairs, and the old error and score.
``revert_proposal`` restores network and cache bit-exactly from it.
"""

from __future__ import annotations

import random
from bisect import bisect_left

# perfbench hooks moves.cleaned_gate_count, so the name stays importable here
from .network import (  # noqa: F401
    PI_BASE,
    EvalCache,
    LogicNetwork,
    cleaned_gate_count,
    combined_score,
    recompute_from,
)

SWAP_TRIES = 16  # rejection-sampling attempts before a swap gives up
Edits = tuple[tuple[int, int, int], ...]  # one move's (gate, slot, code) writes
_POOLS: dict = {}  # the source_pools table of each network shape


def source_pools(net: LogicNetwork) -> list[list[list[int] | None]]:
    """Every replacement pool of the network's shape, by the sources o1 !=
    o2 of the slot's two other operands: ``source_pools(net)[o1][o2]``.

    That list holds, ascending, the code of every source of the whole
    budget but o1 and o2, and the complemented code of each such input or
    gate when inverters are allowed.  When the network is leafy and neither
    o1 nor o2 is a primary input, it holds only the inputs' codes, so the
    gate keeps one.  At gate g the slot's pool is the prefix of codes below
    ``(PI_BASE + n + g) << 1``: those of the sources before gate g.

    The table is built once per process for each shape (n, gate set,
    leafiness and gate count) and shared, so callers must not modify it.
    It holds S(S - 1) / 2 lists of at most 2S codes, S being the number of
    sources.
    """
    n, cons = net.n, net.constraints
    shape = (n, cons.inverters_allowed, cons.leafy, len(net.codes))
    pools = _POOLS.get(shape)
    if pools is not None:
        return pools
    sources = PI_BASE + n + len(net.codes)
    every = []
    for sid in range(sources):
        every.append(sid << 1)
        if cons.inverters_allowed and sid >= PI_BASE:
            every.append(sid << 1 | 1)
    # source sid's codes are every[at[sid]:at[sid + 1]]
    at = [bisect_left(every, sid << 1) for sid in range(sources + 1)]
    inputs = every[at[PI_BASE]:at[PI_BASE + n]]
    pools = [[None] * sources for _ in range(sources)]
    for o2 in range(sources):
        for o1 in range(o2):
            if cons.leafy and not (PI_BASE <= o1 < PI_BASE + n
                                   or PI_BASE <= o2 < PI_BASE + n):
                pool = inputs
            else:
                pool = (every[:at[o1]] + every[at[o1 + 1]:at[o2]]
                        + every[at[o2 + 1]:])
            pools[o1][o2] = pools[o2][o1] = pool
    _POOLS[shape] = pools
    return pools


def replacement_pool(net: LogicNetwork, gate: int, slot: int) -> list[int]:
    """Legal replacement codes for a slot, before excluding its current
    literal: a copy of its prefix of ``source_pools``."""
    row = net.codes[gate]
    pool = source_pools(net)[row[slot - 2] >> 1][row[slot - 1] >> 1]
    return pool[:bisect_left(pool, (PI_BASE + net.n + gate) << 1)]


def propose_reassign_one(net: LogicNetwork, rng: random.Random, gate: int,
                         slot: int, pool: list[int]) -> Edits | None:
    """Replace one operand with a different literal drawn uniformly from
    ``pool`` (``replacement_pool(net, gate, slot)``).  Returns None when the
    slot admits no replacement."""
    # the current literal is always in the pool, so len-1 real choices
    if len(pool) < 2:
        return None
    cur = net.codes[gate][slot]
    while True:
        new = pool[rng.randrange(len(pool))]
        if new != cur:
            return ((gate, slot, new),)


def propose_swap_between_gates(net: LogicNetwork, rng: random.Random,
                               gate: int, slot: int, pools: list) -> Edits | None:
    """Exchange this operand with one of another gate, if both stay valid.

    Up to ``SWAP_TRIES`` times, draw the partner gate and slot by the
    bounded ``getrandbits`` loops of ``randrange(p - 1)`` and ``randrange(3)``,
    as ``engine.sweep`` draws; each literal must be in its new slot's pool
    in ``pools`` (``source_pools(net)``)."""
    codes, base = net.codes, PI_BASE + net.n
    p = len(codes)
    if p < 2:
        return None
    getrandbits = rng.getrandbits
    row = codes[gate]
    l1, top = row[slot], (base + gate) << 1
    pool = pools[row[slot - 2] >> 1][row[slot - 1] >> 1]
    k = (p - 1).bit_length()
    for _ in range(SWAP_TRIES):
        g2 = getrandbits(k)
        while g2 >= p - 1:
            g2 = getrandbits(k)
        if g2 >= gate:
            g2 += 1
        s2 = getrandbits(2)
        while s2 == 3:
            s2 = getrandbits(2)
        row2 = codes[g2]
        l2 = row2[s2]
        if (l1 != l2 and l2 < top and l2 in pool and l1 < (base + g2) << 1
                and l1 in pools[row2[s2 - 2] >> 1][row2[s2 - 1] >> 1]):
            return ((gate, slot, l2), (g2, s2, l1))
    return None


def apply_proposal(net: LogicNetwork, cache: EvalCache,
                   edits: Edits) -> tuple[int, tuple]:
    """Write the edits, refresh the cache incrementally, and return
    ``(score delta, undo record)``."""
    codes = net.codes
    old_codes = []
    for g, s, c in edits:
        old_codes.append((g, s, codes[g][s]))
        codes[g][s] = c
    old_score = cache.score
    undo_cols: list = []
    undo = (old_codes, undo_cols, cache.error, old_score)
    lo, hi = sorted((edits[0][0], edits[-1][0]))
    recompute_from(net, cache, lo, undo_cols)
    if hi != lo:
        recompute_from(net, cache, hi, undo_cols)
    cache.score = combined_score(net, cache)
    return cache.score - old_score, undo


def revert_proposal(net: LogicNetwork, cache: EvalCache, undo: tuple) -> None:
    """Undo an applied proposal, restoring network and cache bit-exactly."""
    old_codes, undo_cols, cache.error, cache.score = undo
    codes = net.codes
    for g, s, c in old_codes:
        codes[g][s] = c
    cols = cache.cols
    for sid, col in reversed(undo_cols):
        cols[sid] = col
