"""Search moves: propose, apply, and exactly revert single-network updates.

``engine.sweep`` draws swaps here and scores them without writing them
through the cache.  It draws reassign-one moves from ``pool_layout`` by
index arithmetic.  ``replacement_pool`` with ``propose_reassign_one``, and
``apply_proposal`` with ``revert_proposal``, are the plain reference the
sweep is tested against: list the pool and draw from it, write the edits
and recompute, then undo them.

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


def replacement_pool(net: LogicNetwork, gate: int, slot: int) -> list[int]:
    """Legal replacement codes for a slot, before excluding its current literal.

    The pool keeps operand sources pairwise distinct, references only earlier
    sources, and is restricted to primary inputs when the other two slots
    would otherwise leave a leafy gate without one.  ``engine.sweep`` draws
    from it through ``pool_layout`` without building it; this list is the
    reference that layout is tested against.
    """
    row = net.codes[gate]
    o1 = row[slot - 2] >> 1
    o2 = row[slot - 1] >> 1
    n = net.n
    cons = net.constraints
    if cons.leafy and not (PI_BASE <= o1 < PI_BASE + n or PI_BASE <= o2 < PI_BASE + n):
        lo, hi = PI_BASE, PI_BASE + n
    else:
        lo, hi = 0, PI_BASE + n + gate
    pool = []
    inverters = cons.inverters_allowed
    for s in range(lo, hi):
        if s == o1 or s == o2:
            continue
        pool.append(s << 1)
        if inverters and s >= PI_BASE:
            pool.append(s << 1 | 1)
    return pool


def pool_layout(net: LogicNetwork, gate: int,
                slot: int) -> tuple[int, int, int, int, int, int]:
    """``replacement_pool(net, gate, slot)`` as index arithmetic.

    Number every literal the pool could hold in pool order: index j is code
    ``j << 1`` without inverters; with them, ``j << 1`` below PI_BASE (the
    constants) and ``j + PI_BASE`` from there, two entries per source.
    Returns ``(size, first, e1, skip1, e2, skip2)``: pool entry k < size is
    index ``first + k``, moved up by skip1 if that reaches e1, then by skip2
    if it reaches e2, which skips the blocks of the two other operands'
    sources.
    """
    row = net.codes[gate]
    o1 = row[slot - 2] >> 1
    o2 = row[slot - 1] >> 1
    n = net.n
    inverters = net.constraints.inverters_allowed
    if net.constraints.leafy and not (PI_BASE <= o1 < PI_BASE + n
                                      or PI_BASE <= o2 < PI_BASE + n):
        # only the inputs, and neither other operand is one: nothing to skip
        return 2 * n if inverters else n, PI_BASE, 0, 0, 0, 0
    if o2 < o1:
        o1, o2 = o2, o1
    if not inverters:
        return PI_BASE + n + gate - 2, 0, o1, 1, o2, 1
    skip1, skip2 = 1 + (o1 >= PI_BASE), 1 + (o2 >= PI_BASE)
    return (PI_BASE + 2 * (n + gate) - skip1 - skip2, 0,
            o1 if skip1 == 1 else 2 * o1 - PI_BASE, skip1,
            o2 if skip2 == 1 else 2 * o2 - PI_BASE, skip2)


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


def _slot_accepts(net: LogicNetwork, gate: int, slot: int, code: int) -> bool:
    sid = code >> 1
    n = net.n
    if sid >= PI_BASE + n + gate:
        return False
    row = net.codes[gate]
    o1 = row[slot - 2] >> 1
    o2 = row[slot - 1] >> 1
    if sid == o1 or sid == o2:
        return False
    if net.constraints.leafy and not any(
            PI_BASE <= s < PI_BASE + n for s in (sid, o1, o2)):
        return False
    return True


def propose_swap_between_gates(net: LogicNetwork, rng: random.Random,
                               gate: int, slot: int) -> Edits | None:
    """Exchange this operand with one of another gate, if both stay valid."""
    p = len(net.codes)
    if p < 2:
        return None
    l1 = net.codes[gate][slot]
    for _ in range(SWAP_TRIES):
        g2 = rng.randrange(p - 1)
        if g2 >= gate:
            g2 += 1
        s2 = rng.randrange(3)
        l2 = net.codes[g2][s2]
        if l1 == l2:
            continue
        if _slot_accepts(net, gate, slot, l2) and _slot_accepts(net, g2, s2, l1):
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
