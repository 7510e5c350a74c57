"""Search moves: propose, apply, and exactly revert single-network updates.

A move is a tuple of ``(gate, slot, new_code)`` writes: reassign-one is
``((g, s, c),)``, swap-between-gates ``((g1, s1, l2), (g2, s2, l1))`` and
reassign-all ``((g, 0, a), (g, 1, b), (g, 2, c))``.  The first and last
writes name every edited gate.  Proposals keep the network valid;
``apply_proposal`` returns the score delta and a 5-field undo record: the
old ``(gate, slot, code)`` triples, the overwritten ``(source, column)``
pairs, and the old error, score and output cone.  ``revert_proposal``
restores network and cache bit-exactly from it.

From an exact state, an edit to a gate outside the output cone changes
neither the output column nor the cleaned gate count, so ``apply_proposal``
returns a zero delta for it without calling ``cleaned_gate_count``.
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
    output_cone,
    random_gate_codes,
    recompute_from,
)

SWAP_TRIES = 16  # rejection-sampling attempts before a swap gives up
Edits = tuple[tuple[int, int, int], ...]  # one move's (gate, slot, code) writes


def replacement_pool(net: LogicNetwork, gate: int, slot: int) -> list[int]:
    """Legal replacement codes for a slot, before excluding its current literal.

    The pool keeps operand sources pairwise distinct, references only earlier
    sources, and is restricted to primary inputs when the other two slots
    would otherwise leave a leafy gate without one.
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


def propose_reassign_all(net: LogicNetwork, rng: random.Random,
                         gate: int) -> Edits:
    """Redraw all three operands of one gate as in network initialization."""
    a, b, c = random_gate_codes(net.n, gate, net.constraints, rng)
    return ((gate, 0, a), (gate, 1, b), (gate, 2, c))


def apply_proposal(net: LogicNetwork, cache: EvalCache,
                   edits: Edits) -> tuple[int, tuple]:
    """Write the edits, refresh the cache incrementally, and return
    ``(score delta, undo record)``."""
    cone = cache.cone
    if cone is None and cache.error == 0:
        cone = cache.cone = output_cone(net)
    codes = net.codes
    old_codes = []
    for g, s, c in edits:
        old_codes.append((g, s, codes[g][s]))
        codes[g][s] = c
    old_score = cache.score
    undo_cols: list = []
    undo = (old_codes, undo_cols, cache.error, old_score, cone)
    lo, hi = sorted((edits[0][0], edits[-1][0]))
    recompute_from(net, cache, lo, undo_cols)
    if hi != lo:
        recompute_from(net, cache, hi, undo_cols)
    if cone is not None:
        if cone >> lo & 1 or cone >> hi & 1:
            cache.cone = None
        else:
            # Out-of-cone shortcut (only an exact network holds a cone).
            # No cone gate reads an edited gate, so every cone column, and
            # with it the output column, is unchanged and the network stays
            # exact.  The cleaned count is unchanged too: at the fixpoint of
            # _reduce_codes every live gate is irreducible with a distinct
            # key, so the count is the number of distinct hash-consed nodes
            # reachable from the output, and a node's hash-consed form
            # depends only on its own fan-in cone, that is, only on operands
            # of cone gates.  So the score stands.
            if cache.error:
                raise RuntimeError(
                    f"an edit outside the output cone (gates {lo}, {hi}) "
                    "changed the output of an exact network")
            return 0, undo
    cache.score = combined_score(net, cache)
    return cache.score - old_score, undo


def revert_proposal(net: LogicNetwork, cache: EvalCache, undo: tuple) -> None:
    """Undo an applied proposal, restoring network and cache bit-exactly."""
    old_codes, undo_cols, cache.error, cache.score, cache.cone = undo
    codes = net.codes
    for g, s, c in old_codes:
        codes[g][s] = c
    cols = cache.cols
    for sid, col in reversed(undo_cols):
        cols[sid] = col
    cache.out_col = cache.literal_column(net.output_code)
