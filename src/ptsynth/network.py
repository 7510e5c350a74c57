"""Majority-gate logic networks: representation, bit-parallel evaluation,
incremental re-evaluation, cleanup, and scoring.

Networks are topologically sorted lists of 3-input majority gates.  Each
operand is packed into one integer code ``source_id << 1 | inverted`` where
source ids enumerate constant 0, constant 1, the n primary inputs, then the
gates in list order.  That code is the public operand form: a network is
its ``codes`` rows and its ``output_code``, and ``operand_text`` gives a
code's text.  All per-source output columns over the 2^n input vectors
live in single Python integers, so one bitwise expression evaluates a gate
on every input at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .truthtable import MAX_INPUTS, TruthTable

# source ids 0 and 1 are the constants; primary inputs start here
PI_BASE = 2


@dataclass(frozen=True)
class NetworkConstraints:
    """Structural search constraints: node budget, gate set, leafiness."""

    max_nodes: int
    inverters_allowed: bool = True
    leafy: bool = False

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


def operand_text(code: int, n: int) -> str:
    """Text of operand ``code``: ``0``/``1`` (an inverted constant is the
    other constant), ``x<i>`` or ``g<j>``, with ``~`` marking inversion."""
    sid = code >> 1
    if sid < PI_BASE:
        return str(sid ^ (code & 1))
    prefix = "~" if code & 1 else ""
    if sid < PI_BASE + n:
        return f"{prefix}x{sid - PI_BASE}"
    return f"{prefix}g{sid - PI_BASE - n}"


class LogicNetwork:
    """Mutable gate list with a designated output literal.

    ``codes`` holds one ``[a, b, c]`` operand-code triple per gate; the
    output is usually the last gate but may be any literal (a cleaned
    network can collapse to a plain wire).
    """

    __slots__ = ("n", "constraints", "codes", "output_code")

    def __init__(self, n: int, constraints: NetworkConstraints,
                 codes: list[list[int]],
                 output_code: int | None = None) -> None:
        if not 1 <= n <= MAX_INPUTS:
            raise ValueError(f"input count must be in 1..{MAX_INPUTS}, got {n}")
        self.n = n
        self.constraints = constraints
        self.codes = codes
        if output_code is None:
            if not codes:
                raise ValueError("a network without gates needs an explicit output")
            output_code = (PI_BASE + n + len(codes) - 1) << 1
        self.output_code = output_code

    @property
    def num_gates(self) -> int:
        return len(self.codes)

    def copy(self) -> "LogicNetwork":
        return LogicNetwork(self.n, self.constraints,
                            [row[:] for row in self.codes], self.output_code)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicNetwork):
            return NotImplemented
        return (self.n == other.n and self.constraints == other.constraints
                and self.codes == other.codes and self.output_code == other.output_code)

    def __repr__(self) -> str:
        out = operand_text(self.output_code, self.n)
        return f"<LogicNetwork n={self.n} gates={self.num_gates} output={out}>"


def is_valid(net: LogicNetwork) -> tuple[bool, str | None]:
    """Check every structural invariant; returns (ok, first violation)."""
    n, cons = net.n, net.constraints
    base = PI_BASE + n
    if net.num_gates > cons.max_nodes:
        return False, f"{net.num_gates} gates exceed the budget of {cons.max_nodes}"
    for g, row in enumerate(net.codes):
        if len(row) != 3:
            return False, f"gate g{g} has {len(row)} operands"
        sources = [c >> 1 for c in row]
        for c, sid in zip(row, sources):
            if c < 0:
                return False, f"gate g{g} has a negative operand code {c}"
            if sid >= base + g:
                return False, f"gate g{g} references a non-earlier source {operand_text(c, n)}"
            if (c & 1) and not cons.inverters_allowed:
                return False, f"gate g{g} uses inverted operand {operand_text(c, n)} without inverters"
            if (c & 1) and sid < PI_BASE:
                return False, f"gate g{g} carries an inverted constant"
        if len(set(sources)) != 3:
            return False, f"gate g{g} repeats an operand source"
        if cons.leafy and not any(PI_BASE <= s < base for s in sources):
            return False, f"gate g{g} has no primary input operand (leafy)"
    out = net.output_code
    if out < 0:
        return False, f"output has a negative code {out}"
    if out >> 1 >= base + net.num_gates:
        return False, "output references a missing gate"
    if (out & 1) and not cons.inverters_allowed:
        return False, "output is inverted without inverters"
    if (out & 1) and out >> 1 < PI_BASE:
        return False, "output is an inverted constant"
    return True, None


def random_gate_codes(n: int, g: int, constraints: NetworkConstraints,
                      rng: random.Random) -> list[int]:
    """Draw one gate's operand codes uniformly over the valid choices at position g."""
    total = PI_BASE + n + g
    while True:
        sources = rng.sample(range(total), 3)
        if not constraints.leafy or any(PI_BASE <= s < PI_BASE + n for s in sources):
            break
    if constraints.inverters_allowed:
        return [s << 1 | (rng.getrandbits(1) if s >= PI_BASE else 0) for s in sources]
    return [s << 1 for s in sources]


def random_network(n: int, constraints: NetworkConstraints,
                   rng: random.Random) -> LogicNetwork:
    """Fresh network with exactly max_nodes random valid gates."""
    codes = [random_gate_codes(n, g, constraints, rng)
             for g in range(constraints.max_nodes)]
    return LogicNetwork(n, constraints, codes)


def input_column(i: int, n: int) -> int:
    """Bit-parallel pattern of primary input i over all 2^n input vectors."""
    col = ((1 << (1 << i)) - 1) << (1 << i)
    width = 2 << i
    size = 1 << n
    while width < size:
        col |= col << width
        width <<= 1
    return col


class EvalCache:
    """Output columns for every source of a network, plus the current error.

    ``cols[sid]`` is the 2^n-bit column of source ``sid``; ``error`` is the
    Hamming distance between the output column and the target, and ``score``
    the combined search score (error, or cleaned-gate-count minus budget
    when the error is zero).  No structure of the network, such as its
    output cone, is cached, so a code write leaves nothing else to drop.
    """

    __slots__ = ("cols", "mask", "target_bits", "error", "score")

    def __init__(self, cols: list[int], mask: int, target: TruthTable) -> None:
        self.cols = cols
        self.mask = mask
        self.target_bits = target.bits
        self.error = 0
        self.score = 0

    def output_column(self, net: LogicNetwork) -> int:
        out = net.output_code
        col = self.cols[out >> 1]
        return col ^ self.mask if out & 1 else col


def _gate_column(cols: list[int], mask: int, row: list[int]) -> int:
    ca, cb, cc = row
    a = cols[ca >> 1] ^ (mask if ca & 1 else 0)
    b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
    c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
    return (a & (b | c)) | (b & c)


def evaluate_full(net: LogicNetwork, target: TruthTable) -> EvalCache:
    """Evaluate every gate on all inputs and score the network from scratch."""
    if target.n != net.n:
        raise ValueError(f"target has n={target.n}, network has n={net.n}")
    n = net.n
    mask = (1 << (1 << n)) - 1
    cols = [0, mask] + [input_column(i, n) for i in range(n)]
    cache = EvalCache(cols, mask, target)
    for row in net.codes:
        cols.append(_gate_column(cols, mask, row))
    cache.error = (cache.output_column(net) ^ target.bits).bit_count()
    cache.score = combined_score(net, cache)
    return cache


def propagate(codes: list[list[int]], cols: list[int], mask: int, base: int,
              lo: int, reads: int, rewired: int, skip: int = 0) -> list:
    """Re-evaluate in place, in gate order from gate ``lo``, the gates an
    edit may change; returns ``(gate, old column ^ new column)`` per gate
    evaluated.

    Gate h is evaluated, unless bit h of ``skip`` is set, if bit h of
    ``rewired`` is set or it reads a source whose bit is set in ``reads``
    (by source id; gate 0 is ``base``).  Each evaluated gate joins
    ``reads``, so the pass follows operand edges whether or not a column
    changed."""
    evaluated = []
    # the majority is inlined here (see _gate_column): this is the hot loop
    for h in range(lo, len(codes)):
        if skip >> h & 1:
            continue
        ca, cb, cc = codes[h]
        ia, ib, ic = ca >> 1, cb >> 1, cc >> 1
        if not (rewired >> h | reads >> ia | reads >> ib | reads >> ic) & 1:
            continue
        hid = base + h
        reads |= 1 << hid
        a = cols[ia] ^ (mask if ca & 1 else 0)
        b = cols[ib] ^ (mask if cb & 1 else 0)
        c = cols[ic] ^ (mask if cc & 1 else 0)
        new = (a & (b | c)) | (b & c)
        evaluated.append((h, cols[hid] ^ new))
        cols[hid] = new
    return evaluated


def recompute_from(net: LogicNetwork, cache: EvalCache, changed_gate: int,
                   undo: list | None = None) -> int:
    """Refresh the cache after a single-gate edit; returns the new error.

    The changed gate and its structural readers, the later gates that reach
    it through operand edges, are recomputed (``propagate``).  When
    ``undo`` is given, the ``(source_id, old_column)`` pair of every column
    that changed is appended to it, oldest first.
    """
    codes = net.codes
    if not 0 <= changed_gate < len(codes):
        raise ValueError(f"gate index {changed_gate} out of range")
    cols, base = cache.cols, PI_BASE + net.n
    evaluated = propagate(codes, cols, cache.mask, base, changed_gate, 0,
                          1 << changed_gate)
    if undo is not None:
        undo.extend((base + h, cols[base + h] ^ flip) for h, flip in evaluated
                    if flip)
    cache.error = (cache.output_column(net) ^ cache.target_bits).bit_count()
    return cache.error


def output_cofactors(net: LogicNetwork, cache: EvalCache, g: int,
                     cone: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Score every possible column of gate ``g`` at once.

    Majority gates act bitwise, so on each input vector the output bit is a
    function of gate g's bit there alone.  With ``o0`` and ``o1`` the output
    columns when gate g's column is 0 and ``mask``, this returns
    ``(e0, d, readers)``: ``e0 = o0 ^ target`` and ``d = o0 ^ o1``, so gate
    g's column ``y`` makes the error ``(e0 ^ (d & y)).bit_count()``.
    ``readers`` lists, in gate order, the gates h after g in ``cone``
    (``output_cone(net)``) that read gate g through operand edges, as
    ``(h, dh)``: moving gate g's column from its cached value ``x`` to
    ``y`` flips gate h's column by ``dh & (x ^ y)``.

    Only the readers are evaluated, once (``propagate`` over the cone),
    with gate g's column forced to ``x ^ mask``; ``dh`` and ``d`` are the
    cached columns XOR the forced ones.  The other columns, gate g's among
    them, are read from the cache and must be fresh, except the columns of
    the gates outside the cone: a cone gate reads only cone gates and
    sources before it, so those are never read.  For a gate outside the
    cone ``d`` is 0 and ``readers`` is empty; for the output gate ``d`` is
    ``mask`` and ``readers`` is empty, as no cone gate comes after it.
    """
    codes = net.codes
    if not 0 <= g < len(codes):
        raise ValueError(f"gate index {g} out of range")
    cols, mask = cache.cols, cache.mask
    base = PI_BASE + net.n
    hid = base + g
    out = net.output_code
    sid = out >> 1
    inv = mask if out & 1 else 0
    x = cols[hid]
    forced = cols[:]
    forced[hid] = x ^ mask
    readers = propagate(codes, forced, mask, base, g + 1, 1 << hid, 0, ~cone)
    d = cols[sid] ^ forced[sid]
    return cols[sid] ^ (d & x) ^ inv ^ cache.target_bits, d, readers


def output_cone(net: LogicNetwork) -> int:
    """Bitmask of the gates the output reaches through operand edges (bit g
    for gate g), found on the raw codes without any cleanup: one pass in
    gate order, which the codes must keep (``is_valid``), gives each gate
    its reach, its own bit OR its operands' reach."""
    reach = [0] * (PI_BASE + net.n)  # by source id; gate g is appended
    for g, (a, b, c) in enumerate(net.codes):
        reach.append(1 << g | reach[a >> 1] | reach[b >> 1] | reach[c >> 1])
    return reach[net.output_code >> 1]


def _reduce_codes(n: int, codes: list[list[int]], output_code: int):
    """Shared cleanup core: trivial-gate and duplicate elimination.

    Each gate's substituted operands are sorted, so a source's two codes
    sit side by side and the constants come first.  The gate then reduces
    by the majority axiom, M(x, x, y) = x and M(x, ~x, y) = y, or by two
    constants passing the third operand; any other gate is hash-consed on
    its sorted operands, so duplicates merge.

    One pass in gate order reaches the fixpoint: gate g reads only earlier
    sources, whose substitutions are final when g is visited, so a second
    pass would find the same operands and keys.  Substitutions live in a
    table indexed by operand code, and every entry names its final code.
    A gate reading itself or a later source raises ``RuntimeError``.  Each
    kept gate records its reach, as ``output_cone`` does on raw codes.

    Returns (table, cone): the substitution table and the bitmask of the
    kept gates the substituted output reaches.
    """
    base = PI_BASE + n
    table = list(range((base + len(codes)) << 1))
    width = len(table).bit_length()  # every code fits in one key field
    seen: dict[int, int] = {}
    reach = [0] * (base + len(codes))
    for g, (a, b, c) in enumerate(codes):
        a, b, c = table[a], table[b], table[c]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        if c >> 1 >= base + g:
            raise RuntimeError(f"gate g{g} references a non-earlier source {operand_text(c, n)}")
        if a >> 1 == b >> 1:
            red = a if a == b else c
        elif b >> 1 == c >> 1:
            red = b if b == c else a
        elif b < 4:
            red = c
        else:
            key = (a << width | b) << width | c
            other = seen.get(key)
            if other is None:
                seen[key] = g
                reach[base + g] = 1 << g | reach[a >> 1] | reach[b >> 1] | reach[c >> 1]
                continue
            red = (base + other) << 1
        sid = (base + g) << 1
        table[sid] = red
        # inverted constants normalize to the opposite constant
        table[sid | 1] = red ^ 2 if red < 4 else red ^ 1
    return table, reach[table[output_code] >> 1]


def cleaned_gate_count(net: LogicNetwork) -> int:
    """Gate count after cleanup, without materializing the cleaned network."""
    return _reduce_codes(net.n, net.codes, net.output_code)[1].bit_count()


def cleanup(net: LogicNetwork) -> tuple[LogicNetwork, int]:
    """Simplify: constant/trivial propagation, duplicate-gate merging and
    dead-gate removal, in one pass that reaches the fixpoint (see
    ``_reduce_codes``).  Returns (simplified network, gate count).

    The kept gates are the reach of the substituted output, and each reads
    its operands through the substitution table, whose entries for earlier
    sources are final.  The input network is not modified; the simplified
    network computes a bit-identical output column.
    """
    n = net.n
    base = PI_BASE + n
    table, cone = _reduce_codes(n, net.codes, net.output_code)
    order = [g for g in range(net.num_gates) if cone >> g & 1]
    renumber = {base + g: base + i for i, g in enumerate(order)}

    def remap(code: int) -> int:
        code = table[code]
        sid = code >> 1
        return renumber[sid] << 1 | (code & 1) if sid in renumber else code

    new_codes = [[remap(x) for x in net.codes[g]] for g in order]
    simplified = LogicNetwork(n, net.constraints, new_codes, remap(net.output_code))
    return simplified, len(new_codes)


def combined_score(net: LogicNetwork, cache: EvalCache) -> int:
    """Search score: the error when nonzero, else cleaned size minus budget.

    Exact networks always score <= 0, strictly below every inexact one.
    """
    if cache.error:
        return cache.error
    return cleaned_gate_count(net) - net.constraints.max_nodes
