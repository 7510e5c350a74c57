"""Majority-gate logic networks: representation, bit-parallel evaluation,
incremental re-evaluation, cleanup, and scoring.

Networks are topologically sorted lists of 3-input majority gates.  Each
operand is packed into one integer code ``source_id << 1 | inverted`` where
source ids enumerate constant 0, constant 1, the n primary inputs, then the
gates in list order.  All per-source output columns over the 2^n input
vectors live in single Python integers, so one bitwise expression evaluates
a gate on every input at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .truthtable import TruthTable

CONST = "const"
INPUT = "input"
GATE = "gate"

# source ids 0 and 1 are the constants; primary inputs start here
PI_BASE = 2


@dataclass(frozen=True)
class Literal:
    """One gate operand: a constant, primary input, or earlier gate output."""

    kind: str
    index: int
    inverted: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (CONST, INPUT, GATE):
            raise ValueError(f"unknown literal kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("literal index must be non-negative")
        if self.kind == CONST:
            if self.index not in (0, 1):
                raise ValueError("constant literal index must be 0 or 1")
            if self.inverted:
                # an inverted constant is just the other constant
                object.__setattr__(self, "index", 1 - self.index)
                object.__setattr__(self, "inverted", False)

    def __str__(self) -> str:
        prefix = "~" if self.inverted else ""
        if self.kind == CONST:
            return str(self.index)
        if self.kind == INPUT:
            return f"{prefix}x{self.index}"
        return f"{prefix}g{self.index}"


CONST0 = Literal(CONST, 0)
CONST1 = Literal(CONST, 1)


@dataclass(frozen=True)
class Gate:
    """Three-input majority gate over literals."""

    inputs: tuple[Literal, Literal, Literal]

    def __post_init__(self) -> None:
        if len(self.inputs) != 3:
            raise ValueError("a majority gate takes exactly 3 inputs")
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class NetworkConstraints:
    """Structural search constraints: node budget, gate set, leafiness."""

    max_nodes: int
    inverters_allowed: bool = True
    leafy: bool = False

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


def encode_literal(lit: Literal, n: int) -> int:
    if lit.kind == CONST:
        return lit.index << 1
    if lit.kind == INPUT:
        if lit.index >= n:
            raise ValueError(f"input index {lit.index} out of range for n={n}")
        return (PI_BASE + lit.index) << 1 | lit.inverted
    return (PI_BASE + n + lit.index) << 1 | lit.inverted


def decode_literal(code: int, n: int) -> Literal:
    sid, inv = code >> 1, bool(code & 1)
    if sid < PI_BASE:
        return Literal(CONST, sid, inv)
    if sid < PI_BASE + n:
        return Literal(INPUT, sid - PI_BASE, inv)
    return Literal(GATE, sid - PI_BASE - n, inv)


class LogicNetwork:
    """Mutable gate list with a designated output literal.

    ``codes`` holds one ``[a, b, c]`` operand-code triple per gate; the
    output is usually the last gate but may be any literal (a cleaned
    network can collapse to a plain wire).
    """

    __slots__ = ("n", "constraints", "codes", "output_code")

    def __init__(self, n: int, constraints: NetworkConstraints,
                 codes: list[list[int]] | None = None,
                 output_code: int | None = None) -> None:
        if not 1 <= n <= 20:
            raise ValueError(f"input count must be in 1..20, got {n}")
        self.n = n
        self.constraints = constraints
        self.codes = codes if codes is not None else []
        if output_code is None:
            if not self.codes:
                raise ValueError("a network without gates needs an explicit output")
            output_code = (PI_BASE + n + len(self.codes) - 1) << 1
        self.output_code = output_code

    @classmethod
    def from_gates(cls, n: int, gates: list[Gate],
                   constraints: NetworkConstraints | None = None,
                   output: Literal | None = None) -> "LogicNetwork":
        if constraints is None:
            constraints = NetworkConstraints(max_nodes=max(1, len(gates)))
        codes = [[encode_literal(lit, n) for lit in g.inputs] for g in gates]
        out = None if output is None else encode_literal(output, n)
        return cls(n, constraints, codes, out)

    @property
    def num_gates(self) -> int:
        return len(self.codes)

    @property
    def gates(self) -> list[Gate]:
        n = self.n
        return [Gate(tuple(decode_literal(c, n) for c in row)) for row in self.codes]

    @property
    def output(self) -> Literal:
        return decode_literal(self.output_code, self.n)

    def copy(self) -> "LogicNetwork":
        return LogicNetwork(self.n, self.constraints,
                            [row[:] for row in self.codes], self.output_code)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicNetwork):
            return NotImplemented
        return (self.n == other.n and self.constraints == other.constraints
                and self.codes == other.codes and self.output_code == other.output_code)

    def __repr__(self) -> str:
        return f"<LogicNetwork n={self.n} gates={self.num_gates} output={self.output}>"


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
            if sid >= base + g:
                return False, f"gate g{g} references a non-earlier source {decode_literal(c, n)}"
            if (c & 1) and not cons.inverters_allowed:
                return False, f"gate g{g} uses inverted operand {decode_literal(c, n)} without inverters"
            if (c & 1) and sid < PI_BASE:
                return False, f"gate g{g} carries an inverted constant"
        if len(set(sources)) != 3:
            return False, f"gate g{g} repeats an operand source"
        if cons.leafy and not any(PI_BASE <= s < base for s in sources):
            return False, f"gate g{g} has no primary input operand (leafy)"
    out = net.output_code
    if out >> 1 >= base + net.num_gates:
        return False, "output references a missing gate"
    if (out & 1) and not cons.inverters_allowed:
        return False, "output is inverted without inverters"
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

    __slots__ = ("cols", "mask", "target_bits", "out_col", "error", "score")

    def __init__(self, cols: list[int], mask: int, target: TruthTable) -> None:
        self.cols = cols
        self.mask = mask
        self.target_bits = target.bits
        self.out_col = 0
        self.error = 0
        self.score = 0

    def output_column(self, net: LogicNetwork) -> int:
        out = net.output_code
        col = self.cols[out >> 1]
        return col ^ self.mask if out & 1 else col

    def literal_column(self, code: int) -> int:
        col = self.cols[code >> 1]
        return col ^ self.mask if code & 1 else col


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
    cache.out_col = cache.output_column(net)
    cache.error = (cache.out_col ^ target.bits).bit_count()
    cache.score = combined_score(net, cache)
    return cache


def recompute_from(net: LogicNetwork, cache: EvalCache, changed_gate: int,
                   undo: list | None = None) -> int:
    """Refresh the cache after a single-gate edit; returns the new error.

    Only the changed gate and the part of its fanout whose columns actually
    change are recomputed.  When ``undo`` is given, every overwritten
    ``(source_id, old_column)`` pair is appended to it, oldest first.
    """
    codes = net.codes
    p = len(codes)
    if not 0 <= changed_gate < p:
        raise ValueError(f"gate index {changed_gate} out of range")
    cols, mask = cache.cols, cache.mask
    hid = PI_BASE + net.n + changed_gate
    # the majority is inlined here (see _gate_column): this is the hot loop
    ca, cb, cc = codes[changed_gate]
    a = cols[ca >> 1] ^ (mask if ca & 1 else 0)
    b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
    c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
    new = (a & (b | c)) | (b & c)
    if new != cols[hid]:
        if undo is not None:
            undo.append((hid, cols[hid]))
        cols[hid] = new
        dirty = {hid}
        for ca, cb, cc in codes[changed_gate + 1:]:
            hid += 1
            if ca >> 1 in dirty or cb >> 1 in dirty or cc >> 1 in dirty:
                a = cols[ca >> 1] ^ (mask if ca & 1 else 0)
                b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
                c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
                new = (a & (b | c)) | (b & c)
                if new != cols[hid]:
                    if undo is not None:
                        undo.append((hid, cols[hid]))
                    cols[hid] = new
                    dirty.add(hid)
    out = net.output_code
    col = cols[out >> 1]
    if out & 1:
        col ^= mask
    cache.out_col = col
    cache.error = (col ^ cache.target_bits).bit_count()
    return cache.error


def output_cofactors(net: LogicNetwork, cache: EvalCache, g: int,
                     cone: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Score every possible column of gate ``g`` at once.

    Majority gates act bitwise, so on each input vector the output bit is a
    function of gate g's bit on that vector alone.  With ``o0`` and ``o1``
    the output columns when gate g's column is forced to 0 and to ``mask``,
    this returns ``(e0, d, stale)``: ``e0 = o0 ^ target`` and
    ``d = o0 ^ o1``, so giving gate g the column ``x`` makes the error
    ``(e0 ^ (d & x)).bit_count()``.  ``stale`` lists, in gate order, the
    gates after g in ``cone`` (``output_cone(net)``) that read gate g
    through operand edges, as ``(h, c0, dh)``: gate h's column is
    ``c0 ^ (dh & x)`` once gate g's column is ``x``.

    Only those gates are evaluated.  Every other column is read from the
    cache: the sources before gate g, and the cone gates after it that do
    not read it, must be fresh.  A cone gate reads only cone gates and
    sources before it, so the columns of gate g and of the gates outside
    the cone are never read and may be stale.  For a gate outside the cone
    ``d`` is 0 and ``stale`` is empty.
    """
    codes = net.codes
    if not 0 <= g < len(codes):
        raise ValueError(f"gate index {g} out of range")
    cols, mask = cache.cols, cache.mask
    base = PI_BASE + net.n
    hid = base + g
    out = net.output_code
    top = (out >> 1) - base  # the highest cone gate, if the output is a gate
    c0 = cols[:]
    c0[hid] = 0
    c1 = c0[:]
    c1[hid] = mask
    stale = []
    reads = 1 << hid  # source-id bits of gate g and of the gates that read it
    later = cone >> g
    for h in range(g + 1, top + 1):
        later >>= 1
        if not later & 1:
            continue
        ca, cb, cc = codes[h]
        ia, ib, ic = ca >> 1, cb >> 1, cc >> 1
        if not (reads >> ia | reads >> ib | reads >> ic) & 1:
            continue
        sid = base + h
        reads |= 1 << sid
        a = c0[ia] ^ (mask if ca & 1 else 0)
        b = c0[ib] ^ (mask if cb & 1 else 0)
        c = c0[ic] ^ (mask if cc & 1 else 0)
        x0 = c0[sid] = (a & (b | c)) | (b & c)
        a = c1[ia] ^ (mask if ca & 1 else 0)
        b = c1[ib] ^ (mask if cb & 1 else 0)
        c = c1[ic] ^ (mask if cc & 1 else 0)
        x1 = c1[sid] = (a & (b | c)) | (b & c)
        stale.append((h, x0, x0 ^ x1))
    sid = out >> 1
    o0 = c0[sid] ^ (mask if out & 1 else 0)
    return o0 ^ cache.target_bits, c0[sid] ^ c1[sid], stale


def _cone(codes, base: int, out: int) -> int:
    """Bitmask of the gates that output code ``out`` reaches through the
    operand rows ``codes`` (bit g for gate g; ``base`` is gate 0's source id)."""
    cone = 0
    stack = [(out >> 1) - base]
    while stack:
        g = stack.pop()
        if g >= 0 and not cone >> g & 1:
            cone |= 1 << g
            ca, cb, cc = codes[g]
            stack.append((ca >> 1) - base)
            stack.append((cb >> 1) - base)
            stack.append((cc >> 1) - base)
    return cone


def output_cone(net: LogicNetwork) -> int:
    """Bitmask of the gates the output reaches through operand edges (bit g
    for gate g), found on the raw codes without any cleanup."""
    return _cone(net.codes, PI_BASE + net.n, net.output_code)


def weighted_energy(cache: EvalCache, weights) -> float:
    """Sum of weights over the mismatching input vectors."""
    size = cache.mask.bit_length()
    if len(weights) != size:
        raise ValueError(f"need {size} weights, got {len(weights)}")
    mismatch = (cache.out_col ^ cache.target_bits) & cache.mask
    total = 0.0
    while mismatch:
        low = mismatch & -mismatch
        total += weights[low.bit_length() - 1]
        mismatch ^= low
    return total


def _reduce_codes(n: int, codes: list[list[int]], output_code: int):
    """Shared cleanup core: trivial-gate and duplicate elimination.

    One pass in gate order reaches the fixpoint: gate g reads only earlier
    sources, whose substitutions are final when g is visited, so a second
    pass would find the same operands and keys.  Substitutions live in a
    table indexed by operand code, and every entry names its final code.

    Returns (lits, out, cone): every gate's substituted operand codes, the
    substituted output code, and the bitmask of gates that output reaches.
    """
    base = PI_BASE + n
    table = list(range((base + len(codes)) << 1))
    width = len(table).bit_length()  # every code fits in one key field
    seen: dict[int, int] = {}
    lits = []
    removed = 0
    for g, (a, b, c) in enumerate(codes):
        a, b, c = table[a], table[b], table[c]
        lits.append((a, b, c))
        if a == b or a == c:
            red = a
        elif b == c:
            red = b
        elif a >> 1 == b >> 1:
            red = c
        elif a >> 1 == c >> 1:
            red = b
        elif b >> 1 == c >> 1:
            red = a
        # two distinct constants pass the third operand through
        elif a < 4 and b < 4:
            red = c
        elif a < 4 and c < 4:
            red = b
        elif b < 4 and c < 4:
            red = a
        else:
            # irreducible: merge gates computing the same function
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
            if a > b:
                a, b = b, a
            key = (a << width | b) << width | c
            other = seen.get(key)
            if other is None:
                seen[key] = g
                continue
            red = (base + other) << 1
        sid = (base + g) << 1
        table[sid] = red
        # inverted constants normalize to the opposite constant
        table[sid | 1] = red ^ 2 if red < 4 else red ^ 1
        removed |= 1 << g
    out = table[output_code]
    cone = _cone(lits, base, out)
    bad = cone & removed
    if bad:
        # only a gate reading a later one can reach a replaced gate
        raise RuntimeError("cleanup reached the removed gate "
                           f"g{(bad & -bad).bit_length() - 1}")
    return lits, out, cone


def cleaned_gate_count(net: LogicNetwork) -> int:
    """Gate count after cleanup, without materializing the cleaned network."""
    return _reduce_codes(net.n, net.codes, net.output_code)[2].bit_count()


def cleanup(net: LogicNetwork) -> tuple[LogicNetwork, int]:
    """Simplify: constant/trivial propagation, duplicate-gate merging and
    dead-gate removal, in one pass that reaches the fixpoint (see
    ``_reduce_codes``).  Returns (simplified network, gate count).

    The input network is not modified; the simplified network computes a
    bit-identical output column.
    """
    n = net.n
    base = PI_BASE + n
    lits, out, cone = _reduce_codes(n, net.codes, net.output_code)
    order = [g for g in range(len(lits)) if cone >> g & 1]
    renumber = {base + g: base + i for i, g in enumerate(order)}

    def remap(code: int) -> int:
        sid = code >> 1
        return renumber[sid] << 1 | (code & 1) if sid in renumber else code

    new_codes = [[remap(x) for x in lits[g]] for g in order]
    simplified = LogicNetwork(n, net.constraints, new_codes, remap(out))
    return simplified, len(new_codes)


def combined_score(net: LogicNetwork, cache: EvalCache) -> int:
    """Search score: the error when nonzero, else cleaned size minus budget.

    Exact networks always score <= 0, strictly below every inexact one.
    """
    if cache.error:
        return cache.error
    return cleaned_gate_count(net) - net.constraints.max_nodes
