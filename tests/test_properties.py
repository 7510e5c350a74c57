"""Property tests for cleanup and its sorted-operand rules, the output-cone
shortcut and the cone bits a move keeps, the move path, the output
cofactors, swap pass and slot residuals that score the sweep, the
replacement pool it draws from, and the swap proposer's legality test,
which checks each literal against that pool.

Networks are drawn over n in {3, 5, 7}, every budget up to 12 gates, both
gate sets, leafy or not, and an output that may sit on any gate (inverted
when inverters are allowed), so many networks carry dead gates.
"""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

from ptsynth.moves import (
    apply_proposal,
    propose_reassign_one,
    propose_swap_between_gates,
    replacement_pool,
    revert_proposal,
    source_pools,
)
from ptsynth.network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    _reduce_codes,
    cleaned_gate_count,
    cleanup,
    evaluate_full,
    input_column,
    is_valid,
    output_cofactors,
    output_cone,
    propagate,
    random_network,
)
from ptsynth.truthtable import TruthTable

MIXES = ((1, 0), (1, 1), (0, 1))
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def networks(draw):
    n = draw(st.sampled_from((3, 5, 7)))
    p = draw(st.integers(1, 12))
    inverters = draw(st.booleans())
    cons = NetworkConstraints(p, inverters_allowed=inverters,
                              leafy=draw(st.booleans()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = random_network(n, cons, rng)
    out_gate = draw(st.integers(0, p - 1))
    inverted = inverters and draw(st.booleans())
    net.output_code = (PI_BASE + n + out_gate) << 1 | inverted
    return net, rng


def own_target(net):
    """The truth table the network computes, so it starts exact."""
    col = evaluate_full(net, TruthTable(net.n, 0)).output_column(net)
    return TruthTable(net.n, col)


def propose(net, rng, kind, gate, slot):
    if kind == 0:
        return propose_reassign_one(net, rng, gate, slot,
                                    replacement_pool(net, gate, slot))
    return propose_swap_between_gates(net, rng, gate, slot, source_pools(net))


@SETTINGS
@given(networks(), st.sampled_from((0, 1)))
def test_out_of_cone_edit_keeps_output_and_cleaned_count(drawn, kind):
    net, rng = drawn
    cone = output_cone(net)
    outside = [g for g in range(net.num_gates) if not cone >> g & 1]
    if not outside:
        return
    gate = outside[rng.randrange(len(outside))]
    edits = propose(net, rng, kind, gate, rng.randrange(3))
    if edits is None or any(cone >> g & 1 for g, _, _ in edits):
        return
    target = own_target(net)
    before = evaluate_full(net, target)
    count = cleanup(net)[1]
    edited = net.copy()
    for g, s, c in edits:
        edited.codes[g][s] = c
    assert evaluate_full(edited, target).output_column(edited) \
        == before.output_column(net)
    assert cleanup(edited)[1] == count
    assert output_cone(edited) == cone


@SETTINGS
@given(networks(), st.data())
def test_cleanup_of_merging_networks_is_sound_and_idempotent(drawn, data):
    # overwrite some rows with permuted copies of earlier rows, complemented
    # when inverters are allowed, so that cleanup has gates to merge
    net, rng = drawn
    for g in range(1, net.num_gates):
        if not data.draw(st.booleans()):
            continue
        row = net.codes[data.draw(st.integers(0, g - 1))][:]
        rng.shuffle(row)
        if net.constraints.inverters_allowed and data.draw(st.booleans()):
            # an inverted constant is the other constant
            row = [c ^ 2 if c < 4 else c ^ 1 for c in row]
        net.codes[g] = row
    assert is_valid(net) == (True, None)
    simplified, q = cleanup(net)
    assert is_valid(simplified) == (True, None)
    assert cleanup(simplified) == (simplified, q)
    target = TruthTable(net.n, 0)
    assert evaluate_full(simplified, target).output_column(simplified) \
        == evaluate_full(net, target).output_column(net)
    assert cleaned_gate_count(net) == q


def walk_cone(rows, base, out):
    """Bitmask of the gates output code ``out`` reaches through the operand
    ``rows``, by a stack walk back from the output (gate 0 is ``base``)."""
    cone, stack = 0, [(out >> 1) - base]
    while stack:
        g = stack.pop()
        if g >= 0 and not cone >> g & 1:
            cone |= 1 << g
            stack.extend((c >> 1) - base for c in rows[g])
    return cone


def ladder_reduce_codes(n, codes, output_code):
    """``network._reduce_codes`` as it was before it sorted the operands
    first: the pattern ladder, kept as the reference.  Returns every gate's
    substituted operands, the substituted output and the gates it reaches."""
    base = PI_BASE + n
    table = list(range((base + len(codes)) << 1))
    width = len(table).bit_length()  # every code fits in one key field
    seen: dict[int, int] = {}
    lits = []
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
    out = table[output_code]
    return lits, out, walk_cone(lits, base, out)


@st.composite
def reducible_codes(draw):
    """Operand rows over earlier sources in which reducible gates are
    common: an operand may be overwritten with a constant, or with another
    operand of its row or that operand's complement, and a row may start as
    a permutation of an earlier one."""
    n = draw(st.sampled_from((3, 5, 7)))
    base = PI_BASE + n
    codes = []
    for g in range(draw(st.integers(1, 12))):
        if codes and draw(st.booleans()):
            row = draw(st.permutations(draw(st.sampled_from(codes))))
        else:
            row = [draw(st.integers(0, ((base + g) << 1) - 1))
                   for _ in range(3)]
        for s in range(3):
            kind = draw(st.sampled_from(("keep", "keep", "keep", "const 0",
                                         "const 1", "copy", "complement")))
            other = row[draw(st.integers(0, 2))]
            if kind == "const 0":
                row[s] = 0
            elif kind == "const 1":
                row[s] = 2
            elif kind == "copy":
                row[s] = other
            elif kind == "complement":
                row[s] = other ^ 1
        codes.append(row)
    output_code = draw(st.integers(0, ((base + len(codes)) << 1) - 1))
    return n, codes, output_code


@settings(max_examples=300, deadline=None)
@given(reducible_codes())
def test_sorted_operand_rules_match_the_pattern_ladder(drawn):
    n, codes, output_code = drawn
    table, cone = _reduce_codes(n, codes, output_code)
    assert ([tuple(table[c] for c in row) for row in codes],
            table[output_code], cone) == ladder_reduce_codes(n, codes, output_code)


@SETTINGS
@given(networks())
def test_output_cone_matches_a_walk_and_spans_the_cleaned_network(drawn):
    net, _ = drawn
    assert output_cone(net) == walk_cone(net.codes, PI_BASE + net.n, net.output_code)
    simplified, q = cleanup(net)
    assert output_cone(simplified) == (1 << q) - 1


@SETTINGS
@given(networks(), st.sampled_from(MIXES), st.booleans(),
       st.lists(st.booleans(), min_size=1, max_size=40))
def test_apply_revert_is_exact_and_scores_stay_fresh(drawn, mix, exact_start,
                                                     reverts):
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    cache = evaluate_full(net, target)
    kinds = [k for k, w in enumerate(mix) if w]
    for revert in reverts:
        edits = propose(net, rng, rng.choice(kinds),
                        rng.randrange(net.num_gates), rng.randrange(3))
        if edits is None:
            continue
        codes = [row[:] for row in net.codes]
        cols = cache.cols[:]
        error, score = cache.error, cache.score
        delta, undo = apply_proposal(net, cache, edits)
        fresh = evaluate_full(net, target)
        assert cache.cols == fresh.cols
        assert cache.error == fresh.error
        assert cache.score == fresh.score == score + delta
        if revert:
            revert_proposal(net, cache, undo)
            assert net.codes == codes and cache.cols == cols
            assert (cache.error, cache.score) == (error, score)
            assert cache.output_column(net) \
                == evaluate_full(net, target).output_column(net)


def forced_columns(net, g, col):
    """Every source column, evaluated from scratch with gate g's column
    forced to ``col``."""
    n = net.n
    mask = (1 << (1 << n)) - 1
    cols = [0, mask] + [input_column(i, n) for i in range(n)]
    for h, row in enumerate(net.codes):
        a, b, c = (cols[code >> 1] ^ (mask if code & 1 else 0) for code in row)
        cols.append(col if h == g else (a & (b | c)) | (b & c))
    return cols


def readers(net, g):
    """The gates after g that read gate g through operand edges."""
    base = PI_BASE + net.n
    reading = {base + g}
    for h, row in enumerate(net.codes[g + 1:], g + 1):
        if any(code >> 1 in reading for code in row):
            reading.add(base + h)
    return sorted(sid - base for sid in reading if sid != base + g)


@SETTINGS
@given(networks(), st.booleans())
def test_output_cofactors_predict_the_error_of_every_replacement(drawn,
                                                                 exact_start):
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    cache = evaluate_full(net, target)
    cone = output_cone(net)
    base, mask, out = PI_BASE + net.n, cache.mask, net.output_code
    for g in range(net.num_gates):
        hid = base + g
        o0, o1 = (forced_columns(net, g, col)[out >> 1] ^ (mask if out & 1 else 0)
                  for col in (0, mask))
        if not cone >> g & 1:
            # the output reads no gate outside the cone
            assert o0 == o1 == cache.output_column(net)
            continue
        e0, d, stale = output_cofactors(net, cache, g, cone)
        assert (e0, d) == (o0 ^ target.bits, o0 ^ o1)
        assert [h for h, _ in stale] == [h for h in readers(net, g)
                                         if cone >> h & 1]
        # the current column of gate g reproduces the current error
        assert (e0 ^ (d & cache.cols[hid])).bit_count() == cache.error
        s = rng.randrange(3)
        edits = propose_reassign_one(net, rng, g, s, replacement_pool(net, g, s))
        if edits is not None:
            edited = net.copy()
            edited.codes[g][s] = edits[0][2]
            a, b, c = (cache.cols[code >> 1] ^ (mask if code & 1 else 0)
                       for code in edited.codes[g])
            x = (a & (b | c)) | (b & c)
            fresh = evaluate_full(edited, target)
            assert (e0 ^ (d & x)).bit_count() == fresh.error
            # refreshing the stale gates makes every later cone column fresh
            cols = cache.cols[:]
            cols[hid] = x
            for h, dh in stale:
                cols[base + h] ^= dh & (cache.cols[hid] ^ x)
            assert all(cols[base + h] == fresh.cols[base + h]
                       for h in range(g, net.num_gates) if cone >> h & 1)
        # the columns of the gates outside the cone are not read
        scrambled = evaluate_full(net, target)
        for h in range(net.num_gates):
            if not cone >> h & 1:
                scrambled.cols[base + h] = rng.getrandbits(1 << net.n)
        assert output_cofactors(net, scrambled, g, cone) \
            == (e0, d, stale)


@SETTINGS
@given(networks(), st.booleans())
def test_swap_pass_refreshes_every_column_the_sweep_reads(drawn, exact_start):
    # engine.sweep scores a swap at gate g with propagate in place on
    # cache.cols, skipping the gates at or above g outside the cone, whose
    # columns it may hold stale; a rejected swap XORs its changes back
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    g = rng.randrange(net.num_gates)
    edits = propose_swap_between_gates(net, rng, g, rng.randrange(3),
                                       source_pools(net))
    if edits is None:
        return
    cache = evaluate_full(net, target)
    cone = output_cone(net)
    base = PI_BASE + net.n
    for h in range(g, net.num_gates):
        if not cone >> h & 1:
            cache.cols[base + h] = rng.getrandbits(1 << net.n)
    (_, _, l2), (g2, s2, l1) = edits
    net.codes[g][edits[0][1]], net.codes[g2][s2] = l2, l1
    propagate(net.codes, cache.cols, cache.mask, base, min(g, g2), 0,
              1 << g | 1 << g2, ~cone >> g << g)
    fresh = evaluate_full(net, target)
    assert cache.output_column(net) == fresh.output_column(net)
    swapped_cone = output_cone(net)
    assert all(cache.cols[base + h] == fresh.cols[base + h]
               for h in range(net.num_gates) if h < g or swapped_cone >> h & 1)


@SETTINGS
@given(networks(), st.booleans())
def test_slot_residuals_score_every_reassign_one_literal(drawn, exact_start):
    # engine.sweep scores a reassign-one attempt at a cone gate from the
    # slot's residuals, taken once per slot from the other two operands
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    cache = evaluate_full(net, target)
    cols, mask = cache.cols, cache.mask
    cone = output_cone(net)
    for g in range(net.num_gates):
        if not cone >> g & 1:
            continue
        e0, d, _ = output_cofactors(net, cache, g, cone)
        row = net.codes[g]
        for s in range(3):
            b, c = (cols[code >> 1] ^ (mask if code & 1 else 0)
                    for code in (row[s - 2], row[s - 1]))
            free = d & (b ^ c)
            r0 = e0 ^ (d & b & c)
            r1 = r0 ^ free
            for new in replacement_pool(net, g, s):
                edited = net.copy()
                edited.codes[g][s] = new
                assert ((r1 if new & 1 else r0)
                        ^ (cols[new >> 1] & free)).bit_count() == \
                    evaluate_full(edited, target).error


@SETTINGS
@given(networks(), st.sampled_from((0, 1)), st.integers(1, 6))
def test_no_move_changes_the_cone_bits_from_its_gate_up(drawn, kind, count):
    # every literal a move at gate g writes or overwrites names a source
    # below g, so the cone bits of g and the gates above it stay put; for
    # a swap that holds from the lower of its two gates up
    net, rng = drawn
    for _ in range(count):
        g = rng.randrange(net.num_gates)
        edits = propose(net, rng, kind, g, rng.randrange(3))
        if edits is None:
            continue
        lo = min(eg for eg, _, _ in edits)
        cone = output_cone(net)
        for eg, s, code in edits:
            net.codes[eg][s] = code
        assert output_cone(net) >> lo == cone >> lo


@st.composite
def networks_with_constants(draw):
    """Valid networks over n in 3..9 in which some operands are rewired to
    the constants, where the gate stays valid."""
    n = draw(st.integers(3, 9))
    cons = NetworkConstraints(draw(st.integers(1, 12)),
                              inverters_allowed=draw(st.booleans()),
                              leafy=draw(st.booleans()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    net = random_network(n, cons, rng)
    density = draw(st.sampled_from((0.0, 0.3, 0.7)))
    for row in net.codes:
        for s in range(3):
            others = (row[s - 2] >> 1, row[s - 1] >> 1)
            const = rng.randrange(PI_BASE)
            if rng.random() < density and const not in others and not (
                    cons.leafy and all(o < PI_BASE or o >= PI_BASE + n
                                       for o in others)):
                row[s] = const << 1
    assert is_valid(net) == (True, None)
    return net


def leafy_examples(test):
    """Two leafy networks in which slot 0 of both gates has no input among
    its other operands, so its pool holds only the inputs."""
    for inverters, codes in ((False, [[4, 0, 2], [4, 0, 10]]),
                             (True, [[5, 0, 2], [4, 2, 11]])):
        cons = NetworkConstraints(2, inverters_allowed=inverters, leafy=True)
        test = example(LogicNetwork(3, cons, codes))(test)
    return test


@leafy_examples
@SETTINGS
@given(st.one_of(networks().map(lambda drawn: drawn[0]),
                 networks_with_constants()))
def test_replacement_pool_holds_exactly_the_valid_codes(net):
    # a code is in the slot's pool exactly when is_valid passes the network
    # with that code written into the slot
    for g in range(net.num_gates):
        row = net.codes[g]
        for s in range(3):
            pool = replacement_pool(net, g, s)
            cur = row[s]
            assert cur in pool
            for code in range((PI_BASE + net.n + net.num_gates) << 1):
                row[s] = code
                valid = is_valid(net)[0]
                row[s] = cur
                assert valid == (code in pool)


class ScriptedDraws(random.Random):
    """A stream whose ``getrandbits`` repeats the given draws in turn."""

    def __init__(self, *draws):
        super().__init__(0)
        self.draws = itertools.cycle(draws)

    def getrandbits(self, k):
        return next(self.draws)


@leafy_examples
@SETTINGS
@given(st.one_of(networks().map(lambda drawn: drawn[0]),
                 networks_with_constants()))
def test_swap_is_proposed_exactly_when_the_exchange_is_valid(net):
    # with every partner draw fixed to (g2, s2), the swap at (g, s) is
    # proposed exactly when the literals differ and the network with them
    # exchanged passes is_valid; the proposer itself writes nothing
    codes = net.codes
    before = [row[:] for row in codes]
    gates = range(net.num_gates)
    for g, s, g2, s2 in itertools.product(gates, range(3), gates, range(3)):
        if g2 == g:
            continue
        rng = ScriptedDraws(g2 - (g2 > g), s2)
        edits = propose_swap_between_gates(net, rng, g, s, source_pools(net))
        assert codes == before
        l1, l2 = codes[g][s], codes[g2][s2]
        codes[g][s], codes[g2][s2] = l2, l1
        valid = is_valid(net)[0]
        codes[g][s], codes[g2][s2] = l1, l2
        swapped = ((g, s, l2), (g2, s2, l1))
        assert edits == (swapped if l1 != l2 and valid else None)


# the swap proposer's partner draws: randrange(p - 1) at p = 2, and the slot
@example(seed=1, size=1)
@example(seed=1, size=3)
@SETTINGS
@given(st.integers(0, 2**64), st.one_of(st.integers(1, 70),
                                        st.integers(1, 2**70)))
def test_inline_draw_matches_randrange(seed, size):
    # engine.sweep draws a pool index, and the swap proposer its partner
    # gate and slot, with this loop in place of randrange(size); it relies
    # on CPython's _randbelow_with_getrandbits having the same body, so this
    # runs on every interpreter CI tests
    ours, ref = random.Random(seed), random.Random(seed)
    getrandbits = ours.getrandbits
    k = size.bit_length()
    drawn = []
    for _ in range(8):
        j = getrandbits(k)
        while j >= size:
            j = getrandbits(k)
        drawn.append(j)
    assert drawn == [ref.randrange(size) for _ in range(8)]
    assert ours.getstate() == ref.getstate()
