"""Property tests for cleanup, the output-cone shortcut and the cone bits a
move keeps, the move path, the output cofactors and slot residuals that
score the sweep and the pool layout it draws from.

Networks are drawn over n in {3, 5, 7}, every budget up to 12 gates, both
gate sets, leafy or not, and an output that may sit on any gate (inverted
when inverters are allowed), so many networks carry dead gates.
"""

import random

from hypothesis import example, given, settings, strategies as st

from ptsynth.moves import (
    apply_proposal,
    pool_layout,
    propose_reassign_all,
    propose_reassign_one,
    propose_swap_between_gates,
    replacement_pool,
    revert_proposal,
)
from ptsynth.network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    cleaned_gate_count,
    cleanup,
    evaluate_full,
    input_column,
    is_valid,
    output_cofactors,
    output_cone,
    random_network,
)
from ptsynth.truthtable import TruthTable

MIXES = ((1, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1))
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
    if kind == 1:
        return propose_swap_between_gates(net, rng, gate, slot)
    return propose_reassign_all(net, rng, gate)


@SETTINGS
@given(networks(), st.sampled_from((0, 1, 2)))
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
        assert [h for h, _, _ in stale] == [h for h in readers(net, g)
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
            for h, c0, dh in stale:
                cols[base + h] = c0 ^ (dh & x)
            assert all(cols[base + h] == fresh.cols[base + h]
                       for h in range(g, net.num_gates) if cone >> h & 1)
        # the columns of gate g and of the gates outside the cone are not read
        scrambled = evaluate_full(net, target)
        for h in range(net.num_gates):
            if h == g or not cone >> h & 1:
                scrambled.cols[base + h] = rng.getrandbits(1 << net.n)
        assert output_cofactors(net, scrambled, g, cone) == (e0, d, stale)


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
@given(networks(), st.sampled_from((0, 1, 2)), st.integers(1, 6))
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


def pool_entry(net, layout, k):
    """Entry k of the pool by the arithmetic ``engine.sweep`` inlines."""
    size, first, e1, skip1, e2, skip2 = layout
    j = first + k
    if j >= e1:
        j += skip1
    if j >= e2:
        j += skip2
    inverters = net.constraints.inverters_allowed
    return j << 1 if j < PI_BASE or not inverters else j + PI_BASE


# leafy, and slot 0 of both gates has no input among its other operands,
# so the input-only branch of pool_layout is taken on every run
@example(LogicNetwork(3, NetworkConstraints(2, inverters_allowed=False,
                                            leafy=True),
                      [[4, 0, 2], [4, 0, 10]]))
@example(LogicNetwork(3, NetworkConstraints(2, inverters_allowed=True,
                                            leafy=True),
                      [[5, 0, 2], [4, 2, 11]]))
@SETTINGS
@given(networks_with_constants())
def test_pool_layout_maps_every_index_to_the_pool_entry(net):
    for g in range(net.num_gates):
        for s in range(3):
            pool = replacement_pool(net, g, s)
            layout = pool_layout(net, g, s)
            assert layout[0] == len(pool)
            assert [pool_entry(net, layout, k) for k in range(len(pool))] == pool
            assert net.codes[g][s] in pool


@SETTINGS
@given(st.integers(0, 2**64), st.one_of(st.integers(2, 70),
                                        st.integers(2, 2**70)))
def test_inline_draw_matches_randrange(seed, size):
    # engine.sweep draws a pool index with this loop in place of
    # randrange(size); it relies on CPython's _randbelow_with_getrandbits
    # having the same body, so this runs on every interpreter CI tests
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
