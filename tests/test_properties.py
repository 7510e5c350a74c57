"""Property tests for the output-cone shortcut, the move path and the
output cofactors that score the sweep.

Networks are drawn over n in {3, 5, 7}, every budget up to 12 gates, both
gate sets, leafy or not, and an output that may sit on any gate (inverted
when inverters are allowed), so many networks carry dead gates.
"""

import random

from hypothesis import given, settings, strategies as st

from ptsynth.moves import (
    apply_proposal,
    propose_reassign_all,
    propose_reassign_one,
    propose_swap_between_gates,
    replacement_pool,
    revert_proposal,
)
from ptsynth.network import (
    PI_BASE,
    NetworkConstraints,
    cleanup,
    evaluate_full,
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
    col = evaluate_full(net, TruthTable(net.n, 0)).out_col
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
    assert evaluate_full(edited, target).out_col == before.out_col
    assert cleanup(edited)[1] == count
    assert output_cone(edited) == cone


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
        assert cache.cols == fresh.cols and cache.out_col == fresh.out_col
        assert cache.error == fresh.error
        assert cache.score == fresh.score == score + delta
        if revert:
            revert_proposal(net, cache, undo)
            assert net.codes == codes and cache.cols == cols
            assert (cache.error, cache.score) == (error, score)
            assert cache.out_col == evaluate_full(net, target).out_col


@SETTINGS
@given(networks(), st.booleans())
def test_output_cofactors_predict_the_error_of_every_replacement(drawn,
                                                                 exact_start):
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    cache = evaluate_full(net, target)
    cone = output_cone(net)
    for g in range(net.num_gates):
        e0, d, reaches = output_cofactors(net, cache, g)
        assert reaches == bool(cone >> g & 1)
        if not reaches:
            assert d == 0
        # the current column of gate g reproduces the current error
        assert (e0 ^ (d & cache.cols[PI_BASE + net.n + g])).bit_count() \
            == cache.error
        s = rng.randrange(3)
        edits = propose_reassign_one(net, rng, g, s, replacement_pool(net, g, s))
        if edits is None:
            continue
        edited = net.copy()
        edited.codes[g][s] = edits[0][2]
        a, b, c = (cache.literal_column(code) for code in edited.codes[g])
        x = (a & (b | c)) | (b & c)
        assert (e0 ^ (d & x)).bit_count() == evaluate_full(edited, target).error
        # the cached columns of gate g and the gates after it are not read
        hid = PI_BASE + net.n + g
        stale = evaluate_full(net, target)
        for sid in range(hid, len(stale.cols)):
            stale.cols[sid] = rng.getrandbits(1 << net.n)
        assert output_cofactors(net, stale, g) == (e0, d, reaches)
