"""Property tests for the move path's output-cone shortcut.

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
    # the move path takes the shortcut and reaches the same score
    delta, _ = apply_proposal(net, before, edits)
    assert delta == 0 and before.cone == cone
    assert net == edited
    assert before.score == evaluate_full(net, target).score


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
        # an exact state gets its cone filled in before the edits are written
        cone = cache.cone if cache.cone is not None or error else output_cone(net)
        delta, undo = apply_proposal(net, cache, edits)
        fresh = evaluate_full(net, target)
        assert cache.cols == fresh.cols and cache.out_col == fresh.out_col
        assert cache.error == fresh.error
        assert cache.score == fresh.score == score + delta
        # only an exact network holds a cone, and it is always current
        assert cache.cone is None or (cache.error == 0
                                      and cache.cone == output_cone(net))
        if revert:
            revert_proposal(net, cache, undo)
            assert net.codes == codes and cache.cols == cols
            assert (cache.error, cache.score, cache.cone) == (error, score, cone)
            assert cache.out_col == evaluate_full(net, target).out_col
