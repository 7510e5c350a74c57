import random

import pytest

from ptsynth import network
from ptsynth.moves import (
    apply_proposal,
    propose_reassign_all,
    propose_reassign_one,
    propose_swap_between_gates,
    replacement_pool,
    revert_proposal,
)
from ptsynth.network import (
    CONST,
    GATE,
    INPUT,
    Gate,
    Literal,
    LogicNetwork,
    NetworkConstraints,
    decode_literal,
    encode_literal,
    evaluate_full,
    is_valid,
    output_cone,
)
from ptsynth.truthtable import majority_truth_table

from conftest import random_location, random_problem, random_reassign_one


def x(i, inv=False):
    return Literal(INPUT, i, inv)


def const(v):
    return Literal(CONST, v)


def codes_of(lits, n):
    return [encode_literal(lit, n) for lit in lits]


def reassign_one_at(net, rng, gate, slot):
    return propose_reassign_one(net, rng, gate, slot,
                                replacement_pool(net, gate, slot))


def random_swap(net, rng):
    return propose_swap_between_gates(net, rng, *random_location(net, rng))


def random_reassign_all(net, rng):
    return propose_reassign_all(net, rng, random_location(net, rng)[0])


MAKERS = (random_reassign_one, random_swap, random_reassign_all)


def test_pool_excludes_other_slots_and_keeps_constants():
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3)])
    pool = {decode_literal(c, 3) for c in replacement_pool(net, 0, 0)}
    # slot 0 may become anything but x1/x2; the current x0 stays in the pool
    assert pool == {const(0), const(1), x(0)}
    rng = random.Random(1)
    for _ in range(50):
        (gate, slot, code), = reassign_one_at(net, rng, 0, 0)
        assert (gate, slot) == (0, 0)
        lit = decode_literal(code, 3)
        assert lit in (const(0), const(1))


def test_pool_leafy_lock_restricts_to_inputs():
    cons = NetworkConstraints(2, inverters_allowed=False, leafy=True)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3),
                                 codes_of([x(0), const(0), const(1)], 3)])
    pool = {decode_literal(c, 3) for c in replacement_pool(net, 1, 0)}
    assert pool == {x(0), x(1), x(2)}


def test_pool_first_gate_sees_no_gate_outputs():
    cons = NetworkConstraints(3, inverters_allowed=True)
    net = LogicNetwork(4, cons, [codes_of([x(0), x(1), x(2)], 4),
                                 codes_of([x(0), x(1), Literal(GATE, 0)], 4),
                                 codes_of([x(0), x(1), Literal(GATE, 1)], 4)])
    pool = [decode_literal(c, 4) for c in replacement_pool(net, 0, 2)]
    assert all(lit.kind != GATE for lit in pool)
    pool2 = [decode_literal(c, 4) for c in replacement_pool(net, 2, 2)]
    assert any(lit.kind == GATE for lit in pool2)


def test_reassign_one_never_null_and_respects_polarity_rules():
    rng = random.Random(2)
    for _ in range(200):
        net, _ = random_problem(rng, max_n=6, max_p=10)
        gate = rng.randrange(net.num_gates)
        slot = rng.randrange(3)
        edits = reassign_one_at(net, rng, gate, slot)
        if edits is None:
            continue
        (g, s, code), = edits
        assert (g, s) == (gate, slot)
        assert code != net.codes[gate][slot]
        if not net.constraints.inverters_allowed:
            assert code & 1 == 0


def test_reassign_one_unavailable_when_saturated():
    # n=1 without inverters: the only gate is {x0, 0, 1} in some order
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(1, cons, [codes_of([x(0), const(0), const(1)], 1)])
    rng = random.Random(3)
    for slot in range(3):
        assert reassign_one_at(net, rng, 0, slot) is None


def test_swap_needs_two_gates():
    cons = NetworkConstraints(1)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3)])
    assert propose_swap_between_gates(net, random.Random(0), 0, 0) is None


def test_swap_rejects_topological_violation():
    # every swap here would self-reference gate 0 or duplicate an operand,
    # so bounded rejection sampling always gives up
    cons = NetworkConstraints(2, inverters_allowed=False)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3),
                                 codes_of([Literal(GATE, 0), x(1), x(2)], 3)])
    rng = random.Random(4)
    for _ in range(100):
        assert random_swap(net, rng) is None


def test_swap_never_moves_gate_refs_too_early():
    cons = NetworkConstraints(2, inverters_allowed=False)
    net = LogicNetwork(4, cons, [codes_of([x(0), x(1), x(2)], 4),
                                 codes_of([Literal(GATE, 0), x(3), x(2)], 4)])
    rng = random.Random(4)
    seen_valid = 0
    for _ in range(200):
        edits = random_swap(net, rng)
        if edits is None:
            continue
        seen_valid += 1
        assert {g for g, _, _ in edits} == {0, 1}
        moved_into_first, = (code for g, _, code in edits if g == 0)
        assert decode_literal(moved_into_first, 4).kind != GATE
    assert seen_valid > 0


def test_swap_apply_revert_roundtrip():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        net, tt = random_problem(rng, max_n=6, max_p=10)
        if net.num_gates < 2:
            continue
        cache = evaluate_full(net, tt)
        edits = random_swap(net, rng)
        if edits is None:
            continue
        checked += 1
        snapshot = (net.copy(), cache.cols[:], cache.error, cache.score)
        _, undo = apply_proposal(net, cache, edits)
        ok, why = is_valid(net)
        assert ok, why
        revert_proposal(net, cache, undo)
        assert net == snapshot[0]
        assert cache.cols == snapshot[1]
        assert (cache.error, cache.score) == snapshot[2:]


def test_reassign_all_respects_constraints():
    rng = random.Random(6)
    cons = NetworkConstraints(4, inverters_allowed=False, leafy=True)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3)
                                 for _ in range(4)])
    for _ in range(100):
        gate = rng.randrange(4)
        edits = propose_reassign_all(net, rng, gate)
        assert [(g, s) for g, s, _ in edits] == [(gate, 0), (gate, 1), (gate, 2)]
        new = [decode_literal(c, 3) for _, _, c in edits]
        assert any(lit.kind == INPUT for lit in new)
        assert all(not lit.inverted for lit in new)
        assert len({(lit.kind, lit.index) for lit in new}) == 3


def test_apply_delta_matches_score_change():
    # replacing the AND gate's constant 0 by x2 repairs MAJ-3 exactly
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), const(0)], 3)])
    cache = evaluate_full(net, majority_truth_table(3))
    assert cache.score == 2
    edits = ((0, 2, encode_literal(x(2), 3)),)
    delta, undo = apply_proposal(net, cache, edits)
    assert delta == -2
    assert cache.error == 0 and cache.score == 0
    revert_proposal(net, cache, undo)
    assert net.codes[0][2] == encode_literal(const(0), 3)
    delta2, _ = apply_proposal(net, cache, edits)
    assert delta2 == -2


def test_out_of_cone_edit_skips_the_cleanup_count(monkeypatch):
    # g0 = maj(x0, x1, x2), g1 = maj(x0, x1, g0) = MAJ-3 is the output, and
    # g2 = maj(x0, x1, 0) is dead
    cons = NetworkConstraints(3, inverters_allowed=False)
    g0 = Literal(GATE, 0)
    net = LogicNetwork(3, cons, [codes_of([x(0), x(1), x(2)], 3),
                                 codes_of([x(0), x(1), g0], 3),
                                 codes_of([x(0), x(1), const(0)], 3)],
                       output_code=encode_literal(Literal(GATE, 1), 3))
    target = majority_truth_table(3)
    cache = evaluate_full(net, target)
    assert cache.error == 0 and cache.score == 2 - 3
    calls = []
    real_count = network.cleaned_gate_count

    def counting(net):
        calls.append(net)
        return real_count(net)

    monkeypatch.setattr(network, "cleaned_gate_count", counting)
    delta, undo = apply_proposal(net, cache, ((2, 2, encode_literal(const(1), 3)),))
    assert (delta, len(calls)) == (0, 0)
    assert cache.cone == output_cone(net) == 0b011
    revert_proposal(net, cache, undo)
    # rewiring g1 to x2 keeps it exact, merges it with g0 and leaves the cone
    delta, _ = apply_proposal(net, cache, ((1, 2, encode_literal(x(2), 3)),))
    assert (delta, len(calls)) == (-1, 1)
    assert cache.error == 0 and cache.cone is None
    assert cache.score == evaluate_full(net, target).score


@pytest.mark.slow
def test_move_fuzz_million_proposals_stay_valid():
    # validity after apply, at scale; cache/score exactness is covered by
    # the smaller round-trip fuzz below
    rng = random.Random(8)
    proposals = 0
    while proposals < 1_000_000:
        net, tt = random_problem(rng, max_n=6, max_p=12)
        cache = evaluate_full(net, tt)
        for _ in range(200):
            edits = MAKERS[proposals % 3](net, rng)
            proposals += 1
            if edits is None:
                continue
            apply_proposal(net, cache, edits)
            ok, why = is_valid(net)
            assert ok, (proposals, why)
    assert proposals >= 1_000_000


def test_move_fuzz_validity_and_revert():
    rng = random.Random(7)
    applied = 0
    for trial in range(3000):
        net, tt = random_problem(rng, max_n=6, max_p=12)
        cache = evaluate_full(net, tt)
        edits = MAKERS[trial % 3](net, rng)
        if edits is None:
            continue
        applied += 1
        snapshot = (net.copy(), cache.cols[:], cache.error, cache.score)
        delta, undo = apply_proposal(net, cache, edits)
        ok, why = is_valid(net)
        assert ok, (trial, why)
        fresh = evaluate_full(net, tt)
        assert fresh.error == cache.error and fresh.score == cache.score
        assert delta == cache.score - snapshot[3]
        revert_proposal(net, cache, undo)
        assert net == snapshot[0] and cache.cols == snapshot[1]
        assert (cache.error, cache.score) == snapshot[2:]
    assert applied > 2000
