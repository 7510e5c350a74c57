import math
import random

import pytest

from ptsynth import moves, network
from ptsynth.engine import Replica, sweep
from ptsynth.moves import (
    apply_proposal,
    propose_reassign_one,
    propose_swap_between_gates,
    replacement_pool,
    revert_proposal,
    source_pools,
)
from ptsynth.network import (
    LogicNetwork,
    NetworkConstraints,
    evaluate_full,
    is_valid,
)
from ptsynth.truthtable import majority_truth_table

from conftest import (
    const,
    g,
    random_location,
    random_problem,
    random_reassign_one,
    x,
)


def reassign_one_at(net, rng, gate, slot):
    return propose_reassign_one(net, rng, gate, slot,
                                replacement_pool(net, gate, slot))


def random_swap(net, rng):
    return propose_swap_between_gates(net, rng, *random_location(net, rng),
                                      source_pools(net))


MAKERS = (random_reassign_one, random_swap)


def test_pool_excludes_other_slots_and_keeps_constants():
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(3, cons, [[x(0), x(1), x(2)]])
    pool = set(replacement_pool(net, 0, 0))
    # slot 0 may become anything but x1/x2; the current x0 stays in the pool
    assert pool == {const(0), const(1), x(0)}
    rng = random.Random(1)
    for _ in range(50):
        (gate, slot, code), = reassign_one_at(net, rng, 0, 0)
        assert (gate, slot) == (0, 0)
        assert code in (const(0), const(1))


def test_pool_leafy_lock_restricts_to_inputs():
    cons = NetworkConstraints(2, inverters_allowed=False, leafy=True)
    net = LogicNetwork(3, cons, [[x(0), x(1), x(2)], [x(0), const(0), const(1)]])
    pool = set(replacement_pool(net, 1, 0))
    assert pool == {x(0), x(1), x(2)}


def test_pool_first_gate_sees_no_gate_outputs():
    cons = NetworkConstraints(3, inverters_allowed=True)
    net = LogicNetwork(4, cons, [[x(0), x(1), x(2)], [x(0), x(1), g(0, 4)],
                                 [x(0), x(1), g(1, 4)]])
    first_gate = g(0, 4)
    assert all(c < first_gate for c in replacement_pool(net, 0, 2))
    assert any(c >= first_gate for c in replacement_pool(net, 2, 2))


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
    net = LogicNetwork(1, cons, [[x(0), const(0), const(1)]])
    rng = random.Random(3)
    for slot in range(3):
        assert reassign_one_at(net, rng, 0, slot) is None


def test_swap_needs_two_gates():
    cons = NetworkConstraints(1)
    net = LogicNetwork(3, cons, [[x(0), x(1), x(2)]])
    assert propose_swap_between_gates(net, random.Random(0), 0, 0,
                                      source_pools(net)) is None


def test_swap_rejects_topological_violation():
    # every swap here would self-reference gate 0 or duplicate an operand,
    # so bounded rejection sampling always gives up
    cons = NetworkConstraints(2, inverters_allowed=False)
    net = LogicNetwork(3, cons, [[x(0), x(1), x(2)], [g(0, 3), x(1), x(2)]])
    rng = random.Random(4)
    for _ in range(100):
        assert random_swap(net, rng) is None


def test_swap_never_moves_gate_refs_too_early():
    cons = NetworkConstraints(2, inverters_allowed=False)
    net = LogicNetwork(4, cons, [[x(0), x(1), x(2)], [g(0, 4), x(3), x(2)]])
    rng = random.Random(4)
    seen_valid = 0
    for _ in range(200):
        edits = random_swap(net, rng)
        if edits is None:
            continue
        seen_valid += 1
        assert {g for g, _, _ in edits} == {0, 1}
        moved_into_first, = (code for g, _, code in edits if g == 0)
        assert moved_into_first < g(0, 4)  # not a gate
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


def test_apply_delta_matches_score_change():
    # replacing the AND gate's constant 0 by x2 repairs MAJ-3 exactly
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(3, cons, [[x(0), x(1), const(0)]])
    cache = evaluate_full(net, majority_truth_table(3))
    assert cache.score == 2
    edits = ((0, 2, x(2)),)
    delta, undo = apply_proposal(net, cache, edits)
    assert delta == -2
    assert cache.error == 0 and cache.score == 0
    revert_proposal(net, cache, undo)
    assert net.codes[0][2] == const(0)
    delta2, _ = apply_proposal(net, cache, edits)
    assert delta2 == -2


DEAD_GATE_ROWS = [[x(0), x(1), x(2)],
                  [x(0), x(1), g(0, 3)],
                  [x(2), g(0, 3), g(1, 3)],
                  [x(0), g(1, 3), g(2, 3)]]


def dead_gate_replica(rng):
    """g0 = maj(x0, x1, x2) = MAJ-3 is the output and g1..g3 are dead."""
    cons = NetworkConstraints(4, inverters_allowed=False)
    net = LogicNetwork(3, cons, [row[:] for row in DEAD_GATE_ROWS],
                       output_code=g(0, 3))
    return Replica(net, evaluate_full(net, majority_truth_table(3)), rng)


def test_out_of_cone_edit_skips_the_cleanup_count(monkeypatch):
    # At infinite beta the sweep of the dead-gate network stays exact, so
    # no edit of g1..g3 needs the cleanup count.  Nor does a move touching
    # g0: any other operand makes g0 inexact, and a swap can only hand g0 a
    # constant.
    calls = 0
    real_count = network.cleaned_gate_count

    def counting(net):
        nonlocal calls
        calls += 1
        return real_count(net)

    monkeypatch.setattr(network, "cleaned_gate_count", counting)
    for mix in ((1, 0), (1, 1), (0, 1)):
        replica = dead_gate_replica(random.Random(1))
        net = replica.network
        calls = 0
        for _ in range(3):
            sweep(replica, math.inf, move_weights=mix)
            assert (replica.cache.error, replica.score) == (0, 1 - 4)
        # the dead gates were rewired, yet nothing was counted
        assert net.codes[1:] != DEAD_GATE_ROWS[1:]
        assert calls == 0, mix
        assert evaluate_full(net, majority_truth_table(3)).score == \
            replica.score


def test_sweep_snapshots_its_exact_start_state():
    # the sweep rewires the dead gates, but it snapshots the network it
    # started from, which already cleans up to one gate
    replica = dead_gate_replica(random.Random(1))
    start = [row[:] for row in replica.network.codes]
    stats = sweep(replica, math.inf, 2)
    assert replica.network.codes != start
    assert stats.best_exact == (1, start, replica.network.output_code)


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
            edits = MAKERS[proposals % len(MAKERS)](net, rng)
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
        edits = MAKERS[trial % len(MAKERS)](net, rng)
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
