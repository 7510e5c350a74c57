import random

import pytest

from ptsynth.network import (
    CONST,
    GATE,
    INPUT,
    Gate,
    Literal,
    LogicNetwork,
    NetworkConstraints,
    cleaned_gate_count,
    cleanup,
    combined_score,
    encode_literal,
    decode_literal,
    evaluate_full,
    input_column,
    is_valid,
    random_network,
    recompute_from,
    weighted_energy,
)
from ptsynth.truthtable import TruthTable, majority_truth_table

from conftest import random_problem


def x(i, inv=False):
    return Literal(INPUT, i, inv)


def g(i, inv=False):
    return Literal(GATE, i, inv)


def const(v):
    return Literal(CONST, v)


def single_gate_net(lits, n=3, max_nodes=1, inverters=True):
    cons = NetworkConstraints(max_nodes, inverters_allowed=inverters)
    return LogicNetwork.from_gates(n, [Gate(tuple(lits))], cons)


def test_literal_normalizes_inverted_constants():
    assert Literal(CONST, 0, inverted=True) == const(1)
    assert Literal(CONST, 1, inverted=True) == const(0)
    assert str(Literal(INPUT, 3, True)) == "~x3"
    assert str(const(1)) == "1"


def test_literal_rejects_bad_fields():
    with pytest.raises(ValueError):
        Literal("wire", 0)
    with pytest.raises(ValueError):
        Literal(CONST, 2)
    with pytest.raises(ValueError):
        Literal(INPUT, -1)


def test_literal_code_roundtrip():
    rng = random.Random(0)
    n = 6
    for _ in range(200):
        kind = rng.choice([CONST, INPUT, GATE])
        if kind == CONST:
            index = rng.randrange(2)
        elif kind == INPUT:
            index = rng.randrange(n)
        else:
            index = rng.randrange(10)
        lit = Literal(kind, index, rng.random() < 0.5)
        assert decode_literal(encode_literal(lit, n), n) == lit


def test_input_column_patterns():
    # bit v of column i must equal bit i of v
    for n in (1, 3, 6):
        for i in range(n):
            col = input_column(i, n)
            for v in range(1 << n):
                assert (col >> v) & 1 == (v >> i) & 1


def test_evaluate_single_maj_gate_is_exact():
    net = single_gate_net([x(0), x(1), x(2)])
    cache = evaluate_full(net, majority_truth_table(3))
    assert cache.error == 0


def test_evaluate_and_gate_error_two():
    # AND(x0, x1) disagrees with MAJ-3 exactly where x2 tips the vote
    net = single_gate_net([x(0), x(1), const(0)])
    tt = majority_truth_table(3)
    cache = evaluate_full(net, tt)
    expected = 0
    for v in range(8):
        a, b = v & 1, (v >> 1) & 1
        if (a & b) != tt.value(v):
            expected += 1
    assert expected == 2
    assert cache.error == 2
    assert combined_score(net, cache) == 2


def test_evaluate_rejects_arity_mismatch():
    net = single_gate_net([x(0), x(1), x(2)])
    with pytest.raises(ValueError):
        evaluate_full(net, majority_truth_table(5))


def test_constant_zero_network_vs_maj9():
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork.from_gates(
        9, [Gate((const(0), const(1), x(0)))], cons)
    net.output_code = encode_literal(const(0), 9)
    cache = evaluate_full(net, majority_truth_table(9))
    assert cache.error == 256


def test_weighted_energy_examples():
    net = single_gate_net([x(0), x(1), const(0)])
    tt = majority_truth_table(3)
    cache = evaluate_full(net, tt)
    assert weighted_energy(cache, [1.0] * 8) == cache.error
    assert weighted_energy(cache, [0.0] * 8) == 0.0
    # mismatches sit at inputs 5 and 6
    assert weighted_energy(cache, [1, 1, 1, 1, 1, 3, 1, 1]) == 4.0
    with pytest.raises(ValueError):
        weighted_energy(cache, [1.0] * 4)


def test_weighted_energy_with_dont_cares():
    # AND(x0, x1) differs from MAJ-3 only on two-ones inputs; marking those
    # as don't-cares certifies it
    net = single_gate_net([x(0), x(1), const(0)])
    cache = evaluate_full(net, majority_truth_table(3))
    weights = [0.0 if v.bit_count() == 2 else 1.0 for v in range(8)]
    assert weighted_energy(cache, weights) == 0.0


def test_random_network_structure():
    rng = random.Random(1)
    cons = NetworkConstraints(17, inverters_allowed=False)
    net = random_network(9, cons, rng)
    assert net.num_gates == 17
    ok, why = is_valid(net)
    assert ok, why


def test_random_network_respects_flags():
    rng = random.Random(2)
    for inverters in (False, True):
        for leafy in (False, True):
            cons = NetworkConstraints(6, inverters, leafy)
            for _ in range(50):
                net = random_network(4, cons, rng)
                ok, why = is_valid(net)
                assert ok, why


def test_random_network_topological_sampling():
    rng = random.Random(3)
    cons = NetworkConstraints(2, inverters_allowed=False)
    gate1_refs_gate0 = 0
    for _ in range(10_000):
        net = random_network(3, cons, rng)
        base = 2 + 3
        assert all(c >> 1 < base for c in net.codes[0])
        if any(c >> 1 == base for c in net.codes[1]):
            gate1_refs_gate0 += 1
    assert gate1_refs_gate0 > 0


def test_recompute_matches_full_eval():
    rng = random.Random(4)
    for _ in range(300):
        net, tt = random_problem(rng)
        cache = evaluate_full(net, tt)
        gate = rng.randrange(net.num_gates)
        slot = rng.randrange(3)
        from ptsynth.moves import propose_reassign_one, replacement_pool
        move = propose_reassign_one(net, rng, gate, slot,
                                    replacement_pool(net, gate, slot))
        if move is None:
            continue
        net.codes[gate][slot] = move[0][2]
        recompute_from(net, cache, gate)
        fresh = evaluate_full(net, tt)
        assert fresh.cols == cache.cols
        assert fresh.error == cache.error


def test_recompute_last_gate_touches_one_column():
    net = LogicNetwork.from_gates(
        3, [Gate((x(0), x(1), x(2))), Gate((x(0), x(1), g(0)))],
        NetworkConstraints(2))
    cache = evaluate_full(net, majority_truth_table(3))
    net.codes[1][2] = encode_literal(const(0), 3)
    undo = []
    recompute_from(net, cache, 1, undo)
    assert len(undo) == 1


def test_recompute_dead_gate_leaves_error():
    # gate 0 feeds nothing; output is gate 1
    net = LogicNetwork.from_gates(
        3, [Gate((x(0), x(1), x(2))), Gate((x(0), x(1), const(0)))],
        NetworkConstraints(2))
    cache = evaluate_full(net, majority_truth_table(3))
    before = cache.error
    net.codes[0][0] = encode_literal(const(1), 3)
    recompute_from(net, cache, 0)
    assert cache.error == before


def test_recompute_rejects_bad_index():
    net = single_gate_net([x(0), x(1), x(2)])
    cache = evaluate_full(net, majority_truth_table(3))
    with pytest.raises(ValueError):
        recompute_from(net, cache, 5)


def test_cleanup_removes_dead_gate():
    net = LogicNetwork.from_gates(
        3, [Gate((x(0), x(1), x(2))), Gate((x(0), x(1), const(0)))],
        NetworkConstraints(2),
        output=g(1))
    simplified, q = cleanup(net)
    assert q == 1
    assert simplified.num_gates == 1


def test_cleanup_collapses_to_wire():
    net = single_gate_net([x(0), const(0), const(1)])
    simplified, q = cleanup(net)
    assert q == 0
    assert simplified.output == x(0)
    tt = majority_truth_table(3)
    before = evaluate_full(net, tt)
    after = evaluate_full(simplified, tt)
    assert before.output_column(net) == after.output_column(simplified)


def test_cleanup_merges_duplicate_gates():
    gates = [Gate((x(0), x(1), x(2))),
             Gate((x(2), x(0), x(1))),        # same multiset as gate 0
             Gate((g(0), g(1), x(0)))]        # becomes trivial after merge
    net = LogicNetwork.from_gates(3, gates, NetworkConstraints(3))
    simplified, q = cleanup(net)
    assert q == 1
    assert simplified.output == g(0)


def test_cleanup_raises_when_it_reaches_a_removed_gate():
    # g0 reads the later gate g1, which reduces to x1; a network in gate
    # order never does this, and cleanup must not count g1 or emit it
    g0 = [encode_literal(lit, 3) for lit in (g(1), x(0), x(1))]
    g1 = [encode_literal(lit, 3) for lit in (x(0), x(0, True), x(1))]
    net = LogicNetwork(3, NetworkConstraints(2), [g0, g1],
                       encode_literal(g(0), 3))
    with pytest.raises(RuntimeError, match="removed gate g1"):
        cleanup(net)
    with pytest.raises(RuntimeError, match="removed gate g1"):
        cleaned_gate_count(net)


def test_cleanup_keeps_apart_gates_with_large_operand_codes():
    # A chain g0..g32814 of MAJ(x0, x1, previous) and a last gate
    # MAJ(x0, ~x1, g45): the sorted operand codes (4, 6, 65636) of g32814
    # and (4, 7, 100) of the last gate share a key if each code gets only
    # 16 bits, although the gates differ on the vector x0=1, x1=x2=0.
    n, p = 3, 32816
    x0, x1, nx1 = (encode_literal(lit, n) for lit in (x(0), x(1), x(1, True)))
    codes = [[x0, x1, encode_literal(x(2), n)]]
    codes += [[x0, x1, encode_literal(g(i - 1), n)] for i in range(1, p - 1)]
    codes.append([x0, nx1, encode_literal(g(45), n)])
    net = LogicNetwork(n, NetworkConstraints(p), codes)
    simplified, q = cleanup(net)
    assert q == 47  # the last gate and g0..g45
    tt = majority_truth_table(n)
    assert evaluate_full(simplified, tt).out_col == evaluate_full(net, tt).out_col


def test_cleanup_fuzz_preserves_function():
    rng = random.Random(6)
    for _ in range(300):
        net, tt = random_problem(rng)
        cache = evaluate_full(net, tt)
        simplified, q = cleanup(net)
        assert q <= net.num_gates
        ok, why = is_valid(simplified)
        assert ok, why
        after = evaluate_full(simplified, tt)
        assert after.output_column(simplified) == cache.output_column(net)
        again, q2 = cleanup(simplified)
        assert q2 == q and again == simplified
        assert cleaned_gate_count(net) == q


def test_combined_score_regimes():
    inexact = single_gate_net([x(0), x(1), const(0)])
    cache = evaluate_full(inexact, majority_truth_table(3))
    assert combined_score(inexact, cache) == 2

    exact = single_gate_net([x(0), x(1), x(2)])
    cache = evaluate_full(exact, majority_truth_table(3))
    assert combined_score(exact, cache) == 0  # q == p == 1


def test_combined_score_counts_removable_gates(fixtures_dir):
    from ptsynth.formats import parse_network
    net = parse_network((fixtures_dir / "maj9_noinv.mig").read_text())
    # pad to the published node budget with unreferenced gates
    padded = LogicNetwork(9, NetworkConstraints(17, inverters_allowed=False),
                          [row[:] for row in net.codes], net.output_code)
    rng = random.Random(9)
    from ptsynth.network import random_gate_codes
    while padded.num_gates < 17:
        padded.codes.append(
            random_gate_codes(9, padded.num_gates, padded.constraints, rng))
    ok, why = is_valid(padded)
    assert ok, why
    cache = evaluate_full(padded, majority_truth_table(9))
    assert cache.error == 0
    assert combined_score(padded, cache) == 13 - 17


def test_is_valid_catches_violations():
    cons = NetworkConstraints(2, inverters_allowed=False)
    forward = LogicNetwork(3, cons, [[encode_literal(x(0), 3),
                                      encode_literal(x(1), 3),
                                      encode_literal(g(1), 3)],
                                     [encode_literal(x(0), 3),
                                      encode_literal(x(1), 3),
                                      encode_literal(x(2), 3)]])
    ok, why = is_valid(forward)
    assert not ok and "g0" in why

    inverted = LogicNetwork(3, cons, [[encode_literal(x(0, True), 3),
                                       encode_literal(x(1), 3),
                                       encode_literal(x(2), 3)]])
    ok, why = is_valid(inverted)
    assert not ok and "inverted" in why

    duplicated = LogicNetwork(3, cons, [[encode_literal(x(0), 3),
                                         encode_literal(x(0), 3),
                                         encode_literal(x(1), 3)]])
    ok, why = is_valid(duplicated)
    assert not ok and "repeats" in why

    leafy_cons = NetworkConstraints(2, inverters_allowed=True, leafy=True)
    no_leaf = LogicNetwork(3, leafy_cons,
                           [[encode_literal(x(0), 3), encode_literal(x(1), 3),
                             encode_literal(x(2), 3)],
                            [encode_literal(g(0), 3), encode_literal(const(0), 3),
                             encode_literal(const(1), 3)]])
    ok, why = is_valid(no_leaf)
    assert not ok and "leafy" in why


def test_fixture_networks_pass_validity(fixtures_dir):
    from ptsynth.formats import parse_network
    from conftest import FIXTURE_SPECS
    for name, (n, gates, inverters, leafy) in FIXTURE_SPECS.items():
        net = parse_network((fixtures_dir / name).read_text())
        assert net.n == n and net.num_gates == gates
        assert net.constraints.inverters_allowed == inverters
        assert net.constraints.leafy == leafy
        ok, why = is_valid(net)
        assert ok, (name, why)
