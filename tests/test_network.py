import random

import pytest

from ptsynth.formats import parse_network
from ptsynth.network import (
    LogicNetwork,
    NetworkConstraints,
    cleaned_gate_count,
    cleanup,
    combined_score,
    evaluate_full,
    input_column,
    is_valid,
    operand_text,
    random_network,
    recompute_from,
)
from ptsynth.truthtable import TruthTable, majority_truth_table

from conftest import const, g, random_problem, x


def single_gate_net(row, n=3, max_nodes=1, inverters=True):
    cons = NetworkConstraints(max_nodes, inverters_allowed=inverters)
    return LogicNetwork(n, cons, [list(row)])


def test_inverted_constants_read_as_the_other_constant():
    # codes 1 and 3 are the inverted constants 0 and 1
    assert [operand_text(code, 3) for code in range(4)] == ["0", "1", "1", "0"]
    net = parse_network("inputs 3\ng0 = MAJ(~0, ~1, x0)\noutput g0\n")
    assert net.codes == [[const(1), const(0), x(0)]]
    assert operand_text(x(3, True), 4) == "~x3"
    assert operand_text(g(2, 4, True), 4) == "~g2"


def test_operand_text_reads_back_as_the_same_code():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(1, 7)
        cons = NetworkConstraints(rng.randrange(1, 10),
                                  inverters_allowed=rng.random() < 0.5)
        net = random_network(n, cons, rng)
        lines = [f"inputs {n}"]
        lines += [f"g{k} = MAJ({', '.join(operand_text(c, n) for c in row)})"
                  for k, row in enumerate(net.codes)]
        for code in {c for row in net.codes for c in row} | {net.output_code}:
            back = parse_network("\n".join(lines) + f"\noutput {operand_text(code, n)}")
            assert back.codes == net.codes
            assert back.output_code == code


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
    net = LogicNetwork(9, cons, [[const(0), const(1), x(0)]], const(0))
    cache = evaluate_full(net, majority_truth_table(9))
    assert cache.error == 256


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
    net = LogicNetwork(3, NetworkConstraints(2),
                       [[x(0), x(1), x(2)], [x(0), x(1), g(0, 3)]])
    cache = evaluate_full(net, majority_truth_table(3))
    net.codes[1][2] = const(0)
    undo = []
    recompute_from(net, cache, 1, undo)
    assert len(undo) == 1


def test_recompute_dead_gate_leaves_error():
    # gate 0 feeds nothing; output is gate 1
    net = LogicNetwork(3, NetworkConstraints(2),
                       [[x(0), x(1), x(2)], [x(0), x(1), const(0)]])
    cache = evaluate_full(net, majority_truth_table(3))
    before = cache.error
    net.codes[0][0] = const(1)
    recompute_from(net, cache, 0)
    assert cache.error == before


def test_recompute_rejects_bad_index():
    net = single_gate_net([x(0), x(1), x(2)])
    cache = evaluate_full(net, majority_truth_table(3))
    with pytest.raises(ValueError):
        recompute_from(net, cache, 5)


def test_cleanup_removes_dead_gate():
    net = LogicNetwork(3, NetworkConstraints(2),
                       [[x(0), x(1), x(2)], [x(0), x(1), const(0)]], g(1, 3))
    simplified, q = cleanup(net)
    assert q == 1
    assert simplified.num_gates == 1


def test_cleanup_collapses_to_wire():
    net = single_gate_net([x(0), const(0), const(1)])
    simplified, q = cleanup(net)
    assert q == 0
    assert simplified.output_code == x(0)
    tt = majority_truth_table(3)
    before = evaluate_full(net, tt)
    after = evaluate_full(simplified, tt)
    assert before.output_column(net) == after.output_column(simplified)


def test_cleanup_merges_duplicate_gates():
    codes = [[x(0), x(1), x(2)],
             [x(2), x(0), x(1)],              # same multiset as gate 0
             [g(0, 3), g(1, 3), x(0)]]        # becomes trivial after merge
    net = LogicNetwork(3, NetworkConstraints(3), codes)
    simplified, q = cleanup(net)
    assert q == 1
    assert simplified.output_code == g(0, 3)


def test_cleanup_raises_when_it_reaches_a_removed_gate():
    # g0 reads the later gate g1, which reduces to x1; a network in gate
    # order never does this, and cleanup must not count g1 or emit it
    net = LogicNetwork(3, NetworkConstraints(2),
                       [[g(1, 3), x(0), x(1)], [x(0), x(0, True), x(1)]], g(0, 3))
    with pytest.raises(RuntimeError, match="gate g0 references a non-earlier source g1"):
        cleanup(net)
    with pytest.raises(RuntimeError, match="gate g0 references a non-earlier source g1"):
        cleaned_gate_count(net)


def test_cleanup_raises_when_a_kept_gate_reads_a_later_one():
    # g0 reads g1, which cleanup keeps; the output still reaches only kept
    # gates, so only the forward-read check can see the fault
    net = LogicNetwork(3, NetworkConstraints(2),
                       [[g(1, 3), x(0), x(1)], [x(0), x(1), x(2)]], g(0, 3))
    with pytest.raises(RuntimeError, match="gate g0 references a non-earlier source g1"):
        cleanup(net)
    with pytest.raises(RuntimeError, match="gate g0 references a non-earlier source g1"):
        cleaned_gate_count(net)


def test_cleanup_keeps_apart_gates_with_large_operand_codes():
    # A chain g0..g32814 of MAJ(x0, x1, previous) and a last gate
    # MAJ(x0, ~x1, g45): the sorted operand codes (4, 6, 65636) of g32814
    # and (4, 7, 100) of the last gate share a key if each code gets only
    # 16 bits, although the gates differ on the vector x0=1, x1=x2=0.
    n, p = 3, 32816
    codes = [[x(0), x(1), x(2)]]
    codes += [[x(0), x(1), g(i - 1, n)] for i in range(1, p - 1)]
    codes.append([x(0), x(1, True), g(45, n)])
    net = LogicNetwork(n, NetworkConstraints(p), codes)
    simplified, q = cleanup(net)
    assert q == 47  # the last gate and g0..g45
    tt = majority_truth_table(n)
    assert evaluate_full(simplified, tt).output_column(simplified) \
        == evaluate_full(net, tt).output_column(net)


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
    forward = LogicNetwork(3, cons, [[x(0), x(1), g(1, 3)], [x(0), x(1), x(2)]])
    ok, why = is_valid(forward)
    assert not ok and "g0" in why

    inverted = LogicNetwork(3, cons, [[x(0, True), x(1), x(2)]])
    ok, why = is_valid(inverted)
    assert not ok and "inverted" in why

    duplicated = LogicNetwork(3, cons, [[x(0), x(0), x(1)]])
    ok, why = is_valid(duplicated)
    assert not ok and "repeats" in why

    leafy_cons = NetworkConstraints(2, inverters_allowed=True, leafy=True)
    no_leaf = LogicNetwork(3, leafy_cons, [[x(0), x(1), x(2)],
                                           [g(0, 3), const(0), const(1)]])
    ok, why = is_valid(no_leaf)
    assert not ok and "leafy" in why

    # code 1, the inverted constant 0, would be written as constant 1
    inverted_out = LogicNetwork(3, NetworkConstraints(1), [[4, 6, 8]], 1)
    ok, why = is_valid(inverted_out)
    assert not ok and "inverted constant" in why

    # a negative code names no source; its text would not parse back
    negative_operand = LogicNetwork(3, NetworkConstraints(2), [[-2, 4, 6]])
    ok, why = is_valid(negative_operand)
    assert not ok and "negative" in why and "g0" in why
    negative_out = LogicNetwork(3, NetworkConstraints(2), [[4, 6, 8]], -2)
    ok, why = is_valid(negative_out)
    assert not ok and "negative" in why and "output" in why


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
