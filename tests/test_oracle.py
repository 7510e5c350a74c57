import random

import pytest

from ptsynth import oracle
from ptsynth.formats import parse_network
from ptsynth.network import LogicNetwork, NetworkConstraints, evaluate_full
from ptsynth.truthtable import majority_truth_table

from conftest import const, random_problem, x


def test_eval_single_plain_gate():
    net = LogicNetwork(3, NetworkConstraints(1), [[x(0), x(1), x(2)]])
    assert oracle.eval_single(net, [1, 1, 0]) == 1
    assert oracle.eval_single(net, [1, 0, 0]) == 0


def test_eval_single_inverted_operand():
    # MAJ(~x0, 1, 0) reduces to ~x0
    net = LogicNetwork(3, NetworkConstraints(1),
                       [[x(0, True), const(1), const(0)]])
    assert oracle.eval_single(net, [1, 0, 0]) == 0
    assert oracle.eval_single(net, [0, 1, 1]) == 1


def test_eval_single_checks_arity():
    net = LogicNetwork(3, NetworkConstraints(1), [[x(0), x(1), x(2)]])
    with pytest.raises(ValueError):
        oracle.eval_single(net, [1, 0])


def test_fixture_all_ones_vector(fixtures_dir):
    net = parse_network((fixtures_dir / "maj11_inv.mig").read_text())
    assert oracle.eval_single(net, [1] * 11) == 1
    assert oracle.eval_single(net, [0] * 11) == 0


def test_fixture_exhaustive_error_is_zero(fixtures_dir):
    net = parse_network((fixtures_dir / "maj9_inv.mig").read_text())
    assert oracle.exhaustive_error(net, majority_truth_table(9)) == 0


def test_constant_network_vs_maj9():
    net = LogicNetwork(9, NetworkConstraints(1), [[const(0), const(1), x(0)]],
                       const(0))
    assert oracle.exhaustive_error(net, majority_truth_table(9)) == 256


def test_oracle_agrees_with_bit_parallel_cache():
    rng = random.Random(17)
    for _ in range(150):
        net, tt = random_problem(rng, max_n=7, max_p=12)
        cache = evaluate_full(net, tt)
        assert oracle.exhaustive_error(net, tt) == cache.error
        column = cache.output_column(net)
        for v, value in enumerate(oracle.eval_column(net)):
            assert value == (column >> v) & 1
