"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The synthesis criteria
launch real searches; the whole module takes on the order of 15 minutes on
two cores.  Seed batches run in worker processes, two at a time, with every
individual search single-threaded.
"""

import contextlib
import io
import math
import os
import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from ptsynth import cli, oracle
from ptsynth.engine import (
    accept_uphill,
    calibrate_ladder,
    derived_rng,
    probe_swap_rates,
)
from ptsynth.formats import parse_network
from ptsynth.network import (
    NetworkConstraints,
    TruthTable,
    cleanup,
    evaluate_full,
    random_network,
    recompute_from,
)
from ptsynth.truthtable import majority_truth_table

from conftest import FIXTURE_SPECS, random_reassign_one

SEEDS = list(range(1, 11))

# trace texts from the synthesis criteria, checked again by criterion 10
COLLECTED_TRACES: dict[str, str] = {}


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def synth_seed(job):
    """Run one CLI synthesis in this (worker) process; returns the artifacts."""
    label, argv = job
    workdir = tempfile.mkdtemp(prefix="ptsynth-accept-")
    out = os.path.join(workdir, "net.mig")
    trace = os.path.join(workdir, "trace.csv")
    full_argv = argv + ["--threads", "1", "--out", out, "--trace", trace]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(full_argv)
    wall = time.perf_counter() - start
    net_text = None
    if os.path.exists(out):
        with open(out) as handle:
            net_text = handle.read()
    trace_text = None
    if os.path.exists(trace):
        with open(trace) as handle:
            trace_text = handle.read()
    return label, code, wall, net_text, trace_text


def run_seed_batch(jobs):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(synth_seed, jobs))


def test_criterion_1_fixture_verification(fixtures_dir):
    start = time.perf_counter()
    for name, (n, gates, inverters, leafy) in FIXTURE_SPECS.items():
        net = parse_network((fixtures_dir / name).read_text())
        assert net.constraints.inverters_allowed == inverters, name
        assert net.constraints.leafy == leafy, name
        from ptsynth.network import is_valid
        ok, why = is_valid(net)
        assert ok, (name, why)
        assert net.num_gates == gates, name
        cache = evaluate_full(net, majority_truth_table(n))
        assert cache.error == 0, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture verification took {elapsed:.2f}s"
    report(1, f"8 fixtures exact, counts (13,20,28)/(12,16,24)/13/14, "
              f"{elapsed * 1000:.0f} ms")


@pytest.mark.slow
def test_criterion_2_small_n_synthesis():
    # maj:3 at p=1 must land within a second
    _, maj3_code, maj3_wall, maj3_net, maj3_trace = synth_seed(
        ("maj3", ["synth", "--target", "maj:3", "--gates", "maj",
                  "--max-nodes", "1", "--seed", "1"]))
    assert maj3_code == 0 and maj3_wall < 1.0, (maj3_code, maj3_wall)
    _, q = cleanup(parse_network(maj3_net))
    assert q == 1
    COLLECTED_TRACES["maj3"] = maj3_trace

    budget = 600.0
    results = {}
    for target, p, goal_q in (("maj:5", 8, 4), ("maj:7", 10, 7)):
        jobs = [(f"{target}-s{seed}",
                 ["synth", "--target", target, "--gates", "maj",
                  "--max-nodes", str(p), "--seed", str(seed),
                  "--time-limit", str(budget)])
                for seed in SEEDS]
        outcomes = run_seed_batch(jobs)
        hits = 0
        for label, code, wall, net_text, trace_text in outcomes:
            if trace_text:
                COLLECTED_TRACES[label] = trace_text
            if code != 0 or wall > budget:
                continue
            net = parse_network(net_text)
            cache = evaluate_full(net, majority_truth_table(int(target[4:])))
            _, q = cleanup(net)
            if cache.error == 0 and q == goal_q:
                hits += 1
        results[target] = hits
        assert hits >= 8, f"{target}: only {hits}/10 seeds reached q={goal_q}"
    report(2, f"maj:3 in {maj3_wall:.2f}s; maj:5 {results['maj:5']}/10, "
              f"maj:7 {results['maj:7']}/10 seeds at optimum")


@pytest.mark.slow
def test_criterion_3_maj9_feasibility():
    budget = 1800.0
    jobs = [(f"maj9-s{seed}",
             ["synth", "--target", "maj:9", "--gates", "maj",
              "--max-nodes", "17", "--seed", str(seed),
              "--score-goal", "0", "--time-limit", str(budget)])
            for seed in SEEDS]
    outcomes = run_seed_batch(jobs)
    hits = 0
    walls = []
    for label, code, wall, net_text, trace_text in outcomes:
        if trace_text:
            COLLECTED_TRACES[label] = trace_text
        if code != 0 or wall > budget:
            continue
        net = parse_network(net_text)
        cache = evaluate_full(net, majority_truth_table(9))
        _, q = cleanup(net)
        if cache.error == 0 and q <= 17:
            hits += 1
            walls.append(wall)
    assert hits >= 7, f"only {hits}/10 seeds found an exact MAJ-9 network"
    report(3, f"{hits}/10 seeds exact, median wall "
              f"{sorted(walls)[len(walls) // 2]:.0f}s")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(101)
    combos = [(inv, leafy) for inv in (False, True) for leafy in (False, True)]
    for trial in range(1000):
        inverters, leafy = combos[trial % 4]
        n = rng.randrange(1, 9)
        p = rng.randrange(1, 21)
        constraints = NetworkConstraints(p, inverters, leafy)
        net = random_network(n, constraints, rng)
        table = TruthTable(n, rng.getrandbits(1 << n))
        cache = evaluate_full(net, table)
        assert oracle.exhaustive_error(net, table) == cache.error, trial
        column = cache.output_column(net)
        oracle_column = 0
        for v, value in enumerate(oracle.eval_column(net)):
            oracle_column |= value << v
        assert oracle_column == column, trial
    report(4, "1000 random networks, zero mismatches")


def test_criterion_5_incremental_eval():
    rng = random.Random(102)
    edits = 0
    while edits < 1000:
        n = rng.randrange(1, 9)
        p = rng.randrange(1, 21)
        constraints = NetworkConstraints(p, rng.random() < 0.5,
                                         rng.random() < 0.5)
        net = random_network(n, constraints, rng)
        table = TruthTable(n, rng.getrandbits(1 << n))
        cache = evaluate_full(net, table)
        move = random_reassign_one(net, rng)
        if move is None:
            continue
        edits += 1
        (gate, slot, code), = move
        net.codes[gate][slot] = code
        recompute_from(net, cache, gate)
        fresh = evaluate_full(net, table)
        assert fresh.cols == cache.cols, edits
        assert fresh.error == cache.error, edits
    report(5, "1000 single-gate edits bit-identical to full re-evaluation")


def test_criterion_6_cleanup_soundness():
    rng = random.Random(103)
    for trial in range(1000):
        n = rng.randrange(1, 9)
        p = rng.randrange(1, 21)
        constraints = NetworkConstraints(p, rng.random() < 0.5,
                                         rng.random() < 0.5)
        net = random_network(n, constraints, rng)
        table = TruthTable(n, rng.getrandbits(1 << n))
        before = evaluate_full(net, table)
        simplified, q = cleanup(net)
        assert q <= net.num_gates, trial
        after = evaluate_full(simplified, table)
        assert after.output_column(simplified) == before.output_column(net), trial
        again, q2 = cleanup(simplified)
        assert q2 == q and again == simplified, trial
    report(6, "1000 networks: function preserved, idempotent, q never grows")


def test_criterion_7_metropolis_statistics():
    trials = 100_000
    worst = 0.0
    for delta in (1, 2, 3):
        rng = derived_rng(7000 + delta, "acceptance")
        hits = sum(accept_uphill(delta, 1.0, rng) for _ in range(trials))
        gap = abs(hits / trials - math.exp(-delta))
        worst = max(worst, gap)
        assert gap < 0.01, (delta, gap)
    report(7, f"acceptance within ±0.01 of exp(-dE) (worst gap {worst:.4f})")


@pytest.mark.slow
def test_criterion_8_ladder_quality():
    target = majority_truth_table(5)
    constraints = NetworkConstraints(8, inverters_allowed=False)
    ladder = calibrate_ladder(target, constraints, seed=1)
    assert 41 <= ladder.size <= 61, ladder.size
    assert all(b2 > b1 for b1, b2 in zip(ladder.betas, ladder.betas[1:]))
    rates = probe_swap_rates(target, constraints, ladder, seed=1,
                             repetitions=1000)
    assert min(rates) > 0.20, f"worst swap rate {min(rates):.3f}"
    report(8, f"M={ladder.size}, swap rates in "
              f"[{min(rates):.2f}, {max(rates):.2f}] over 1000 repetitions")


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    artifacts = {}
    for threads in (1, 8):
        out = tmp_path / f"net-{threads}.mig"
        trace = tmp_path / f"trace-{threads}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["synth", "--target", "maj:5", "--gates", "maj",
                             "--max-nodes", "8", "--seed", "1",
                             "--replicas", "12", "--max-reps", "250",
                             "--score-goal", "-8",
                             "--threads", str(threads),
                             "--out", str(out), "--trace", str(trace)])
        assert code in (0, 3)
        artifacts[threads] = (out.read_bytes() if out.exists() else None,
                              trace.read_bytes())
    assert artifacts[1] == artifacts[8], "thread count changed the artifacts"
    report(9, "1-thread and 8-thread runs byte-identical (network + trace)")


def test_criterion_10_trace_monotonicity():
    if not COLLECTED_TRACES:
        # standalone invocation: produce one real trace to check
        _, _, _, _, trace_text = synth_seed(
            ("solo", ["synth", "--target", "maj:5", "--gates", "maj",
                      "--max-nodes", "8", "--seed", "3"]))
        COLLECTED_TRACES["solo"] = trace_text
    checked = 0
    for label, text in COLLECTED_TRACES.items():
        # (repetition, best_q, best_score) of each row; comments are notes
        rows = [[int(field) for field in line.split(",")[:3]]
                for line in text.splitlines()[1:] if not line.startswith("#")]
        for (_, q0, score0), (_, q1, score1) in zip(rows, rows[1:]):
            assert q1 <= q0, label
            assert score1 < score0, label
        checked += 1
    report(10, f"{checked} traces non-increasing in q, strictly "
               f"decreasing in score")
