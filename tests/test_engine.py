import contextlib
import copy
import hashlib
import math
import multiprocessing
import os
import random
import signal
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ptsynth import engine, moves, network
from ptsynth.engine import (
    CalibrationError,
    Replica,
    StopConditions,
    SweepStats,
    TemperatureLadder,
    accept_uphill,
    anchor_beta,
    calibrate_ladder,
    collect_uphill_deltas,
    derived_rng,
    run,
    swap_phase,
    sweep,
)
from ptsynth.formats import emit_network, emit_trace
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
    random_network,
)
from ptsynth.truthtable import TruthTable, majority_truth_table
from conftest import x
from test_properties import MIXES, SETTINGS, networks, own_target


def make_replica(n, p, seed, inverters=False, target=None):
    cons = NetworkConstraints(p, inverters_allowed=inverters)
    rng = derived_rng(seed, "test")
    net = random_network(n, cons, rng)
    target = target if target is not None else majority_truth_table(n)
    return Replica(net, evaluate_full(net, target), rng)


def test_derived_rng_is_stable_and_independent():
    a = derived_rng(1, "replica", 0)
    b = derived_rng(1, "replica", 0)
    c = derived_rng(1, "replica", 1)
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]


def test_accept_uphill_zero_beta_is_free():
    rng = derived_rng(0, "beta0")
    assert all(accept_uphill(d, 0.0, rng) for d in (1, 5, 1000) for _ in range(100))


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_accept_uphill_matches_formula(delta):
    rng = derived_rng(delta, "accept")
    trials = 20_000
    hits = sum(accept_uphill(delta, 1.0, rng) for _ in range(trials))
    assert abs(hits / trials - math.exp(-delta)) < 0.02


def test_sweep_at_infinite_beta_never_rises():
    replica = make_replica(5, 6, seed=1)
    target = majority_truth_table(5)
    # at infinite beta only non-positive deltas can stick
    before = replica.score
    for _ in range(6):
        sweep(replica, math.inf)
        assert replica.score <= before
        before = replica.score
        fresh = evaluate_full(replica.network, target)
        assert (fresh.cols, fresh.error, fresh.score) == \
            (replica.cache.cols, replica.cache.error, replica.cache.score)


def test_sweep_step_count():
    for p, expected in ((13, 195), (1, 15)):
        replica = make_replica(5, p, seed=2)
        stats = sweep(replica, 1.0)
        assert stats.steps == expected


def test_sweep_at_frozen_minimum_accepts_nothing():
    # the exact single-gate MAJ-3 network is a strict local minimum
    cons = NetworkConstraints(1, inverters_allowed=False)
    net = LogicNetwork(3, cons, [[x(0), x(1), x(2)]])
    replica = Replica(net, evaluate_full(net, majority_truth_table(3)),
                      derived_rng(3, "frozen"))
    stats = sweep(replica, 1e9)
    assert stats.accepted == 0
    assert replica.score == 0


def test_sweep_collects_uphill_deltas():
    replica = make_replica(5, 6, seed=4)
    stats = sweep(replica, 0.5, collect_deltas=True)
    assert stats.uphill_deltas is not None
    assert all(d > 0 for d in stats.uphill_deltas)


def test_sweep_snapshots_exact_states():
    replica = make_replica(3, 2, seed=5)
    found = None
    for _ in range(50):
        stats = sweep(replica, 2.0, q_threshold=3)
        if stats.best_exact is not None:
            found = stats.best_exact
            break
        if replica.cache.error == 0:
            break
    assert found is not None or replica.cache.error == 0
    if found is not None:
        q, codes, out_code = found
        rebuilt = LogicNetwork(3, replica.network.constraints,
                               [row[:] for row in codes], out_code)
        cache = evaluate_full(rebuilt, majority_truth_table(3))
        assert cache.error == 0
        from ptsynth.network import cleaned_gate_count
        assert cleaned_gate_count(rebuilt) == q


def move_path_sweep(replica, beta, q_threshold, move_weights):
    """The sweep written through the move path: draw the move kind, propose,
    apply, then accept or revert, as every mix ran before the sweep scored
    its attempts itself."""
    net, cache, rng = replica.network, replica.cache, replica.rng
    budget = net.constraints.max_nodes
    w1, w2 = move_weights
    pools = source_pools(net)
    steps = proposed = accepted = 0
    deltas, best = [], None
    q = cache.score + budget
    if cache.score <= 0 and q < q_threshold:
        best = (q, [row[:] for row in net.codes], net.output_code)
    for g in range(net.num_gates):
        for s in range(3):
            for _ in range(5):
                steps += 1
                r = rng.random() * (w1 + w2) if w2 else 0
                if r < w1:
                    edits = propose_reassign_one(net, rng, g, s,
                                                 replacement_pool(net, g, s))
                else:
                    edits = propose_swap_between_gates(net, rng, g, s, pools)
                if edits is None:
                    continue
                proposed += 1
                delta, undo = apply_proposal(net, cache, edits)
                if delta > 0:
                    deltas.append(delta)
                    if not accept_uphill(delta, beta, rng):
                        revert_proposal(net, cache, undo)
                        continue
                accepted += 1
                q = cache.score + budget
                if cache.score <= 0 and q < q_threshold \
                        and (best is None or q < best[0]):
                    best = (q, [row[:] for row in net.codes], net.output_code)
    return SweepStats(steps, proposed, accepted, cache.score, deltas, best)


# the ids keep the names the cases had while the mix also weighed a third
# move, reassign-all: "mix111" is the case that weighs every move
SWEEP_MIX_IDS = {(1, 0): "mix100", (1, 1): "mix111", (0, 1): "mix010",
                 (2, 1): "mix210", (3, 0): "mix300"}


@pytest.mark.parametrize("mix,beta", [
    pytest.param(mix, beta, id=SWEEP_MIX_IDS[mix]
                 + ("" if beta == 1.0 else f"-beta{beta:g}"))
    for beta in (1.0, 0.0, 8.0)
    for mix in SWEEP_MIX_IDS])
@pytest.mark.parametrize("n,p,inverters,leafy,exact_start", [
    # gate 0's pools hold under two codes, but for one slot with inverters
    (1, 3, False, False, False),
    (1, 3, True, False, True),
    (3, 4, False, False, False),
    (5, 6, True, False, False),
    (5, 8, False, False, True),
    (5, 8, True, True, True),
    (7, 10, True, False, False),
    (7, 10, False, True, True),
    (7, 10, True, True, False),
])
def test_sweep_matches_the_move_path(n, p, inverters, leafy, exact_start,
                                     mix, beta, monkeypatch):
    cons = NetworkConstraints(p, inverters_allowed=inverters, leafy=leafy)
    rng = derived_rng(n * 100 + p, "differential")
    net = random_network(n, cons, rng)
    target = TruthTable(n, evaluate_full(net, majority_truth_table(n))
                        .output_column(net)) \
        if exact_start else majority_truth_table(n)
    ours = Replica(net.copy(), evaluate_full(net, target), rng)
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    ref = Replica(net.copy(), evaluate_full(net, target), ref_rng)
    threshold = p + 1
    expected = [move_path_sweep(ref, beta, threshold, mix) for _ in range(4)]
    if exact_start and beta >= 1:
        # at beta 0 the walk may leave the exact networks before any snapshot
        assert any(st.best_exact is not None for st in expected)
    ref_states = ([row[:] for row in ref.network.codes], ref_rng.getstate())

    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(moves, "apply_proposal",
                        counting("apply", moves.apply_proposal))
    monkeypatch.setattr(moves, "revert_proposal",
                        counting("revert", moves.revert_proposal))
    monkeypatch.setattr(network, "recompute_from",
                        counting("recompute", network.recompute_from))
    monkeypatch.setattr(moves, "recompute_from",
                        counting("recompute", moves.recompute_from))
    got = [sweep(ours, beta, threshold, collect_deltas=True, move_weights=mix)
           for _ in range(4)]
    assert calls == Counter()
    assert got == expected
    assert ([row[:] for row in ours.network.codes], rng.getstate()) == ref_states
    fresh = evaluate_full(ours.network, target)
    cache = ours.cache
    assert (cache.cols, cache.error, cache.score) == \
        (fresh.cols, fresh.error, fresh.score)


@SETTINGS
@given(networks(), st.booleans(),
       st.sampled_from(((1, 0), (1, 1), (0, 1), (2, 1))),
       st.sampled_from((0.0, 0.5, 2.0, 8.0)), st.integers(-3, 5))
def test_sweep_matches_the_move_path_on_any_network(drawn, exact_start, mix,
                                                    beta, k):
    # any output gate, inverted or not, and snapshot thresholds on both
    # sides of budget + 1
    net, rng = drawn
    target = own_target(net) if exact_start \
        else TruthTable(net.n, rng.getrandbits(1 << net.n))
    threshold = net.constraints.max_nodes + 1 + k
    ours = Replica(net.copy(), evaluate_full(net, target), rng)
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    ref = Replica(net.copy(), evaluate_full(net, target), ref_rng)
    expected = [move_path_sweep(ref, beta, threshold, mix) for _ in range(2)]
    got = [sweep(ours, beta, threshold, collect_deltas=True, move_weights=mix)
           for _ in range(2)]
    assert got == expected
    assert (ours.network.codes, rng.getstate()) == \
        (ref.network.codes, ref_rng.getstate())
    fresh = evaluate_full(ours.network, target)
    cache = ours.cache
    assert (cache.cols, cache.error, cache.score) == \
        (fresh.cols, fresh.error, fresh.score)


@pytest.mark.parametrize("mix", [(1, 0), (1, 1), (0, 1), (2, 1)])
@pytest.mark.parametrize("p,exact_start", [(3, False), (8, True)])
def test_sweep_takes_the_cone_once_and_no_cofactors_outside_it(
        mix, p, exact_start, monkeypatch):
    cones = 0
    cofactor_gates = []
    real_cone, real_cofactors = engine.output_cone, engine.output_cofactors

    def counting_cone(net):
        nonlocal cones
        cones += 1
        return real_cone(net)

    def checked_cofactors(net, cache, g, cone):
        assert network.output_cone(net) >> g & 1, f"gate {g} is outside"
        cofactor_gates.append(g)
        return real_cofactors(net, cache, g, cone)

    monkeypatch.setattr(engine, "output_cone", counting_cone)
    monkeypatch.setattr(engine, "output_cofactors", checked_cofactors)
    cons = NetworkConstraints(p, inverters_allowed=True)
    rng = derived_rng(p, "cone")
    net = random_network(5, cons, rng)
    # MAJ-5 needs more than 3 gates, so the p=3 replica never turns exact
    target = TruthTable(5, evaluate_full(net, majority_truth_table(5))
                        .output_column(net)) \
        if exact_start else majority_truth_table(5)
    replica = Replica(net, evaluate_full(net, target), rng)
    sweeps = 6
    for _ in range(sweeps):
        sweep(replica, 2.0, move_weights=mix)
    if not (exact_start and mix[1]):
        # an exact swap check may walk the swapped codes once more
        assert cones == sweeps
    assert cofactor_gates or mix == (0, 1)


class NoRandrange(random.Random):
    """A stream whose ``randrange`` and ``_randbelow`` must not be called,
    so a reassign-one draw and a swap's partner draw have to go through
    ``getrandbits``, which is inherited unchanged."""

    def randrange(self, *args, **kwargs):
        raise AssertionError("randrange called")

    def _randbelow(self, *args, **kwargs):
        raise AssertionError("_randbelow called")


@pytest.mark.parametrize("inverters,leafy", [(False, False), (True, False),
                                             (True, True)])
def test_reassign_one_sweep_draws_without_the_pool(inverters, leafy,
                                                   monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(moves, "replacement_pool", forbidden)
    monkeypatch.setattr(moves, "propose_reassign_one", forbidden)
    cons = NetworkConstraints(10, inverters_allowed=inverters, leafy=leafy)
    for mix in MIXES:
        net = random_network(7, cons, derived_rng(5, "pool-free"))
        replica = Replica(net, evaluate_full(net, majority_truth_table(7)),
                          NoRandrange(5))
        stats = sweep(replica, 1.0, move_weights=mix)
        assert stats.steps == 150
        # a swap that finds no legal partner is skipped unproposed
        assert 0 < stats.proposed <= 150
        assert mix != (1, 0) or stats.proposed == 150


@pytest.mark.parametrize("weights", [(0, 0), (-1, 0), (math.nan, 1),
                                     (1, math.inf), (1,), (1e308, 1e308),
                                     (1, 1, 1)])
def test_run_rejects_move_weights_the_cli_rejects(weights):
    with pytest.raises(ValueError, match="2 finite non-negative values"):
        run(majority_truth_table(5), NetworkConstraints(8, inverters_allowed=False),
            TemperatureLadder([0.5, 1.0]), StopConditions(max_repetitions=1),
            move_weights=weights)


def test_swap_phase_equal_energies_always_swap():
    ladder = TemperatureLadder([0.5, 1.5])
    order = [0, 1]
    swapped = swap_phase(order, ladder, 0, derived_rng(0, "swap"), [[0, 0]],
                         [7, 7])
    assert swapped == 1
    assert order == [1, 0]


def test_swap_phase_good_state_moves_cold():
    ladder = TemperatureLadder([0.5, 1.5])
    # lower energy sits at the hotter slot
    swapped = swap_phase([0, 1], ladder, 0, derived_rng(1, "swap"), [[0, 0]],
                         [3, 9])
    assert swapped == 1


def test_swap_phase_uphill_rate_matches_formula():
    # beta gap 1.0 against energy gap 3 gives acceptance exp(-3)
    ladder = TemperatureLadder([1.0, 2.0])
    rng = derived_rng(2, "swap")
    trials = 20_000
    hits = 0
    for _ in range(trials):
        hits += swap_phase([0, 1], ladder, 0, rng, [[0, 0]], [9, 6])
    assert abs(hits / trials - math.exp(-3)) < 0.01


def test_swap_phase_parity_pairing():
    ladder = TemperatureLadder([0.1, 0.2, 0.3, 0.4])
    order = list(range(4))
    scores = [5] * 4
    counts = [[0, 0] for _ in range(3)]
    swap_phase(order, ladder, 0, derived_rng(3, "swap"), counts, scores)
    assert counts == [[1, 1], [0, 0], [1, 1]]  # equal scores always swap
    swap_phase(order, ladder, 1, derived_rng(4, "swap"), counts, scores)
    assert counts == [[1, 1], [1, 1], [1, 1]]
    # swapping permutes the replicas among the slots
    assert sorted(order) == [0, 1, 2, 3]


def test_ladder_validation():
    with pytest.raises(ValueError):
        TemperatureLadder([1.0])
    with pytest.raises(ValueError):
        TemperatureLadder([1.0, 1.0])
    with pytest.raises(ValueError):
        TemperatureLadder([-0.5, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            TemperatureLadder([0.1, bad, 2.0])
        with pytest.raises(ValueError, match="must be finite"):
            TemperatureLadder([0.1, 2.0, bad])
    ladder = TemperatureLadder([0.0, 1.0, 2.0])
    assert ladder.size == 3


def test_anchor_beta_closed_forms():
    # uniform deltas: mean exp(-2 beta) = 0.6  =>  beta = -ln(0.6)/2
    beta = anchor_beta(Counter({2: 3}), 0.60)
    assert abs(beta - (-math.log(0.6) / 2)) < 1e-5
    # two deltas {1, 2}: solve the quadratic in u = exp(-beta)
    beta = anchor_beta(Counter({1: 1, 2: 1}), 0.60)
    u = (-1 + math.sqrt(1 + 4 * 2 * 0.6)) / 2
    assert abs(beta - (-math.log(u))) < 1e-5
    # substitution check
    assert abs((math.exp(-beta) + math.exp(-2 * beta)) / 2 - 0.6) < 1e-5


def test_anchor_beta_rejects_empty_and_unreachable():
    with pytest.raises(CalibrationError):
        anchor_beta(Counter(), 0.5)
    with pytest.raises(CalibrationError):
        anchor_beta(Counter({1: 1}), 1e-60)


def test_calibrate_ladder_structure():
    target = majority_truth_table(3)
    cons = NetworkConstraints(2, inverters_allowed=False)
    ladder = calibrate_ladder(target, cons, seed=1)
    assert 41 <= ladder.size <= 61
    assert all(b2 > b1 for b1, b2 in zip(ladder.betas, ladder.betas[1:]))
    small = calibrate_ladder(target, cons, seed=1, replicas=8)
    assert small.size == 8


def test_calibrate_ladder_rejects_too_few_replicas_before_the_warmup(
        monkeypatch):
    def no_warmup(*args, **kwargs):
        raise AssertionError("warm-up ran")

    monkeypatch.setattr(engine, "collect_uphill_deltas", no_warmup)
    with pytest.raises(ValueError, match="at least 4 replicas, got 3"):
        calibrate_ladder(majority_truth_table(3),
                         NetworkConstraints(2, inverters_allowed=False),
                         seed=1, replicas=3)


def test_calibrate_ladder_degenerate_case():
    # n=1 at p=1 admits no moves at all, so no uphill deltas are seen
    target = majority_truth_table(1)
    cons = NetworkConstraints(1, inverters_allowed=False)
    with pytest.raises(CalibrationError):
        calibrate_ladder(target, cons, seed=1)


def test_collect_uphill_deltas_nonempty():
    target = majority_truth_table(3)
    cons = NetworkConstraints(2, inverters_allowed=False)
    deltas = collect_uphill_deltas(target, cons, derived_rng(0, "warm"))
    assert sum(deltas.values()) > 0
    assert all(d > 0 for d in deltas)


def test_run_solves_maj3_immediately():
    target = majority_truth_table(3)
    cons = NetworkConstraints(1, inverters_allowed=False)
    ladder = TemperatureLadder([0.1, 0.5, 1.0, 4.0])
    report = run(target, cons, ladder,
                 StopConditions(max_repetitions=10**6, score_goal=0), seed=1)
    assert report.best_q == 1
    assert report.best_score == 0
    assert report.found_exact
    cache = evaluate_full(report.best_network, target)
    assert cache.error == 0


# sha256 prefixes of the emitted network, trace, slot acceptance and swap
# rates of a 40-repetition MAJ-5 p=8 run; a change here changes the search
PINNED_STREAMS = [
    ((False, False), (1, 0), "33dc6769755ae98ca70e97444e1171a6"),
    ((False, False), (1, 1), "09a80ea10a654c913f13849ee848ae55"),
    ((False, False), (0, 1), "59124a56c07ced9fb5553a1432b3a072"),
    ((False, False), (2, 1), "45754723ac101425c548ce10d6134bcd"),
    ((True, True), (1, 0), "294d61b46814c84cb871ae2fae4dfe90"),
    ((True, True), (1, 1), "651f681b30d0c3a3244dc3a633e5d82b"),
    ((True, True), (0, 1), "02ee074705e69b008798b6838771f2e9"),
    ((True, True), (2, 1), "277e2d2684aca9bb2a705a5601837266"),
]


@pytest.mark.parametrize("flags,mix,digest", PINNED_STREAMS)
def test_run_rng_stream_is_pinned(flags, mix, digest):
    inverters, leafy = flags
    cons = NetworkConstraints(8, inverters_allowed=inverters, leafy=leafy)
    report = run(majority_truth_table(5), cons,
                 TemperatureLadder([0.0, 0.5, 1.0, 2.0, 4.0]),
                 StopConditions(max_repetitions=40), seed=1, move_weights=mix)
    assert report.best_q == 4
    h = hashlib.sha256()
    for part in (emit_network(report.best_network),
                 emit_trace(report.trace, report.swap_rate_log),
                 repr(report.slot_acceptance), repr(report.swap_rates)):
        h.update(part.encode() + b"\0")
    assert h.hexdigest()[:32] == digest


def report_fields(report):
    """Everything a run reports that the RNG stream decides."""
    best = report.best_network
    return (best.codes if best is not None else None,
            best.output_code if best is not None else None,
            report.best_q, report.best_score, report.repetitions,
            report.trace, report.swap_rate_log, report.swap_rates,
            report.slot_acceptance)


def test_run_deterministic_across_threads(monkeypatch):
    monkeypatch.setattr(engine, "SWAP_NOTE_INTERVAL", 7)
    target = majority_truth_table(5)
    stop = StopConditions(max_repetitions=60)
    for mix in ((1, 0), (1, 1), (0, 1)):
        for inverters, leafy in ((False, False), (True, True)):
            cons = NetworkConstraints(8, inverters_allowed=inverters,
                                      leafy=leafy)
            reports = {}
            for threads in (1, 2, 4, 7):
                ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
                reports[threads] = report_fields(
                    run(target, cons, ladder, stop, seed=9, threads=threads,
                        move_weights=mix))
            assert reports[1][2] is not None, "expected an exact network"
            assert reports[1] == reports[2] == reports[4] == reports[7], \
                (mix, inverters)


def test_run_leaves_its_ladder_unchanged(monkeypatch):
    monkeypatch.setattr(engine, "SWAP_NOTE_INTERVAL", 7)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    stop = StopConditions(max_repetitions=30)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    before = copy.deepcopy(ladder)
    first = report_fields(run(target, cons, ladder, stop, seed=9))
    assert ladder == before
    # a reused ladder runs as a fresh one does
    assert report_fields(run(target, cons, ladder, stop, seed=9)) == first
    assert report_fields(run(target, cons, before, stop, seed=9)) == first


@pytest.mark.parametrize("mix", [(1.0, 0.0), (1.0, 1.0)], ids=["one", "mixed"])
def test_ladder_state_reports_between_repetitions_as_a_stopped_run(
        mix, monkeypatch):
    # one state, read after 0, 1 and 7 steps, reports what a run stopped
    # at that many repetitions does; each report stays as it was read
    monkeypatch.setattr(engine, "SWAP_NOTE_INTERVAL", 3)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    state = engine.LadderState(target, cons, ladder, seed=9)
    workers = engine._SweepWorkers(state.replicas, ladder.betas, 1, mix)
    reports = {}
    for k in (0, 1, 7):
        while state.repetition < k:
            state.step(workers)
        reports[k] = state.report()
    for k, report in reports.items():
        stopped = run(target, cons, ladder, StopConditions(max_repetitions=k),
                      seed=9, move_weights=mix)
        assert report_fields(report) == report_fields(stopped), k
    assert reports[7].best_q is not None and reports[7].swap_rate_log


def test_run_rejects_fewer_than_one_thread():
    ladder = TemperatureLadder([0.1, 1.0])
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run(majority_truth_table(3), NetworkConstraints(1), ladder,
                StopConditions(max_repetitions=1), threads=threads)


def test_run_trace_is_monotone_and_best_verifies():
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    stop = StopConditions(max_repetitions=300, score_goal=-4)
    reports = [run(target, cons, ladder, stop, seed=2, threads=threads)
               for threads in (1, 2)]
    report = reports[0]
    rows = report.trace
    assert rows, "expected at least one improvement"
    for earlier, later in zip(rows, rows[1:]):
        assert later.best_q < earlier.best_q
        assert later.best_score < earlier.best_score
        assert later.repetition > earlier.repetition
    assert report.best_q == rows[-1].best_q
    # every row is clocked, in order and within the run, whatever the
    # threads; the clock is left out when two traces are compared
    for clocked in reports:
        assert clocked.trace == rows
        seconds = [row.elapsed_seconds for row in clocked.trace]
        assert all(type(s) is float for s in seconds)
        assert seconds == sorted(seconds) and seconds[-1] <= clocked.wall_time
    if report.found_exact:
        assert evaluate_full(report.best_network, target).error == 0
    # the emitted trace holds one row per improvement, even when several
    # improvements land inside one repetition
    header, *lines = emit_trace(rows, report.swap_rate_log).splitlines()
    assert header == "repetition,best_q,best_score,elapsed_seconds"
    assert [line.split(",") for line in lines if not line.startswith("#")] \
        == [[str(r.repetition), str(r.best_q), str(r.best_score), ""]
            for r in rows]


def test_run_hot_slots_accept_more_than_cold_slots():
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.005, 0.3, 1.0, 2.5, 6.0, 12.0])
    report = run(target, cons, ladder, StopConditions(max_repetitions=200),
                 seed=6)
    assert report.slot_acceptance[0] > report.slot_acceptance[-1]


def test_run_without_exact_solution_reports_positive_score():
    # p=1 cannot implement MAJ-5, so the best score stays positive
    target = majority_truth_table(5)
    cons = NetworkConstraints(1, inverters_allowed=False)
    ladder = TemperatureLadder([0.1, 1.0])
    report = run(target, cons, ladder,
                 StopConditions(max_repetitions=30), seed=3)
    assert report.best_network is None
    assert report.best_q is None
    assert report.best_score > 0


@pytest.mark.parametrize("mix", [(1, 0), (1, 1), (0, 1)],
                         ids=["one", "mixed", "swap"])
@pytest.mark.parametrize("inverters,leafy", [(False, False), (False, True),
                                             (True, False), (True, True)],
                         ids=["maj", "maj-leafy", "inv", "inv-leafy"])
def test_run_debug_checks_hold(mix, inverters, leafy, tmp_path, monkeypatch):
    # every sweep is checked as it returns: the replica's cached columns,
    # error and score must equal evaluate_full's.  The two seeds together
    # take every case through both phases.  With threads=2 the check also
    # runs in the worker process, so each checked sweep is logged to a
    # file, one line per call, with the process id.
    real_sweep = engine.sweep
    log = None

    def checked_sweep(replica, *args, **kwargs):
        stats = real_sweep(replica, *args, **kwargs)
        cache, fresh = replica.cache, evaluate_full(replica.network, target)
        assert (cache.cols, cache.error, cache.score) \
            == (fresh.cols, fresh.error, fresh.score), "cache drifted"
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {int(cache.error == 0)} "
                         f"{stats.accepted}\n")
        return stats

    monkeypatch.setattr(engine, "sweep", checked_sweep)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=inverters, leafy=leafy)
    for threads in (1, 2):
        log = tmp_path / f"calls-{threads}.log"
        for seed in (1, 4):
            run(target, cons, TemperatureLadder([0.1, 0.6, 2.0, 5.0]),
                StopConditions(max_repetitions=40), seed=seed,
                threads=threads, move_weights=mix)
        lines = [line.split() for line in log.read_text().splitlines()]
        assert {exact for _, exact, _ in lines} == {"0", "1"}
        assert sum(int(accepted) for _, _, accepted in lines)
        # the caller and, with threads=2, each run's worker checked sweeps
        assert len({pid for pid, _, _ in lines}) == (1 if threads == 1 else 3)


def test_run_forks_one_process_per_extra_share(monkeypatch):
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def recording_start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recording_start)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    for threads in (1, 2, 4, 9):
        started.clear()
        run(target, cons, ladder, StopConditions(max_repetitions=3), seed=9,
            threads=threads)
        # threads=1 starts none; beyond the 6 replicas, threads start none
        assert len(started) == min(threads, ladder.size) - 1
        assert not any(proc.is_alive() for proc in started)
        assert multiprocessing.active_children() == []
    # without the fork start method the run is serial
    started.clear()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    run(target, cons, ladder, StopConditions(max_repetitions=3), seed=9,
        threads=4)
    assert started == []


@contextlib.contextmanager
def alarm_after(seconds):
    """Raise TimeoutError in the test if its body takes longer than
    ``seconds``, so a hung worker fails the test instead of hanging it."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_run_raises_a_worker_exception_in_the_caller(monkeypatch):
    real_sweep = engine.sweep
    parent = os.getpid()

    def sweep_failing_in_workers(replica, *args, **kwargs):
        if os.getpid() != parent:
            slot = ladder.betas.index(args[0])
            raise ValueError(f"sweep of slot {slot} failed")
        return real_sweep(replica, *args, **kwargs)

    monkeypatch.setattr(engine, "sweep", sweep_failing_in_workers)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    with alarm_after(60), \
            pytest.raises(ValueError, match=r"sweep of slot \d+ failed") as err:
        run(target, cons, ladder, StopConditions(max_repetitions=5), seed=9,
            threads=2)
    assert "in a sweep worker" in str(err.value.__cause__)
    assert multiprocessing.active_children() == []


def test_run_reports_a_worker_that_exits(monkeypatch):
    real_sweep = engine.sweep
    parent = os.getpid()

    def exiting_sweep(replica, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real_sweep(replica, *args, **kwargs)

    monkeypatch.setattr(engine, "sweep", exiting_sweep)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    with alarm_after(60), \
            pytest.raises(RuntimeError, match="sweep worker process exited"):
        run(target, cons, ladder, StopConditions(max_repetitions=5), seed=9,
            threads=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_run_interrupt_reports_the_best_so_far(threads, monkeypatch):
    real_swap = engine.swap_phase
    calls = 0

    def interrupting_swap(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise KeyboardInterrupt
        return real_swap(*args, **kwargs)

    monkeypatch.setattr(engine, "swap_phase", interrupting_swap)
    target = majority_truth_table(5)
    cons = NetworkConstraints(8, inverters_allowed=False)
    ladder = TemperatureLadder([0.05, 0.3, 0.8, 1.5, 3.0, 6.0])
    report = run(target, cons, ladder, StopConditions(max_repetitions=50),
                 seed=9, threads=threads)
    assert report.interrupted
    assert report.repetitions == 3
    assert report.best_score is not None
    assert multiprocessing.active_children() == []


def test_run_raises_when_cleanup_disagrees_with_score(monkeypatch):
    real_cleanup = engine.cleanup

    def miscounting_cleanup(net):
        cleaned, count = real_cleanup(net)
        return cleaned, count + 1

    monkeypatch.setattr(engine, "cleanup", miscounting_cleanup)
    target = majority_truth_table(3)
    cons = NetworkConstraints(1, inverters_allowed=False)
    ladder = TemperatureLadder([0.1, 0.5, 1.0, 4.0])
    with pytest.raises(RuntimeError, match="cleanup counted"):
        run(target, cons, ladder,
            StopConditions(max_repetitions=10**6, score_goal=0), seed=1)

