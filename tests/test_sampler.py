"""The default move mix samples the Boltzmann distribution.

The space is MAJ-3 without inverters at p=3, with the output at the last
gate: 60 * 120 * 210 valid networks, one ordered triple of distinct earlier
sources per gate.  Their scores are counted once (``SCORE_COUNTS``, and
again by enumeration in a slow test), so P(score) at inverse temperature
beta is exact.  One replica's sweeps, and each slot of a two-replica
ladder stepped as ``engine.run`` steps it, must reproduce P(score = -2)
within 4 standard errors, read as 20 batch means: a move or swap rule that
breaks detailed balance shifts it however the sweep and the move path
agree.
"""

import itertools
import math
import statistics
from collections import Counter

import pytest

from ptsynth import engine
from ptsynth.network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    cleaned_gate_count,
    evaluate_full,
    input_column,
    random_network,
)
from ptsynth.truthtable import majority_truth_table

CONSTRAINTS = NetworkConstraints(3, inverters_allowed=False)
TARGET = majority_truth_table(3)

# score: valid networks with it (error if inexact, else q - p)
SCORE_COUNTS = {-2: 76680, -1: 26568, 0: 23328, 1: 272160, 2: 1053648,
                3: 59616}


def exact_probability(score: int, beta: float) -> float:
    weights = {e: count * math.exp(-beta * e)
               for e, count in SCORE_COUNTS.items()}
    return weights[score] / sum(weights.values())


def batch_z(seed: int, beta: float, sweeps: int = 100_000,
            batches: int = 20) -> float:
    """z of the measured P(score = -2) over ``sweeps`` sweeps of one
    replica, against the exact value."""
    rng = engine.derived_rng(seed, "sampler")
    net = random_network(TARGET.n, CONSTRAINTS, rng)
    replica = engine.Replica(net, evaluate_full(net, TARGET), rng)
    means = []
    for _ in range(batches):
        hits = 0
        for _ in range(sweeps // batches):
            engine.sweep(replica, beta)
            hits += replica.score == -2
        means.append(hits / (sweeps // batches))
    error = statistics.stdev(means) / math.sqrt(batches)
    return (statistics.fmean(means) - exact_probability(-2, beta)) / error


def test_score_counts_cover_the_space():
    assert sum(SCORE_COUNTS.values()) == 60 * 120 * 210
    assert round(exact_probability(-2, 1.0), 4) == 0.6241
    assert round(exact_probability(-2, 0.5), 4) == 0.2477


@pytest.mark.parametrize("seed", [1, 2])
def test_default_mix_samples_boltzmann_at_beta_1(seed):
    assert abs(batch_z(seed, 1.0)) < 4


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_default_mix_samples_boltzmann_at_beta_half(seed):
    assert abs(batch_z(seed, 0.5)) < 4


def two_slot_z(seed: int, repetitions: int = 50_000,
               batches: int = 20) -> list[float]:
    """z of the measured P(score = -2) at each slot of a two-slot ladder
    (beta 0.5 and 1.0), against the exact value, over ``repetitions``
    repetitions of the ``engine.LadderState`` that ``engine.run`` steps."""
    ladder = engine.TemperatureLadder([0.5, 1.0])
    state = engine.LadderState(TARGET, CONSTRAINTS, ladder, seed)
    workers = engine._SweepWorkers(state.replicas, ladder.betas, 1, (1.0, 0.0))
    per_batch = repetitions // batches
    hits = [[0] * batches for _ in ladder.betas]
    for batch in range(batches):
        for _ in range(per_batch):
            state.step(workers)
            for slot, r in enumerate(state.order):
                hits[slot][batch] += state.scores[r] == -2
    assert state.swap_counts[0][1] > 0, "no swap was accepted"
    zs = []
    for slot, beta in enumerate(ladder.betas):
        means = [h / per_batch for h in hits[slot]]
        error = statistics.stdev(means) / math.sqrt(batches)
        zs.append((statistics.fmean(means) - exact_probability(-2, beta))
                  / error)
    return zs


def test_two_replicas_with_swaps_sample_boltzmann_at_each_slot():
    assert all(abs(z) < 4 for z in two_slot_z(1))


@pytest.mark.slow
def test_score_counts_by_enumeration():
    n, p = TARGET.n, CONSTRAINTS.max_nodes
    mask = (1 << (1 << n)) - 1
    counts = Counter()

    def rows(g):
        return [[s << 1 for s in triple]
                for triple in itertools.permutations(range(PI_BASE + n + g), 3)]

    def majority(cols, row):
        a, b, c = (cols[code >> 1] for code in row)
        return (a & b) | (a & c) | (b & c)

    rows0, rows1, rows2 = rows(0), rows(1), rows(2)
    inputs = [0, mask] + [input_column(i, n) for i in range(n)]
    for row0 in rows0:
        cols0 = inputs + [majority(inputs, row0)]
        for row1 in rows1:
            cols1 = cols0 + [majority(cols0, row1)]
            for row2 in rows2:
                error = (majority(cols1, row2) ^ TARGET.bits).bit_count()
                if error:
                    counts[error] += 1
                else:
                    net = LogicNetwork(n, CONSTRAINTS, [row0, row1, row2])
                    counts[cleaned_gate_count(net) - p] += 1
    assert dict(counts) == SCORE_COUNTS
