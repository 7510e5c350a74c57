"""Parallel tempering search over logic networks.

Runs M replicas at calibrated inverse temperatures.  A repetition is one
Metropolis sweep per replica (five update attempts per gate input) followed
by one odd-even swap phase between neighboring temperature slots.  The best
exact network found, after cleanup, is tracked across the whole run.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
# unused; kept because perfbench/run.py patches it in its traced pass
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

from . import moves
from .network import (
    LogicNetwork,
    NetworkConstraints,
    cleanup,
    evaluate_full,
    output_cone,
    random_network,
)
from .truthtable import TruthTable


class CalibrationError(RuntimeError):
    """Temperature calibration could not produce a usable ladder."""


def derived_rng(seed, *tags) -> random.Random:
    """Deterministic child RNG stream, stable across platforms and runs."""
    key = ":".join(str(part) for part in (seed, *tags))
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def accept_uphill(delta: float, beta: float, rng: random.Random) -> bool:
    """Metropolis decision for an energy increase of ``delta`` at inverse
    temperature ``beta``: accept with probability exp(-beta * delta)."""
    return rng.random() < math.exp(-beta * delta)


@dataclass
class TemperatureLadder:
    """Strictly increasing inverse temperatures plus per-pair swap counters."""

    betas: list[float]
    swap_attempts: list[int] = field(default_factory=list)
    swap_accepts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.betas) < 2:
            raise ValueError("a ladder needs at least two temperatures")
        if self.betas[0] < 0:
            raise ValueError("inverse temperatures must be non-negative")
        for lo, hi in zip(self.betas, self.betas[1:]):
            if hi <= lo:
                raise ValueError("inverse temperatures must strictly increase")
        pairs = len(self.betas) - 1
        if not self.swap_attempts:
            self.swap_attempts = [0] * pairs
        if not self.swap_accepts:
            self.swap_accepts = [0] * pairs

    @property
    def size(self) -> int:
        return len(self.betas)

    def swap_rates(self) -> list[float]:
        return [acc / att if att else 0.0
                for acc, att in zip(self.swap_accepts, self.swap_attempts)]

    def reset_counters(self) -> None:
        self.swap_attempts = [0] * (self.size - 1)
        self.swap_accepts = [0] * (self.size - 1)


class Replica:
    """One network walking at a temperature slot, with its own RNG stream."""

    __slots__ = ("network", "cache", "rng", "slot")

    def __init__(self, network: LogicNetwork, cache, rng: random.Random,
                 slot: int) -> None:
        self.network = network
        self.cache = cache
        self.rng = rng
        self.slot = slot

    @property
    def score(self) -> int:
        return self.cache.score


@dataclass
class SweepStats:
    steps: int
    proposed: int
    accepted: int
    uphill_deltas: list[int] | None = None
    best_exact: tuple[int, list[list[int]], int] | None = None


def _draw_proposal(net, rng, gate, slot, move_weights):
    w1, w2, w3 = move_weights
    r = rng.random() * (w1 + w2 + w3)
    if r < w1:
        return moves.propose_reassign_one(
            net, rng, gate, slot, moves.replacement_pool(net, gate, slot))
    if r < w1 + w2:
        return moves.propose_swap_between_gates(net, rng, gate, slot)
    return moves.propose_reassign_all(net, rng, gate)


def sweep(replica: Replica, beta: float, q_threshold: int | None = None,
          collect_deltas: bool = False,
          move_weights=(1.0, 0.0, 0.0)) -> SweepStats:
    """Five Metropolis attempts per gate input, gate-major and slot-minor.

    When ``q_threshold`` is given, any visited exact network that cleans up
    to fewer than that many gates is snapshotted into the returned stats.
    """
    net, cache, rng = replica.network, replica.cache, replica.rng
    codes = net.codes
    p = len(codes)
    budget = net.constraints.max_nodes
    default_mix = move_weights[1] == 0 and move_weights[2] == 0
    apply_p = moves.apply_proposal
    revert_p = moves.revert_proposal
    propose_one = moves.propose_reassign_one
    steps = proposed = accepted = 0
    deltas: list[int] | None = [] if collect_deltas else None
    best: tuple[int, list[list[int]], int] | None = None
    for g in range(p):
        for s in range(3):
            # only reassign-one keeps this pool valid (it edits slot s alone)
            pool = moves.replacement_pool(net, g, s) if default_mix else None
            for _ in range(5):
                steps += 1
                if default_mix:
                    edits = propose_one(net, rng, g, s, pool)
                else:
                    edits = _draw_proposal(net, rng, g, s, move_weights)
                if edits is None:
                    continue
                proposed += 1
                delta, undo = apply_p(net, cache, edits)
                if delta > 0:
                    if deltas is not None:
                        deltas.append(delta)
                    if not accept_uphill(delta, beta, rng):
                        revert_p(net, cache, undo)
                        continue
                accepted += 1
                score = cache.score
                if score <= 0 and q_threshold is not None:
                    q = score + budget
                    if q < q_threshold and (best is None or q < best[0]):
                        best = (q, [row[:] for row in codes], net.output_code)
    return SweepStats(steps, proposed, accepted, deltas, best)


def swap_phase(replicas: list[Replica], ladder: TemperatureLadder,
               parity: int, rng: random.Random) -> int:
    """Attempt swaps between each adjacent slot pair of the given parity."""
    betas = ladder.betas
    swapped = 0
    for i in range(parity, ladder.size - 1, 2):
        ladder.swap_attempts[i] += 1
        a, b = replicas[i], replicas[i + 1]
        exponent = (betas[i] - betas[i + 1]) * (a.score - b.score)
        if exponent >= 0 or rng.random() < math.exp(exponent):
            replicas[i], replicas[i + 1] = b, a
            a.slot, b.slot = i + 1, i
            ladder.swap_accepts[i] += 1
            swapped += 1
    return swapped


@dataclass
class StopConditions:
    max_repetitions: int | None = None
    time_limit: float | None = None
    score_goal: int | None = None


@dataclass
class TraceRow:
    repetition: int
    best_q: int
    best_score: int
    elapsed_seconds: float | None = None


@dataclass
class SynthesisReport:
    best_network: LogicNetwork | None
    best_q: int | None
    best_score: int | None
    repetitions: int
    wall_time: float
    swap_rates: list[float]
    trace: list[TraceRow]
    slot_acceptance: list[float]
    swap_rate_log: list[tuple[int, list[float]]]
    replicas: int
    interrupted: bool = False

    @property
    def found_exact(self) -> bool:
        return self.best_q is not None


def run(target: TruthTable, constraints: NetworkConstraints,
        ladder: TemperatureLadder, stop: StopConditions | None = None,
        seed=0, threads: int = 1, move_weights=(1.0, 0.0, 0.0),
        wall_clock_trace: bool = False, swap_note_interval: int = 1000,
        debug_checks: bool = False) -> SynthesisReport:
    """Full parallel-tempering synthesis run.

    Every sweep runs on the calling thread: the sweeps are pure Python and
    hold the interpreter lock, so threads cannot run them in parallel.
    ``threads`` is accepted for compatibility and ignored.

    Deterministic for a fixed (target, constraints, ladder, stop, seed,
    move_weights), as long as no wall-clock stop or interrupt cuts the run
    short.
    """
    if stop is None:
        stop = StopConditions()
    start = time.perf_counter()
    ladder.reset_counters()
    m = ladder.size
    budget = constraints.max_nodes
    replicas = []
    for i in range(m):
        rng = derived_rng(seed, "replica", i)
        net = random_network(target.n, constraints, rng)
        replicas.append(Replica(net, evaluate_full(net, target), rng, i))

    best_q: int | None = None
    best_score: int | None = None
    best_net: LogicNetwork | None = None
    trace: list[TraceRow] = []
    last_traced_q: int | None = None
    swap_rate_log: list[tuple[int, list[float]]] = []
    slot_proposed = [0] * m
    slot_accepted = [0] * m
    interrupted = False
    repetition = 0

    def consider(q: int, codes: list[list[int]], out_code: int) -> None:
        nonlocal best_q, best_score, best_net
        if best_q is not None and q >= best_q:
            return
        cleaned, count = cleanup(LogicNetwork(target.n, constraints,
                                              [row[:] for row in codes], out_code))
        if count != q:
            raise RuntimeError(f"cleanup counted {count} gates, the cached "
                               f"score implies {q}")
        best_q, best_score, best_net = q, q - budget, cleaned

    def record_improvement(rep: int) -> None:
        # one trace row per repetition, taken after all of its updates
        nonlocal last_traced_q
        if best_q is not None and (last_traced_q is None or best_q < last_traced_q):
            elapsed = time.perf_counter() - start if wall_clock_trace else None
            trace.append(TraceRow(rep, best_q, best_q - budget, elapsed))
            last_traced_q = best_q

    for replica in replicas:
        if replica.cache.error == 0:
            consider(replica.score + budget, replica.network.codes,
                     replica.network.output_code)
    record_improvement(0)

    betas = ladder.betas
    try:
        while True:
            if stop.score_goal is not None and best_score is not None \
                    and best_score <= stop.score_goal:
                break
            if stop.max_repetitions is not None and repetition >= stop.max_repetitions:
                break
            if stop.time_limit is not None \
                    and time.perf_counter() - start >= stop.time_limit:
                break
            repetition += 1
            threshold = best_q if best_q is not None else budget + 1
            stats = [sweep(replica, betas[replica.slot], threshold,
                           move_weights=move_weights) for replica in replicas]

            for slot, st in enumerate(stats):
                slot_proposed[slot] += st.proposed
                slot_accepted[slot] += st.accepted
                if st.best_exact is not None:
                    consider(st.best_exact[0], st.best_exact[1],
                             st.best_exact[2])
            for replica in replicas:
                if replica.cache.error == 0:
                    consider(replica.score + budget, replica.network.codes,
                             replica.network.output_code)
                elif best_score is None or replica.score < best_score:
                    best_score = replica.score
            record_improvement(repetition)

            swap_phase(replicas, ladder, repetition & 1,
                       derived_rng(seed, "swap", repetition))
            if swap_note_interval and repetition % swap_note_interval == 0:
                swap_rate_log.append((repetition, ladder.swap_rates()))
            if debug_checks:
                _check_replicas(replicas, target)
    except KeyboardInterrupt:
        interrupted = True

    return SynthesisReport(
        best_network=best_net,
        best_q=best_q,
        best_score=best_score,
        repetitions=repetition,
        wall_time=time.perf_counter() - start,
        swap_rates=ladder.swap_rates(),
        trace=trace,
        slot_acceptance=[acc / prop if prop else 0.0
                         for acc, prop in zip(slot_accepted, slot_proposed)],
        swap_rate_log=swap_rate_log,
        replicas=m,
        interrupted=interrupted,
    )


def _check_replicas(replicas: list[Replica], target: TruthTable) -> None:
    for replica in replicas:
        fresh = evaluate_full(replica.network, target)
        if fresh.cols != replica.cache.cols:
            raise RuntimeError(f"slot {replica.slot}: cache columns drifted")
        if fresh.error != replica.cache.error:
            raise RuntimeError(f"slot {replica.slot}: cache error drifted")
        if fresh.score != replica.cache.score:
            raise RuntimeError(f"slot {replica.slot}: cached score drifted")
        cone = replica.cache.cone
        if cone is not None and cone != output_cone(replica.network):
            raise RuntimeError(f"slot {replica.slot}: cached output cone drifted")


DEFAULT_REPLICAS = 51  # ladder size when the configuration sets none


@dataclass
class CalibrationConfig:
    """Knobs for the warm-up/anchor/in-fill temperature selection."""

    warmup_sweeps: int = 200
    anchor_rates: tuple[float, float, float, float] = (0.99, 0.60, 0.01, 1e-6)
    beta_max: float = 100.0
    tolerance: float = 1e-6
    replicas: int | None = None


def _mean_acceptance(deltas: Counter, beta: float) -> float:
    total = sum(deltas.values())
    return sum(count * math.exp(-beta * d) for d, count in deltas.items()) / total


def anchor_beta(deltas: Counter, rate: float, beta_max: float = 100.0,
                tolerance: float = 1e-6) -> float:
    """Solve mean(exp(-beta * delta)) == rate for beta by bisection."""
    if not deltas:
        raise CalibrationError("no energy-increasing updates to calibrate on")
    if _mean_acceptance(deltas, beta_max) > rate:
        raise CalibrationError(f"acceptance target {rate} unreachable below "
                               f"beta={beta_max}")
    lo, hi = 0.0, beta_max
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if _mean_acceptance(deltas, mid) > rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def collect_uphill_deltas(target: TruthTable, constraints: NetworkConstraints,
                          rng: random.Random, warmup_sweeps: int) -> Counter:
    """Infinite-temperature random walk recording every uphill score delta."""
    net = random_network(target.n, constraints, rng)
    replica = Replica(net, evaluate_full(net, target), rng, 0)
    seen: Counter = Counter()
    for _ in range(warmup_sweeps):
        stats = sweep(replica, 0.0, collect_deltas=True)
        seen.update(stats.uphill_deltas)
    return seen


def calibrate_ladder(target: TruthTable, constraints: NetworkConstraints,
                     config: CalibrationConfig | None = None,
                     seed=0) -> TemperatureLadder:
    """Warm up at infinite temperature, then build the ladder from the
    observed uphill deltas (see ``ladder_from_deltas``)."""
    if config is None:
        config = CalibrationConfig()
    deltas = collect_uphill_deltas(target, constraints,
                                   derived_rng(seed, "calibrate"),
                                   config.warmup_sweeps)
    return ladder_from_deltas(deltas, config)


def ladder_from_deltas(deltas: Counter,
                       config: CalibrationConfig) -> TemperatureLadder:
    """Build the two-segment linear-in-beta ladder from warm-up statistics.

    Four anchor temperatures are chosen so the estimated acceptance of the
    observed uphill moves is roughly 99%, 60%, 1% and 1e-6; replicas are
    inserted linearly in beta between the middle anchors until the ladder
    reaches the configured size.
    """
    if not deltas:
        raise CalibrationError(
            "warm-up saw no energy-increasing updates; increase warmup_sweeps")
    rates = config.anchor_rates
    if sorted(rates, reverse=True) != list(rates):
        raise ValueError("anchor rates must be strictly decreasing")
    b1, b2, bk, bl = (anchor_beta(deltas, r, config.beta_max, config.tolerance)
                      for r in rates)
    if not b1 < b2 < bk < bl:
        raise CalibrationError(f"degenerate anchors {b1}, {b2}, {bk}, {bl}; "
                               "increase warmup_sweeps")
    m = config.replicas if config.replicas is not None else DEFAULT_REPLICAS
    if m < 4:
        raise ValueError("need at least 4 replicas for the two-segment ladder")
    interior = m - 2
    a = round(interior * (bk - b2) / (bl - b2))
    a = max(1, min(interior - 1, a))
    b = interior - a
    betas = [b1]
    betas += [b2 + (bk - b2) * i / a for i in range(a + 1)]
    betas += [bk + (bl - bk) * i / b for i in range(1, b + 1)]
    return TemperatureLadder(betas)


def probe_swap_rates(target: TruthTable, constraints: NetworkConstraints,
                     ladder: TemperatureLadder, seed=0,
                     repetitions: int = 1000) -> list[float]:
    """Measure per-pair swap rates over a bounded probe run."""
    run(target, constraints, ladder,
        StopConditions(max_repetitions=repetitions), seed=seed)
    return ladder.swap_rates()
