"""Parallel tempering search over logic networks.

Runs M replicas at calibrated inverse temperatures.  A repetition is one
Metropolis sweep per replica (five update attempts per gate input) followed
by one odd-even swap phase between neighboring temperature slots.  The best
exact network found, after cleanup, is tracked across the whole run.  The
sweeps of one repetition are independent, so ``run`` can spread them over
worker processes (``threads``).
"""

from __future__ import annotations

import hashlib
import math
import random
import signal
import time
import traceback
from collections import Counter
# unused; kept because perfbench/run.py patches it in its traced pass
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

from . import moves, network
from .network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    cleanup,
    evaluate_full,
    output_cofactors,
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
        if not all(math.isfinite(beta) for beta in self.betas):
            # a NaN beta would fail every uphill move and swap unnoticed
            raise ValueError("inverse temperatures must be finite")
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
    """What one sweep did, and the replica's error and score after it."""

    steps: int
    proposed: int
    accepted: int
    error: int
    score: int
    uphill_deltas: list[int] | None = None
    best_exact: tuple[int, list[list[int]], int] | None = None


def sweep(replica: Replica, beta: float, q_threshold: int | None = None,
          collect_deltas: bool = False,
          move_weights=(1.0, 0.0, 0.0)) -> SweepStats:
    """Five Metropolis attempts per gate input, gate-major and slot-minor.

    Each attempt draws its move kind by ``move_weights`` (reassign-one,
    swap-between-gates, reassign-all; no draw when only reassign-one has
    weight) and is scored before it is written.

    The sweep takes the output cone (``output_cone``) once.  A gate's cone
    bit depends only on the operands of later gates, and every literal a
    move at gate g writes or overwrites names a source below gate g (a
    swap's partner literal must be legal at gate g too).  So no move changes
    the cone bit of the gate it is made at or of any gate above it, and the
    bit of the visited gate is exact.  A one-gate move (reassign-one or
    reassign-all at gate g) at a gate outside the cone keeps both error and
    score, so it is accepted with delta 0 and only its codes are written.
    At a cone gate the move is scored from gate g's output cofactors
    (``output_cofactors``, taken once per gate on first use), which
    evaluate only the later cone gates that read gate g.  A swap, which
    also rewires a gate g2, is scored by evaluating gates ``min(g, g2)..``
    on a copy of the columns before them.

    Reassign-one attempts run per slot: a run of them shares the slot's
    pool layout and residuals, which are taken once per slot and again
    only after an accepted swap or reassign-all.  With only reassign-one
    weighted, the run is all five attempts; with any other mix each attempt
    draws its kind first, and a reassign-one attempt is a run of one.  A
    reassign-one attempt draws from the slot's replacement pool without
    building it: ``moves.pool_layout`` gives the pool's size and the two
    index blocks it skips, and the drawn index becomes a code by a few
    integer operations.  The index is drawn by the bounded ``getrandbits``
    loop of ``randrange(size)``, inline: ``getrandbits(k)`` until the result
    is below ``size``, with ``k = size.bit_length()``, so the draws and the
    RNG stream are those of ``randrange(size)``.  As in
    ``moves.propose_reassign_one`` it redraws while the code is the current
    one, and skips the attempt without drawing when the pool holds fewer
    than two codes.  Outside the cone an attempt is only that draw.  At a
    cone gate, with the slot's other operands b and c, gate g's column is
    ``(b & c) ^ (a & (b ^ c))`` for the new operand a, so with
    ``free = d & (b ^ c)`` and ``r0 = e0 ^ (d & b & c)`` its error is
    ``(r0 ^ (a & free)).bit_count()``; a complemented literal's column is
    ``col ^ mask``, which flips ``free``, so the attempt reads ``r0`` or
    ``r1 = r0 ^ free`` and scores with three operations on columns.

    When the sweep visits gate g, the columns of every gate below g and of
    every cone gate are fresh; the cone is closed under operand edges, so a
    cone gate reads no gate outside it.  Within the visit nothing reads
    gate g's column, so a one-gate move writes only codes.  As the sweep
    leaves the gate, it rebuilds gate g's column if the gate is outside the
    cone or a move there was accepted, and if that changed a cone gate's
    column it refreshes the later cone gates that read gate g from their
    cofactor columns.  An accepted swap copies back every column it
    evaluated.  So the cache is fresh again when the sweep ends; the error
    and score live in locals until then.

    When ``q_threshold`` is given, any visited exact network that cleans up
    to fewer than that many gates is snapshotted into the returned stats.
    """
    net, cache, rng = replica.network, replica.cache, replica.rng
    codes = net.codes
    cols, mask = cache.cols, cache.mask
    budget = net.constraints.max_nodes
    out = net.output_code
    w1, w2, w3 = move_weights
    mixed = w2 or w3
    w12, total = w1 + w2, w1 + w2 + w3
    # drawn as randrange(size) does (_randbelow_with_getrandbits)
    getrandbits = rng.getrandbits
    random, exp = rng.random, math.exp
    # pool index j >= cut holds code j + PI_BASE (see moves.pool_layout)
    cut = PI_BASE if net.constraints.inverters_allowed else len(cols)
    error, score = cache.error, cache.score
    deltas: list[int] | None = [] if collect_deltas else None
    proposed = accepted = 0
    best: tuple[int, list[list[int]], int] | None = None
    base = PI_BASE + net.n
    cone = output_cone(net)
    # set once an accepted move may have changed cone bits below the
    # visited gate; bits from the visited gate up stay exact
    moved = False
    for g, row in enumerate(codes):
        hid = base + g
        inside = cone >> g & 1
        entry = cols[hid]  # fresh if inside the cone
        e0 = None  # gate g's output cofactors, computed on first use
        accepted_before = accepted
        for s in range(3):
            size = None  # the slot's pool layout and residuals
            tries = 5
            while tries:
                run = tries  # reassign-one attempts in a row
                if mixed:
                    r = random() * total
                    if r >= w1:
                        tries -= 1
                        if r < w12:
                            edits = moves.propose_swap_between_gates(
                                net, rng, g, s)
                            if edits is None:
                                continue
                            (_, _, l2), (g2, s2, l1) = edits
                            row[s], codes[g2][s2] = l2, l1
                            lo = base + min(g, g2)
                            fresh = cols[:lo]
                            for ca, cb, cc in codes[lo - base:]:
                                a = fresh[ca >> 1] ^ (mask if ca & 1 else 0)
                                b = fresh[cb >> 1] ^ (mask if cb & 1 else 0)
                                c = fresh[cc >> 1] ^ (mask if cc & 1 else 0)
                                fresh.append((a & (b | c)) | (b & c))
                            new_error = (fresh[out >> 1]
                                         ^ (mask if out & 1 else 0)
                                         ^ cache.target_bits).bit_count()
                            if new_error:
                                new_score = new_error
                            # Both gates outside the cone: as for a one-gate
                            # edit there.  With gate g outside, gate g2 is
                            # outside the cone before the swap exactly when
                            # it is outside it after, and the cone is then
                            # the same.  Gate g2's cached bit is exact above
                            # gate g, and below it until a move is accepted;
                            # after that the swapped codes are walked.
                            elif not (error or inside
                                      or (output_cone(net) if moved and g2 < g
                                          else cone) >> g2 & 1):
                                new_score = score
                            else:
                                new_score = \
                                    network.cleaned_gate_count(net) - budget
                            row[s], codes[g2][s2] = l1, l2
                        else:
                            edits = moves.propose_reassign_all(net, rng, g)
                            if inside:
                                (_, _, ca), (_, _, cb), (_, _, cc) = edits
                                a = cols[ca >> 1] ^ (mask if ca & 1 else 0)
                                b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
                                c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
                                if e0 is None:
                                    e0, d, stale = output_cofactors(
                                        net, cache, g, cone)
                                new_error = (e0 ^ (d & ((a & (b | c))
                                                        | (b & c)))).bit_count()
                                if new_error:
                                    new_score = new_error
                                else:
                                    old = row[:]
                                    for _, t, code in edits:
                                        row[t] = code
                                    new_score = \
                                        network.cleaned_gate_count(net) - budget
                                    row[:] = old
                            else:
                                # the output does not read gate g; see the
                                # note on reassign-one outside the cone
                                new_error, new_score = error, score
                        proposed += 1
                        delta = new_score - score
                        if delta > 0:
                            if deltas is not None:
                                deltas.append(delta)
                            if not random() < exp(-beta * delta):
                                continue
                        for eg, t, code in edits:
                            codes[eg][t] = code
                        if r < w12:
                            cols[lo:] = fresh[lo:]
                            entry = cols[hid]
                            e0 = None
                            moved = True
                        elif inside:
                            moved = True
                        size = None
                        error, score = new_error, new_score
                        accepted += 1
                        if score <= 0 and q_threshold is not None:
                            q = score + budget
                            if q < q_threshold and (best is None or q < best[0]):
                                best = (q, [r[:] for r in codes], out)
                        continue
                    run = 1
                tries -= run
                if size is None:
                    size, first, e1, skip1, e2, skip2 = \
                        moves.pool_layout(net, g, s)
                    k = size.bit_length()
                    cur = row[s]
                    if not inside:
                        # The output does not read gate g: error and score
                        # stand.  The cleaned count stands too: cleanup's
                        # one pass in gate order rewrites each gate from its
                        # operands' final codes, so every live gate ends
                        # irreducible with a distinct key, the count is the
                        # number of distinct hash-consed nodes reachable
                        # from the output, and a node's hash-consed form
                        # depends only on its own fan-in cone, that is, only
                        # on operands of cone gates.  So the first accepted
                        # attempt here is the only one to snapshot.
                        q = score + budget
                        snap = (score <= 0 and q_threshold is not None
                                and q < q_threshold
                                and (best is None or q < best[0]))
                    elif size > 1:
                        if e0 is None:
                            e0, d, stale = output_cofactors(net, cache, g, cone)
                        cb, cc = row[s - 2], row[s - 1]
                        b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
                        c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
                        free = d & (b ^ c)
                        r0 = e0 ^ (d & b & c)
                        r1 = r0 ^ free
                # the current literal is in the pool: size - 1 choices
                if size < 2:
                    continue
                proposed += run
                for _ in range(run):
                    while True:
                        j = getrandbits(k)
                        while j >= size:
                            j = getrandbits(k)
                        j += first
                        if j >= e1:
                            j += skip1
                        if j >= e2:
                            j += skip2
                        new = j << 1 if j < cut else j + PI_BASE
                        if new != cur:
                            break
                    if inside:
                        new_error = ((r1 if new & 1 else r0)
                                     ^ (cols[new >> 1] & free)).bit_count()
                        if new_error:
                            new_score = new_error
                        else:
                            row[s] = new
                            # called through the module, so a wrapper there
                            # sees it
                            new_score = network.cleaned_gate_count(net) - budget
                            row[s] = cur
                        delta = new_score - score
                        if delta > 0:
                            if deltas is not None:
                                deltas.append(delta)
                            if not random() < exp(-beta * delta):  # accept_uphill
                                continue
                        error, score = new_error, new_score
                        accepted += 1
                        moved = True
                        if score <= 0 and q_threshold is not None:
                            q = score + budget
                            if q < q_threshold and (best is None or q < best[0]):
                                row[s] = new
                                best = (q, [r[:] for r in codes], out)
                    elif snap:
                        row[s] = new
                        best = (q, [r[:] for r in codes], out)
                        snap = False
                    cur = new
                row[s] = cur
                if not inside:
                    accepted += run
        if not inside or accepted != accepted_before:
            ca, cb, cc = row
            a = cols[ca >> 1] ^ (mask if ca & 1 else 0)
            b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
            c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
            cols[hid] = (a & (b | c)) | (b & c)
            if inside and cols[hid] != entry:
                # only an accepted one-gate move, scored after e0 was
                # taken, changes gate g's column
                x = cols[hid]
                for h, c0, dh in stale:
                    cols[base + h] = c0 ^ (dh & x)
    cache.error, cache.score = error, score
    return SweepStats(15 * len(codes), proposed, accepted, error, score,
                      deltas, best)


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


def check_move_weights(weights) -> tuple[float, float, float]:
    """The move mix as three floats.  Raises ValueError unless there are
    three non-negative weights, not all 0, with a finite sum."""
    parts = tuple(float(w) for w in weights)
    if len(parts) != 3 or min(parts) < 0 or not 0 < sum(parts) < math.inf:
        raise ValueError("move weights need 3 finite non-negative values, "
                         "not all 0")
    return parts


class _Remote:
    """A replica that a worker process sweeps, as the parent sees it: its
    slot, which the swap phase permutes, and its score after the last sweep,
    which the swap phase reads."""

    __slots__ = ("slot", "score")

    def __init__(self, slot: int, score: int) -> None:
        self.slot = slot
        self.score = score


def _sweep_worker(pipes, index: int, share: list[Replica], betas: list[float],
                  target: TruthTable, move_weights, debug_checks: bool) -> None:
    """Body of sweep worker ``index``.  For each (slots, threshold) message
    it sweeps its share of the replicas at those slots and replies with their
    stats, or with the exception that stopped it and its traceback.  It
    returns when the parent closes its end of the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    conn = pipes[index][1]
    # hold no other pipe end, so each side sees EOF when the other exits
    for j, (parent_end, child_end) in enumerate(pipes):
        parent_end.close()
        if j != index:
            child_end.close()
    while True:
        try:
            slots, threshold = conn.recv()
        except EOFError:
            return
        try:
            stats = []
            for replica, slot in zip(share, slots):
                replica.slot = slot
                stats.append(sweep(replica, betas[slot], threshold,
                                   move_weights=move_weights))
            if debug_checks:
                _check_replicas(share, target)
        except Exception as exc:
            conn.send((exc, traceback.format_exc()))
            return
        conn.send(stats)


class _SweepWorkers:
    """Sweeps the replicas in ``shares`` fixed shares, one per process.

    Share j holds replicas j, j + shares, j + 2 * shares, ... by identity
    (their slots at the start of the run), with their RNG streams.  Worker
    processes forked from the caller own every share but the last, which the
    caller sweeps itself; in ``replicas`` a ``_Remote`` stands in for each
    replica a worker owns from then on.  ``close`` ends the workers.
    """

    def __init__(self, replicas: list[Replica], betas: list[float],
                 shares: int, context, target: TruthTable, move_weights,
                 debug_checks: bool) -> None:
        self.move_weights = move_weights
        self.local = replicas[shares - 1::shares]
        pipes = [context.Pipe() for _ in range(shares - 1)]
        self.conns = [parent_end for parent_end, _ in pipes]
        self.procs: list = []
        try:
            for w in range(shares - 1):
                proc = context.Process(
                    target=_sweep_worker, daemon=True,
                    args=(pipes, w, replicas[w::shares], betas, target,
                          move_weights, debug_checks))
                proc.start()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            for _, child_end in pipes:
                child_end.close()
        self.remotes = []
        for w in range(shares - 1):
            share = [_Remote(r.slot, r.score) for r in replicas[w::shares]]
            for remote in share:
                replicas[remote.slot] = remote
            self.remotes.append(share)

    def sweep_all(self, replicas: list, betas: list[float],
                  threshold: int) -> list[SweepStats]:
        """One sweep of every replica; the stats in slot order."""
        for conn, share in zip(self.conns, self.remotes):
            conn.send(([r.slot for r in share], threshold))
        stats: list = [None] * len(replicas)
        for replica in self.local:
            stats[replica.slot] = sweep(replica, betas[replica.slot], threshold,
                                        move_weights=self.move_weights)
        for conn, share in zip(self.conns, self.remotes):
            try:
                reply = conn.recv()
            except EOFError:
                raise RuntimeError("a sweep worker process exited") from None
            if isinstance(reply, tuple):
                exc, text = reply
                raise exc from RuntimeError(f"in a sweep worker:\n{text}")
            for remote, st in zip(share, reply):
                remote.score = st.score
                stats[remote.slot] = st
        return stats

    def close(self) -> None:
        """End every worker, busy or idle, and wait for it to exit."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()


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

    ``threads`` is the number of processes that sweep.  With 1, every sweep
    runs on the calling thread.  With k > 1, after building the replicas,
    ``run`` forks min(k, M) - 1 worker processes (M the ladder size); each
    owns a fixed share of the replicas and their RNG streams, and the caller
    sweeps the last share itself (``_SweepWorkers``).  Each repetition the
    caller sends every worker its replicas' slots and reads back their sweep
    stats; only the caller runs the swap phase.  The sweeps of a repetition
    are independent, so the result is the same for every ``threads``.  The
    workers are forked (the ``fork`` start method, named explicitly), so they
    inherit the replicas; where the platform has no ``fork``, and so in any
    case on Windows, the run is serial.  As with any fork, call it with
    threads > 1 only from a process that runs no other threads.  Workers
    ignore SIGINT; an exception in one is raised again in the caller with
    its type and message, and every worker has exited when ``run`` returns
    or raises.

    Deterministic for a fixed (target, constraints, ladder, stop, seed,
    move_weights), as long as no wall-clock stop or interrupt cuts the run
    short.  Raises ValueError on move weights that ``check_move_weights``
    rejects, and on threads < 1.
    """
    move_weights = check_move_weights(move_weights)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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
    local = replicas  # the replicas this process sweeps
    shares = min(threads, m)
    workers = None

    def sweep_all(replicas, betas, threshold):
        return [sweep(replica, betas[replica.slot], threshold,
                      move_weights=move_weights) for replica in replicas]

    try:
        if shares > 1:
            # imported here, so that a serial run does not load it
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                workers = _SweepWorkers(replicas, betas, shares,
                                        multiprocessing.get_context("fork"),
                                        target, move_weights, debug_checks)
                local, sweep_all = workers.local, workers.sweep_all
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
            stats = sweep_all(replicas, betas, threshold)

            for slot, st in enumerate(stats):
                slot_proposed[slot] += st.proposed
                slot_accepted[slot] += st.accepted
                if st.best_exact is not None:
                    consider(*st.best_exact)
                # No consider for an exact replica: it is in its last
                # accepted state, which the sweep snapshotted if q <
                # threshold (consider drops any other q), or in a state an
                # earlier pass covered.
                if st.error and (best_score is None or st.score < best_score):
                    best_score = st.score
            record_improvement(repetition)

            swap_phase(replicas, ladder, repetition & 1,
                       derived_rng(seed, "swap", repetition))
            if swap_note_interval and repetition % swap_note_interval == 0:
                swap_rate_log.append((repetition, ladder.swap_rates()))
            if debug_checks:
                _check_replicas(local, target)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if workers is not None:
            workers.close()

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


DEFAULT_REPLICAS = 51  # ladder size when the configuration sets none
# estimated acceptance of the warm-up's uphill moves at the four anchors
ANCHOR_RATES = (0.99, 0.60, 0.01, 1e-6)
BETA_MAX = 100.0  # upper end of anchor_beta's bisection
TOLERANCE = 1e-6  # interval width at which that bisection stops


@dataclass
class CalibrationConfig:
    """Warm-up sweeps and ladder size (``DEFAULT_REPLICAS`` when None)."""

    warmup_sweeps: int = 200
    replicas: int | None = None

    def __post_init__(self) -> None:
        if self.replicas is not None and self.replicas < 4:
            raise ValueError("the two-segment ladder needs at least 4 "
                             f"replicas, got {self.replicas}")


def _mean_acceptance(deltas: Counter, beta: float) -> float:
    total = sum(deltas.values())
    return sum(count * math.exp(-beta * d) for d, count in deltas.items()) / total


def anchor_beta(deltas: Counter, rate: float) -> float:
    """Solve mean(exp(-beta * delta)) == rate for beta by bisection."""
    if not deltas:
        raise CalibrationError("no energy-increasing updates to calibrate on")
    if _mean_acceptance(deltas, BETA_MAX) > rate:
        raise CalibrationError(f"acceptance target {rate} unreachable below "
                               f"beta={BETA_MAX}")
    lo, hi = 0.0, BETA_MAX
    while hi - lo > TOLERANCE:
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
    observed uphill moves is roughly ``ANCHOR_RATES``; replicas are
    inserted linearly in beta between the middle anchors until the ladder
    reaches the configured size.
    """
    if not deltas:
        raise CalibrationError(
            "warm-up saw no energy-increasing updates; increase warmup_sweeps")
    b1, b2, bk, bl = (anchor_beta(deltas, r) for r in ANCHOR_RATES)
    if not b1 < b2 < bk < bl:
        raise CalibrationError(f"degenerate anchors {b1}, {b2}, {bk}, {bl}; "
                               "increase warmup_sweeps")
    m = config.replicas if config.replicas is not None else DEFAULT_REPLICAS
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
