"""Parallel tempering search over logic networks.

Runs M replicas at calibrated inverse temperatures.  A repetition is one
Metropolis sweep per replica (five update attempts per gate input) followed
by one odd-even swap phase between neighboring temperature slots.  The best
exact network found, after cleanup, is tracked across the whole run.  A
``LadderState`` holds the run and makes each repetition; its sweeps are
independent, so ``run`` can spread them over worker processes (``threads``).
"""

from __future__ import annotations

import hashlib
import math
import random
import signal
import time
import traceback
from bisect import bisect_left
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
    """Strictly increasing, finite, non-negative inverse temperatures."""

    betas: list[float]

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

    @property
    def size(self) -> int:
        return len(self.betas)


class Replica:
    """One network with its cache and its own RNG stream; ``LadderState``
    keeps which slot it is at (see ``swap_phase``)."""

    __slots__ = ("network", "cache", "rng")

    def __init__(self, network: LogicNetwork, cache,
                 rng: random.Random) -> None:
        self.network = network
        self.cache = cache
        self.rng = rng

    @property
    def score(self) -> int:
        return self.cache.score


@dataclass
class SweepStats:
    """What one sweep did, and the replica's score after it (positive
    exactly while the network is inexact, when it is the error)."""

    steps: int
    proposed: int
    accepted: int
    score: int
    uphill_deltas: list[int] | None = None
    best_exact: tuple[int, list[list[int]], int] | None = None


def sweep(replica: Replica, beta: float, q_threshold: int = 0,
          collect_deltas: bool = False,
          move_weights=(1.0, 0.0)) -> SweepStats:
    """Five Metropolis attempts per gate input, gate-major and slot-minor.

    ``move_weights`` weighs reassign-one against swap-between-gates.  With
    swap weighted, each attempt draws its kind first (``random() * total``,
    a swap from ``w1`` up).  Either kind proposes, writes and scores its
    attempt; then one Metropolis step accepts it with probability
    min(1, e^(-beta delta)) or undoes it.  The slot's old code ``cur`` (a
    swap's partner literal) undoes gate g for either kind; a swap also
    restores its partner and XORs back the changes its pass made.

    The sweep takes the output cone (``output_cone``) once.  A gate's cone
    bit depends only on the operands of later gates, and every literal a
    move at gate g writes or overwrites names a source below gate g (a
    swap's partner literal must be legal at gate g too).  So no move changes
    the cone bit of the gate it is made at or of any gate above it: the
    cached bits of the visited gate and of every gate above it are exact,
    and those below it may be stale.  A reassign-one move at a gate outside
    the cone keeps both error and score, so it is accepted with delta 0 and
    only its code is written.  At a cone gate it is scored from gate g's
    output cofactors (``output_cofactors``, taken on first use, at gate g's
    column as the visit began or the last accepted swap left it), which
    evaluate the later cone gates that read gate g once.  A swap, which
    also rewires a gate g2, is evaluated in place by ``network.propagate``:
    gates g and g2 and the gates that read them, from ``min(g, g2)``,
    skipping the gates at or above g outside the cone.  If it keeps the
    network exact and neither gate is in the cone, it keeps the score too;
    gate g2's cached cone bit says so when g2 > g, and for g2 < g the
    swapped codes are walked.

    Each attempt is one pass of the slot's loop, and the slot's code in
    ``codes`` is always its current literal.  A slot takes its replacement
    pool and residuals on its first reassign-one attempt, and again after
    an accepted swap.  The pool is the prefix of the slot's shared
    ``moves.source_pools`` list below gate g's own codes, found by
    ``bisect_left``; nothing is copied.  The attempt draws an index into it
    by the bounded ``getrandbits`` loop of ``randrange(size)``, inline:
    ``getrandbits(k)`` until the result is below ``size``, with
    ``k = size.bit_length()``, so the draws and the RNG stream are those of
    ``randrange(size)``.  As in ``moves.propose_reassign_one`` it redraws
    while the code is the current one, and skips the attempt without
    drawing when the pool holds fewer than two codes.  Outside the cone an
    attempt is only that draw.  At a cone gate, with the slot's other
    operands b and c, gate g's column is ``(b & c) ^ (a & (b ^ c))`` for the
    new operand a, so with ``free = d & (b ^ c)`` and
    ``r0 = e0 ^ (d & b & c)`` its error is ``(r0 ^ (a & free)).bit_count()``;
    a complemented literal's column is ``col ^ mask``, which flips ``free``,
    so the attempt reads ``r0`` or ``r1 = r0 ^ free`` and scores with three
    operations on columns.

    One freshness invariant serves both move kinds: when the sweep visits
    gate g, and after each swap it accepts there, the columns of every gate
    below g and of every cone gate are fresh; the cone is closed under
    operand edges, so a cone gate reads no gate outside it.  Within the
    visit nothing else reads gate g's column, so a reassign-one move writes
    only its code, and the columns of gate g and its cone readers keep the
    values the cofactors were taken at.  As the sweep leaves the gate, it
    rebuilds gate g's column if the gate is outside the cone or a move
    there was accepted.  If gate g is in the cone and its column flips by
    ``flip``, each later cone gate h that reads gate g flips by
    ``dh & flip`` (``dh`` from the cofactors).  So the cache is fresh again
    when the sweep ends; the error and score live in locals until then.

    The first visited exact network with the fewest cleaned gates below
    ``q_threshold`` (0 by default, which admits none) is snapshotted into
    the returned stats: one bound, ``keep``, starts at ``q_threshold`` or
    ``budget + 1``, whichever is lower, so no inexact state passes it, and
    drops to each snapshot's count.  The sweep checks its start state once
    and then each state its Metropolis step accepts.
    """
    net, cache, rng = replica.network, replica.cache, replica.rng
    codes = net.codes
    cols, mask = cache.cols, cache.mask
    budget = net.constraints.max_nodes
    out = net.output_code
    w1, w2 = move_weights
    total = w1 + w2
    # drawn as randrange(size) does (_randbelow_with_getrandbits)
    getrandbits = rng.getrandbits
    random, exp = rng.random, math.exp
    error, score = cache.error, cache.score
    deltas: list[int] | None = [] if collect_deltas else None
    proposed = accepted = 0
    edits = None  # a proposed swap, until the Metropolis step decides it
    best: tuple[int, list[list[int]], int] | None = None
    keep = min(q_threshold, budget + 1)
    if score + budget < keep:
        keep = score + budget
        best = (keep, [r[:] for r in codes], out)
    base = PI_BASE + net.n
    pools = moves.source_pools(net)
    cone = output_cone(net)
    for g, row in enumerate(codes):
        hid = base + g
        top = hid << 1  # a slot's pool is its source_pools list below this
        inside = cone >> g & 1
        e0 = None  # gate g's output cofactors, computed on first use
        accepted_before = accepted
        for s in range(3):
            pool = None  # the slot's pool and residuals, taken on first use
            for _ in range(5):
                if w2 and random() * total >= w1:
                    edits = moves.propose_swap_between_gates(net, rng, g, s, pools)
                    if edits is None:
                        continue
                    (_, _, new), (g2, s2, cur) = edits
                    row[s], codes[g2][s2] = new, cur
                    evaluated = network.propagate(
                        codes, cols, mask, base, min(g, g2), 0,
                        1 << g | 1 << g2, ~cone >> g << g)
                    new_error = (cols[out >> 1] ^ (mask if out & 1 else 0)
                                 ^ cache.target_bits).bit_count()
                    if new_error:
                        new_score = new_error
                    # Both gates outside the cone: as for a reassign-one
                    # edit there.  With gate g outside, gate g2 is outside
                    # the cone before the swap exactly when it is outside
                    # it after, and the cone is then the same.  Gate g2's
                    # cached bit is exact above gate g; below it the
                    # swapped codes are walked.
                    elif not (error or inside
                              or (cone if g2 > g else output_cone(net))
                              >> g2 & 1):
                        new_score = score
                    else:
                        new_score = network.cleaned_gate_count(net) - budget
                else:
                    if pool is None:
                        cb, cc = row[s - 2], row[s - 1]
                        pool = pools[cb >> 1][cc >> 1]
                        size = bisect_left(pool, top)
                        k = size.bit_length()
                        if inside and size > 1:
                            if e0 is None:
                                e0, d, readers = output_cofactors(
                                    net, cache, g, cone)
                            b = cols[cb >> 1] ^ (mask if cb & 1 else 0)
                            c = cols[cc >> 1] ^ (mask if cc & 1 else 0)
                            free = d & (b ^ c)
                            r0 = e0 ^ (d & b & c)
                            r1 = r0 ^ free
                    # the current literal is in the pool: size - 1 choices
                    if size < 2:
                        continue
                    cur = row[s]
                    while True:
                        j = getrandbits(k)
                        while j >= size:
                            j = getrandbits(k)
                        new = pool[j]
                        if new != cur:
                            break
                    # the slot holds the drawn code while it is scored, as
                    # the cleaned count reads it
                    row[s] = new
                    if not inside:
                        # Outside the cone the output does not read gate g:
                        # error and score stand.  The cleaned count stands
                        # too: cleanup's one pass in gate order rewrites
                        # each gate from its operands' final codes, so every
                        # live gate ends irreducible with a distinct key,
                        # the count is the number of distinct hash-consed
                        # nodes reachable from the output, and a node's
                        # hash-consed form depends only on its own fan-in
                        # cone, that is, only on operands of cone gates.  So
                        # the attempt is accepted with delta 0, and has no
                        # state to snapshot.
                        proposed += 1
                        accepted += 1
                        continue
                    new_error = ((r1 if new & 1 else r0)
                                 ^ (cols[new >> 1] & free)).bit_count()
                    # called through the module, so a wrapper there sees it
                    new_score = (new_error
                                 or network.cleaned_gate_count(net) - budget)
                proposed += 1
                delta = new_score - score
                if delta > 0:
                    if deltas is not None:
                        deltas.append(delta)
                    if not random() < exp(-beta * delta):  # accept_uphill
                        row[s] = cur
                        if edits:
                            codes[g2][s2] = new
                            for h, flip in evaluated:
                                cols[base + h] ^= flip
                            edits = None
                        continue
                if edits:
                    e0 = pool = edits = None
                error, score = new_error, new_score
                accepted += 1
                if score + budget < keep:
                    keep = score + budget
                    best = (keep, [r[:] for r in codes], out)
        if not inside or accepted != accepted_before:
            y = network._gate_column(cols, mask, row)
            flip = cols[hid] ^ y
            cols[hid] = y
            if inside and flip:
                # only an accepted reassign-one move, scored after the
                # cofactors were taken, changes a cone gate's column here
                for h, dh in readers:
                    cols[base + h] ^= dh & flip
    cache.error, cache.score = error, score
    return SweepStats(15 * len(codes), proposed, accepted, score, deltas,
                      best)


def swap_phase(order: list[int], ladder: TemperatureLadder, parity: int,
               rng: random.Random, counts: list[list[int]],
               scores: list[int]) -> int:
    """Attempt swaps between each adjacent slot pair of the given parity.

    ``order[i]`` is the identity of the replica at slot i, and ``scores[r]``
    replica r's score; a swap exchanges two entries of ``order``.
    ``counts[i]`` is pair i's ``[attempts, accepts]``; each attempt adds 1
    to the first and each accepted swap to the second.  Returns the number
    of swaps made."""
    betas = ladder.betas
    swapped = 0
    for i in range(parity, ladder.size - 1, 2):
        counts[i][0] += 1
        a, b = order[i], order[i + 1]
        exponent = (betas[i] - betas[i + 1]) * (scores[a] - scores[b])
        if exponent >= 0 or rng.random() < math.exp(exponent):
            order[i], order[i + 1] = b, a
            counts[i][1] += 1
            swapped += 1
    return swapped


def _rates(counts) -> list[float]:
    """``hits / tries`` for each (tries, hits) pair, 0.0 where never tried."""
    return [hits / tries if tries else 0.0 for tries, hits in counts]


def check_move_weights(weights) -> tuple[float, float]:
    """The move mix (reassign-one, swap) as two floats.  Raises ValueError
    unless there are two non-negative weights, not both 0, with a finite
    sum."""
    parts = tuple(float(w) for w in weights)
    if len(parts) != 2 or min(parts) < 0 or not 0 < sum(parts) < math.inf:
        raise ValueError("move weights need 2 finite non-negative values, "
                         "not both 0")
    return parts


def _sweep_worker(workers: _SweepWorkers, pipes, index: int) -> None:
    """Body of sweep worker ``index``, forked from ``workers``.  For each
    (slots, threshold) message it sweeps share ``index`` at those slots and
    replies with the stats, or with the exception that stopped it and its
    traceback.  It returns when the parent closes its end of the pipe."""
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
            stats = workers.sweep_share(index, slots, threshold)
        except Exception as exc:
            conn.send((exc, traceback.format_exc()))
            return
        conn.send(stats)


class _SweepWorkers:
    """Sweeps the replicas in ``shares = min(threads, M)`` fixed shares, one
    per process (M the number of replicas).

    Share j holds the replicas whose identity, their index in ``replicas``,
    is j, j + shares, j + 2 * shares, ..., so its slots and stats are the
    slice ``[j::shares]`` of a list by identity.  Worker processes forked
    from the caller own every share but the last, with its RNG streams; the
    caller sweeps the last share itself and reads its copies of the others
    no more.  Every sweep draws from the ``move_weights`` mix and reads and
    updates only its replica's cache, so the workers need no target.
    ``close`` ends the workers.  With one share, or where the platform has
    no ``fork``, no process is forked: the caller sweeps every replica and
    ``close`` has nothing to end.
    """

    def __init__(self, replicas: list[Replica], betas: list[float],
                 threads: int, move_weights) -> None:
        shares = min(threads, len(replicas))
        if shares > 1:
            # imported here, so that a serial run does not load it
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                shares = 1
        self.replicas, self.betas, self.shares = replicas, betas, shares
        self.move_weights = move_weights
        pipes = [context.Pipe() for _ in range(shares - 1)]
        self.conns = [parent_end for parent_end, _ in pipes]
        self.procs: list = []
        try:
            for w in range(shares - 1):
                proc = context.Process(target=_sweep_worker, daemon=True,
                                       args=(self, pipes, w))
                proc.start()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            for _, child_end in pipes:
                child_end.close()

    def sweep_share(self, j: int, slots: list[int],
                    threshold: int) -> list[SweepStats]:
        """Sweep share j at ``slots`` and return its stats, in identity
        order."""
        return [sweep(self.replicas[r], self.betas[slot], threshold,
                      move_weights=self.move_weights)
                for r, slot in zip(range(j, len(self.replicas), self.shares),
                                   slots)]

    def sweep_all(self, slot_of: list[int],
                  threshold: int) -> list[SweepStats]:
        """One sweep of every replica, replica r at slot ``slot_of[r]``; the
        stats by identity."""
        shares = self.shares
        for j, conn in enumerate(self.conns):
            conn.send((slot_of[j::shares], threshold))
        stats: list = [None] * len(slot_of)
        j = shares - 1
        stats[j::shares] = self.sweep_share(j, slot_of[j::shares], threshold)
        for j, conn in enumerate(self.conns):
            try:
                reply = conn.recv()
            except EOFError:
                raise RuntimeError("a sweep worker process exited") from None
            if isinstance(reply, tuple):
                exc, text = reply
                raise exc from RuntimeError(f"in a sweep worker:\n{text}")
            stats[j::shares] = reply
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
    # seconds since the run started: a measurement, not part of the result
    elapsed_seconds: float = field(compare=False)


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


SWAP_NOTE_INTERVAL = 1000  # repetitions between swap-rate notes in a report


class LadderState:
    """A run's state between repetitions, which ``step`` advances by one
    and ``report`` reads out.  Replica i draws from ``derived_rng(seed,
    "replica", i)`` and is known by that identity: ``order[slot]`` is the
    replica at each slot, which the swap phase permutes, and ``scores[r]``
    replica r's score after its last sweep.  The sweeps' caches are trusted;
    ``evaluate_full`` gives the fresh cache each must equal after a sweep.
    """

    def __init__(self, target: TruthTable, constraints: NetworkConstraints,
                 ladder: TemperatureLadder, seed=0) -> None:
        self.start = time.perf_counter()
        self.target, self.constraints, self.ladder = target, constraints, ladder
        self.seed = seed
        m = ladder.size
        self.replicas = []
        for i in range(m):
            rng = derived_rng(seed, "replica", i)
            net = random_network(target.n, constraints, rng)
            self.replicas.append(Replica(net, evaluate_full(net, target), rng))
        self.order = list(range(m))
        self.scores = [replica.score for replica in self.replicas]
        self.swap_counts = [[0, 0] for _ in range(m - 1)]  # [attempts, accepts]
        self.slot_proposed, self.slot_accepted = [0] * m, [0] * m
        self.best_net: LogicNetwork | None = None
        self.best_q: int | None = None
        self.best_score: int | None = None
        self.trace: list[TraceRow] = []
        self.swap_rate_log: list[tuple[int, list[float]]] = []
        self.repetition = 0
        for replica in self.replicas:
            if replica.cache.error == 0:
                self.consider(replica.score + constraints.max_nodes,
                              replica.network.codes, replica.network.output_code)
        self._record_improvement()

    def consider(self, q: int, codes: list[list[int]], out_code: int) -> None:
        """Keep the cleaned network if its q beats the best."""
        if self.best_q is not None and q >= self.best_q:
            return
        cleaned, count = cleanup(LogicNetwork(self.target.n, self.constraints,
                                              [row[:] for row in codes], out_code))
        if count != q:
            raise RuntimeError(f"cleanup counted {count} gates, the cached "
                               f"score implies {q}")
        self.best_q, self.best_net = q, cleaned
        self.best_score = q - self.constraints.max_nodes

    def _record_improvement(self) -> None:
        # one trace row per repetition, taken after all of its updates
        best_q = self.best_q
        if best_q is not None and (not self.trace or best_q < self.trace[-1].best_q):
            self.trace.append(TraceRow(self.repetition, best_q, self.best_score,
                                       time.perf_counter() - self.start))

    def step(self, workers: _SweepWorkers) -> None:
        """One repetition: ``workers`` sweep every replica at its slot, the
        stats are read in slot order, then the swap phase runs."""
        self.repetition += 1
        order = self.order
        threshold = (self.best_q if self.best_q is not None
                     else self.constraints.max_nodes + 1)
        # slot_of[r]: replica r's slot, the inverse permutation of order
        stats = workers.sweep_all(sorted(range(len(order)), key=order.__getitem__),
                                  threshold)
        self.scores = [st.score for st in stats]  # by identity, as stats
        for slot, r in enumerate(order):
            st = stats[r]
            self.slot_proposed[slot] += st.proposed
            self.slot_accepted[slot] += st.accepted
            if st.best_exact is not None:
                self.consider(*st.best_exact)
            # No consider for an exact replica: it is in its last accepted
            # state, which the sweep snapshotted if q < threshold (consider
            # drops any other q), or in a state an earlier pass covered.
            if st.score > 0 and (self.best_score is None
                                 or st.score < self.best_score):
                self.best_score = st.score
        self._record_improvement()
        swap_phase(order, self.ladder, self.repetition & 1,
                   derived_rng(self.seed, "swap", self.repetition),
                   self.swap_counts, self.scores)
        if self.repetition % SWAP_NOTE_INTERVAL == 0:
            self.swap_rate_log.append((self.repetition, _rates(self.swap_counts)))

    def report(self, interrupted: bool = False) -> SynthesisReport:
        return SynthesisReport(
            best_network=self.best_net, best_q=self.best_q,
            best_score=self.best_score, repetitions=self.repetition,
            wall_time=time.perf_counter() - self.start,
            swap_rates=_rates(self.swap_counts), trace=list(self.trace),
            slot_acceptance=_rates(zip(self.slot_proposed, self.slot_accepted)),
            swap_rate_log=list(self.swap_rate_log), replicas=self.ladder.size,
            interrupted=interrupted)


def run(target: TruthTable, constraints: NetworkConstraints,
        ladder: TemperatureLadder, stop: StopConditions | None = None,
        seed=0, threads: int = 1, move_weights=(1.0, 0.0)) -> SynthesisReport:
    """Full parallel-tempering synthesis run: a ``LadderState`` stepped
    until a stop condition holds at a repetition boundary.  ``run`` does not
    modify ``ladder``.  ``move_weights`` is the (reassign-one, swap) mix
    every sweep draws its attempts from (see ``sweep``).  Each pair's swap
    rate, accepts over attempts (0.0 if never tried), is reported in
    ``swap_rates`` and every ``SWAP_NOTE_INTERVAL`` repetitions in
    ``swap_rate_log``.

    ``threads`` is the number of processes that sweep.  With 1, every sweep
    runs on the calling thread.  With k > 1, after building the replicas,
    ``run`` forks min(k, M) - 1 worker processes (M the ladder size); each
    owns a fixed share of the replicas and their RNG streams, and the caller
    sweeps the last share itself (``_SweepWorkers``).  Each repetition the
    caller sends every worker its replicas' slots and reads back their sweep
    stats; only the caller holds the state and runs the swap phase.  The
    sweeps of a repetition are independent, so the result is the same for
    every ``threads``.  The workers are forked (the ``fork`` start
    method, named explicitly), so they inherit the replicas; where the
    platform has no ``fork``, and so in any case on Windows, the run is
    serial.  As with any fork, call it with threads > 1 only from a process
    that runs no other threads.  Workers ignore SIGINT; an exception in one
    is raised again in the caller with its type and message, and every
    worker has exited when ``run`` returns or raises.

    Apart from the measured ``wall_time`` and trace rows'
    ``elapsed_seconds``, deterministic for a fixed (target, constraints,
    ladder, stop, seed, move_weights), as long as no wall-clock stop or
    interrupt cuts the run short.  Raises ValueError on move weights that
    ``check_move_weights`` rejects, and on threads < 1.
    """
    move_weights = check_move_weights(move_weights)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if stop is None:
        stop = StopConditions()
    state = LadderState(target, constraints, ladder, seed)
    interrupted = False
    workers = None
    try:
        workers = _SweepWorkers(state.replicas, ladder.betas, threads, move_weights)
        while not (stop.score_goal is not None and state.best_score is not None
                   and state.best_score <= stop.score_goal
                   or stop.max_repetitions is not None
                   and state.repetition >= stop.max_repetitions
                   or stop.time_limit is not None
                   and time.perf_counter() - state.start >= stop.time_limit):
            state.step(workers)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if workers is not None:
            workers.close()
    return state.report(interrupted)


DEFAULT_REPLICAS = 51  # ladder size when the caller sets none
WARMUP_SWEEPS = 200  # sweeps of the calibration warm-up
# estimated acceptance of the warm-up's uphill moves at the four anchors
ANCHOR_RATES = (0.99, 0.60, 0.01, 1e-6)
BETA_MAX = 100.0  # upper end of anchor_beta's bisection
TOLERANCE = 1e-6  # interval width at which that bisection stops


def check_replica_count(replicas: int) -> int:
    """The ladder size, unchanged.  Raises ValueError below 4, the fewest
    the two-segment ladder of ``calibrate_ladder`` can hold."""
    if replicas < 4:
        raise ValueError("the two-segment ladder needs at least 4 "
                         f"replicas, got {replicas}")
    return replicas


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
                          rng: random.Random) -> Counter:
    """Infinite-temperature random walk of ``WARMUP_SWEEPS`` sweeps,
    recording every uphill score delta."""
    net = random_network(target.n, constraints, rng)
    replica = Replica(net, evaluate_full(net, target), rng)
    seen: Counter = Counter()
    for _ in range(WARMUP_SWEEPS):
        stats = sweep(replica, 0.0, collect_deltas=True)
        seen.update(stats.uphill_deltas)
    return seen


def calibrate_ladder(target: TruthTable, constraints: NetworkConstraints,
                     seed=0, replicas: int = DEFAULT_REPLICAS) -> TemperatureLadder:
    """Build the two-segment linear-in-beta ladder from a warm-up.

    The warm-up (``collect_uphill_deltas``) records the uphill deltas of a
    walk at infinite temperature.  Four anchor temperatures are chosen so
    the estimated acceptance of those moves is roughly ``ANCHOR_RATES``;
    replicas are inserted linearly in beta between the middle anchors until
    the ladder holds ``replicas`` temperatures.  Raises ValueError, before
    any warm-up sweep, on a ladder size that ``check_replica_count``
    rejects, and CalibrationError if the warm-up saw no uphill move or its
    anchors do not increase.
    """
    check_replica_count(replicas)
    deltas = collect_uphill_deltas(target, constraints,
                                   derived_rng(seed, "calibrate"))
    b1, b2, bk, bl = (anchor_beta(deltas, r) for r in ANCHOR_RATES)
    if not b1 < b2 < bk < bl:
        raise CalibrationError(f"degenerate anchors {b1}, {b2}, {bk}, {bl}")
    interior = replicas - 2
    a = round(interior * (bk - b2) / (bl - b2))
    a = max(1, min(interior - 1, a))
    b = interior - a
    betas = [b1]
    betas += [b2 + (bk - b2) * i / a for i in range(a + 1)]
    betas += [bk + (bl - bk) * i / b for i in range(1, b + 1)]
    return TemperatureLadder(betas)

