"""ptsynth benchmark: parallel-tempering workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload maj9-search --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  ``--trace 0`` runs the workload untraced and reports the
end-to-end metrics.  ``--trace 1`` runs it untraced, then again with every
layer wrapped (see ``tracer.py``), and reports the per-layer metrics; on
maj7-solve it also repeats the untraced pass at ``--threads 1``.  Every
operation's output is re-verified with the independent evaluator in
``ptsynth.oracle`` and its determinism digest is compared across passes.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (per-operation digests, machine record, all
metrics) and, for traced runs, the span file are written under
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and the
metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

# Inverse-temperature sweeps attempt 5 updates per gate input: 15 per gate.
ATTEMPTS_PER_GATE = 15

# maj7-solve runs this fixed seed set (the first k of it, k set by
# --seconds).  Repetitions to reach q=7 are heavy-tailed (17 to 181 on these
# six), so a set drawn anew from each workload seed would spread far more
# than any useful regression bound; a fixed set makes solve_s_total compare
# like with like, which the digests confirm.  The workload seed only sets
# the order in which the seeds run.
MAJ7_SEEDS = (1, 2, 3, 4, 5, 6)
MAJ7_SECONDS_PER_SEED = 4
MAJ7_MAX_REPS = 1000


def _import_program():
    src = ROOT / "src"
    if not (src / "ptsynth" / "__init__.py").is_file():
        raise ImportError(f"no ptsynth sources under {src}")
    sys.path.insert(0, str(src))
    import ptsynth
    if Path(ptsynth.__file__).resolve().parent != (src / "ptsynth").resolve():
        raise ImportError(f"ptsynth imported from {ptsynth.__file__}, not {src}")
    from ptsynth import cli, engine, formats, moves, network, oracle
    from ptsynth.truthtable import majority_truth_table
    return SimpleNamespace(cli=cli, engine=engine, formats=formats, moves=moves,
                           network=network, oracle=oracle,
                           majority=majority_truth_table)


# ---------------------------------------------------------------- operations

class Probe:
    """What the entry-point hooks saw during one operation."""

    def __init__(self) -> None:
        self.calibrate_s = 0.0
        self.ladder_size = None
        self.run_s = 0.0
        self.report = None
        self.betas = None


class LibraryOp:
    """calibrate_ladder then run() for a fixed repetition count, threads=1."""

    def __init__(self, n: int, inverters: bool, p: int, seed: int, reps: int):
        self.n, self.inverters, self.p = n, inverters, p
        self.seed, self.reps = seed, reps
        self.label = f"seed{seed}"

    def execute(self, P, tag: str) -> dict:
        engine = P.engine
        target = P.majority(self.n)
        constraints = P.network.NetworkConstraints(
            self.p, inverters_allowed=self.inverters)
        ladder = engine.calibrate_ladder(target, constraints, seed=self.seed)
        report = engine.run(target, constraints, ladder,
                            engine.StopConditions(max_repetitions=self.reps),
                            seed=self.seed, threads=1)
        best = report.best_network
        net_text = P.formats.emit_network(best) if best is not None else ""
        trace_text = P.formats.emit_trace(report.trace, report.swap_rate_log)
        return {"exit": 0, "report": report, "net_text": net_text,
                "trace_text": trace_text}

    def verify(self, P, outcome: dict) -> str | None:
        report = outcome["report"]
        best = report.best_network
        if best is None:
            if report.best_q is not None:
                return "best_q reported without a best network"
            if report.best_score is None or report.best_score <= 0:
                return f"inexact run reported score {report.best_score}"
            return None
        return _verify_network(P, best, self.n, self.inverters, self.p,
                               report.best_q)

    def solved(self, P, outcome: dict) -> bool:
        q = outcome["report"].best_q
        return q is not None and q <= P.cli.BEST_KNOWN[self.n, self.inverters, False]


class CliOp:
    """One in-process ``ptsynth synth`` call for MAJ-7 without inverters."""

    n, inverters, p = 7, False, 10

    def __init__(self, seed: int, threads: int):
        self.seed, self.threads = seed, threads
        self.label = f"seed{seed}"

    def execute(self, P, tag: str) -> dict:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"maj7-seed{self.seed}-{tag}"
        net_path, trace_path = stem.with_suffix(".mig"), stem.with_suffix(".csv")
        for path in (net_path, trace_path):
            path.unlink(missing_ok=True)
        argv = ["synth", "--target", "maj:7", "--gates", "maj",
                "--max-nodes", str(self.p), "--seed", str(self.seed),
                "--threads", str(self.threads), "--max-reps", str(MAJ7_MAX_REPS),
                "--out", str(net_path), "--trace", str(trace_path)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = P.cli.main(argv)
        return {"exit": code, "net_text": _read(net_path),
                "trace_text": _read(trace_path), "log": sink.getvalue()}

    def verify(self, P, outcome: dict) -> str | None:
        code = outcome["exit"]
        report = outcome.get("report")
        if code not in (0, 3):
            return f"exit code {code}: {outcome['log'][-300:]!r}"
        if report is None:
            return "the CLI did not call engine.run"
        if code == 3:
            goal = P.cli.BEST_KNOWN[self.n, self.inverters, False]
            if report.best_q is not None and report.best_q <= goal:
                return "goal reached but exit code 3"
            return None
        if outcome["net_text"] is None or outcome["trace_text"] is None:
            return "network or trace file missing"
        if outcome["net_text"] != P.formats.emit_network(report.best_network):
            return "emitted network differs from the reported best network"
        try:
            parsed = P.formats.parse_network(outcome["net_text"])
        except ValueError as exc:
            return f"emitted network does not parse: {exc}"
        return _verify_network(P, parsed, self.n, self.inverters, self.p,
                               report.best_q)

    def solved(self, P, outcome: dict) -> bool:
        report = outcome.get("report")
        return outcome["exit"] == 0 and report is not None \
            and report.best_q is not None \
            and report.best_q <= P.cli.BEST_KNOWN[self.n, self.inverters, False]


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _verify_network(P, net, n: int, inverters: bool, p: int, best_q) -> str | None:
    network = P.network
    if net.n != n:
        return f"network has {net.n} inputs, expected {n}"
    error = P.oracle.exhaustive_error(net, P.majority(n))
    if error != 0:
        return f"oracle error {error}"
    checked = network.LogicNetwork(
        n, network.NetworkConstraints(p, inverters_allowed=inverters),
        [row[:] for row in net.codes], net.output_code)
    ok, why = network.is_valid(checked)
    if not ok:
        return f"invalid network: {why}"
    _, count = network.cleanup(net)
    if count != best_q:
        return f"cleanup gives {count} gates, best_q is {best_q}"
    return None


def _digest(outcome: dict, betas) -> str:
    """sha256 of the emitted network and trace, the repetition count, and the
    search statistics that depend on the whole RNG stream (so that runs which
    emit no network still differ when the stream changes)."""
    report = outcome.get("report")
    h = hashlib.sha256()
    for part in (outcome.get("net_text"), outcome.get("trace_text")):
        h.update((part if part is not None else "<missing>").encode())
        h.update(b"\0")
    if report is not None:
        state = (report.repetitions, report.best_q, report.best_score,
                 report.swap_rates, report.slot_acceptance, betas)
        h.update(repr(state).encode())
    return h.hexdigest()


# ----------------------------------------------------------------- workloads

def _derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _scaled(seconds: int, op_seconds: int, reps: int) -> tuple[int, int]:
    """(operations, repetitions each) filling about ``seconds``."""
    if seconds >= op_seconds:
        return seconds // op_seconds, reps
    return 1, max(2, reps * seconds // op_seconds)


def build_ops(workload: str, seed: int, seconds: int) -> list:
    if workload == "maj9-search":
        count, reps = _scaled(seconds, 5, 36)
        return [LibraryOp(9, True, 16, s, reps)
                for s in _derived_seeds(workload, seed, count)]
    if workload == "maj5-exact":
        count, reps = _scaled(seconds, 4, 40)
        return [LibraryOp(5, False, 8, s, reps)
                for s in _derived_seeds(workload, seed, count)]
    if workload == "maj7-solve":
        k = max(1, min(len(MAJ7_SEEDS), seconds // MAJ7_SECONDS_PER_SEED))
        order = list(MAJ7_SEEDS[:k])
        random.Random(f"{workload}:{seed}").shuffle(order)
        return [CliOp(s, threads=2) for s in order]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("maj9-search", "maj5-exact", "maj7-solve")


# --------------------------------------------------------------------- passes

def _install_entry_hooks(tracer: Tracer, P, probe_ref: list) -> None:
    """Hooks on the two entry points, one call each per operation."""
    engine = P.engine

    def after_calibrate(_token, _args, ladder, took, _counts):
        probe_ref[0].calibrate_s += took
        probe_ref[0].ladder_size = ladder.size
        probe_ref[0].betas = list(ladder.betas)

    def after_run(_token, _args, report, took, _counts):
        probe_ref[0].run_s += took
        probe_ref[0].report = report

    tracer.patch(engine, "calibrate_ladder", "engine.calibrate_ladder",
                 keep_span=True, post=after_calibrate)
    tracer.patch(engine, "run", "engine.run", keep_span=True, post=after_run)


def _install_layer_hooks(tracer: Tracer, P) -> None:
    engine, moves, network, cli = P.engine, P.moves, P.network, P.cli

    def undo_len(args):
        return len(args[3]) if len(args) > 3 and args[3] is not None else 0

    def after_recompute(before, args, _result, _took, counts):
        if len(args) > 3 and args[3] is not None:
            counts["cols_changed"] += len(args[3]) - before

    def after_sweep(cpu_start, _args, stats, took, counts):
        counts["sweep_wait_s"] += took - (time.thread_time() - cpu_start)
        counts["steps"] += stats.steps
        counts["proposed"] += stats.proposed
        counts["accepted"] += stats.accepted

    def after_swap(_token, args, swapped, _took, counts):
        _replicas, ladder, parity = args[0], args[1], args[2]
        counts["swap_attempts"] += len(range(parity, ladder.size - 1, 2))
        counts["swap_accepts"] += swapped

    tracer.patch(engine, "collect_uphill_deltas", "engine.collect_uphill_deltas",
                 keep_span=True)
    tracer.patch(engine, "sweep", "engine.sweep", keep_span=True,
                 pre=lambda args: time.thread_time(), post=after_sweep)
    tracer.patch(engine, "swap_phase", "engine.swap_phase", keep_span=True,
                 post=after_swap)
    tracer.patch(engine, "cleanup", "network.cleanup", keep_span=True)
    tracer.patch(engine, "evaluate_full", "network.evaluate_full", keep_span=True)
    tracer.patch(moves, "recompute_from", "network.recompute_from",
                 pre=undo_len, post=after_recompute)
    tracer.patch(moves, "cleaned_gate_count", "network.cleaned_gate_count")
    tracer.patch(network, "cleaned_gate_count", "network.cleaned_gate_count")
    tracer.patch(moves, "propose_reassign_one", "moves.propose_reassign_one")
    tracer.patch(moves, "replacement_pool", "moves.replacement_pool")
    tracer.patch(moves, "apply_proposal", "moves.apply_proposal")
    tracer.patch(moves, "revert_proposal", "moves.revert_proposal")
    tracer.patch(cli, "main", "cli.main", keep_span=True)

    # The parent's wait for a threaded sweep phase, so engine.run.other_s
    # can leave it out; map() is made eager so the wait falls inside it.
    base = engine.ThreadPoolExecutor
    eager_map = tracer.wrap("engine.pool_map",
                            lambda self, fn, *its: list(base.map(self, fn, *its)),
                            keep_span=True)
    tracer.replace(engine, "ThreadPoolExecutor",
                   type("TracedThreadPool", (base,), {"map": eager_map}))


def run_pass(P, ops: list, tag: str, layers: bool, threads: int | None = None):
    """Execute every operation once; returns (records, tracer summary)."""
    probe_ref = [Probe()]
    records = []
    with Tracer() as tracer:
        _install_entry_hooks(tracer, P, probe_ref)
        if layers:
            _install_layer_hooks(tracer, P)
        for op in ops:
            if threads is not None:
                op = CliOp(op.seed, threads)
            probe = probe_ref[0] = Probe()
            start = time.perf_counter()
            try:
                outcome = op.execute(P, tag)
                error = None
            except Exception:  # one failed operation must not end the run
                outcome = {"exit": None}
                error = traceback.format_exc()
            wall = time.perf_counter() - start
            outcome["report"] = probe.report
            records.append({"pass": tag, "op": op, "outcome": outcome,
                            "wall_s": wall, "probe": probe, "error": error})
        summary = tracer.summary()
    for rec in records:
        op, outcome = rec["op"], rec["outcome"]
        if rec["error"] is None:
            try:
                rec["error"] = op.verify(P, outcome)
            except Exception:
                rec["error"] = "verification crashed: " + traceback.format_exc()
        rec["solved"] = rec["error"] is None and op.solved(P, outcome)
        rec["digest"] = _digest(outcome, rec["probe"].betas)
        if rec["error"]:
            print(f"FAILED {tag} {op.label}: {rec['error']}", file=sys.stderr)
    return records, summary


# -------------------------------------------------------------------- metrics

def end_to_end(records: list, ops: list) -> dict:
    setups = [r["probe"].calibrate_s for r in records]
    walls = [r["wall_s"] for r in records]
    attempts = run_s = 0.0
    for rec, op in zip(records, ops):
        report = rec["outcome"].get("report")
        if report is not None:
            attempts += report.repetitions * report.replicas * ATTEMPTS_PER_GATE * op.p
        run_s += rec["probe"].run_s
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (attempts / run_s if run_s else 0.0, "1/s"),
        "solve_s_total": (sum(walls), "s"),
        "solve_s_p50": (statistics.median(walls), "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }


def outcome_fractions(records: list) -> dict:
    n = len(records)
    return {
        "solved_frac": (sum(r["solved"] for r in records) / n, "ratio"),
        "failed_frac": (sum(bool(r["error"]) for r in records) / n, "ratio"),
    }


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "s": "s", "wait_s": "s", "other_s": "s",
    "reps": "count", "cols_changed_per_call": "cols/call",
    "per_step": "calls/step", "accept_ratio": "ratio",
}


def per_layer(summary, records: list, overhead: float) -> dict:
    totals, child, counts, _spans = summary

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("network.recompute_from", "network.cleaned_gate_count",
                 "network.cleanup", "network.evaluate_full",
                 "moves.propose_reassign_one", "moves.replacement_pool",
                 "moves.apply_proposal", "moves.revert_proposal",
                 "engine.sweep", "engine.swap_phase", "cli.main"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = own(name)
    out["network.recompute_from.cols_changed_per_call"] = ratio(
        counts["cols_changed"], calls("network.recompute_from"))
    out["network.cleaned_gate_count.per_step"] = ratio(
        calls("network.cleaned_gate_count"), counts["steps"])
    out["moves.revert_ratio"] = ratio(calls("moves.revert_proposal"),
                                      calls("moves.apply_proposal"))
    out["engine.sweep.wait_s"] = counts["sweep_wait_s"]
    out["engine.sweep.accept_ratio"] = ratio(counts["accepted"], counts["proposed"])
    out["engine.swap_phase.accept_ratio"] = ratio(counts["swap_accepts"],
                                                  counts["swap_attempts"])
    run_s = total("engine.run")
    out["engine.run.reps"] = sum(r["outcome"]["report"].repetitions
                                 for r in records
                                 if r["outcome"].get("report") is not None)
    out["engine.run.s"] = run_s
    out["engine.run.other_s"] = run_s - sum(
        child.get(("engine.run", name), 0.0)
        for name in ("engine.sweep", "engine.pool_map", "engine.swap_phase",
                     "network.cleanup"))
    out["engine.calibrate_ladder.s"] = total("engine.calibrate_ladder")
    out["engine.collect_uphill_deltas.s"] = total("engine.collect_uphill_deltas")
    out["trace.overhead_ratio"] = overhead
    return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# -------------------------------------------------------------------- machine

def machine_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation()}


# ----------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _compare(name: str, base: list, other: list) -> list[str]:
    problems = []
    for a, b in zip(base, other):
        if a["digest"] != b["digest"] and not (a["error"] or b["error"]):
            b["error"] = f"{name} digest differs from the untraced pass"
            problems.append(f"{a['op'].label}: {name} digest mismatch")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        P = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed, args.seconds)
    machine = machine_record()

    base, _ = run_pass(P, ops, "untraced", layers=False)
    e2e = end_to_end(base, ops)
    records = list(base)
    problems: list[str] = []
    layer_metrics = None
    spans = []
    if args.trace:
        traced, summary = run_pass(P, ops, "traced", layers=True)
        problems += _compare("traced", base, traced)
        records += traced
        if args.workload == "maj7-solve":
            single, _ = run_pass(P, ops, "threads1", layers=False, threads=1)
            problems += _compare("threads-1", base, single)
            records += single
        overhead = sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in base)
        layer_metrics = per_layer(summary, traced, overhead)
        spans = summary[3]

    fractions = outcome_fractions(base)
    failed = sum(bool(r["error"]) for r in records)
    attempted = len(records)
    ladder_sizes = sorted({r["probe"].ladder_size for r in base
                           if r["probe"].ladder_size is not None})

    print(f"machine nproc={machine['nproc']} affinity={machine['affinity']} "
          f"cpu={machine['cpu_model']!r} python={machine['python']}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} operations={len(ops)} ladder_size={ladder_sizes}")
    for rec in base:
        report = rec["outcome"].get("report")
        reps = report.repetitions if report is not None else None
        q = report.best_q if report is not None else None
        print(f"op {rec['op'].label} reps={reps} best_q={q} "
              f"setup_s={rec['probe'].calibrate_s:.4f} wall_s={rec['wall_s']:.4f} "
              f"digest={rec['digest'][:16]} "
              f"{'ok' if not rec['error'] else 'FAILED'}")
    shown = dict(e2e)
    shown.update(fractions)
    if layer_metrics is not None:
        shown.update(layer_metrics)
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in problems:
        print(f"check {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "ladder_sizes": ladder_sizes,
        "operations": [
            {"pass": r["pass"], "label": r["op"].label, "wall_s": r["wall_s"],
             "setup_s": r["probe"].calibrate_s, "run_s": r["probe"].run_s,
             "reps": (r["outcome"]["report"].repetitions
                      if r["outcome"].get("report") is not None else None),
             "exit": r["outcome"].get("exit"), "solved": r["solved"],
             "digest": r["digest"], "error": r["error"]}
            for r in records],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "problems": problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report_doc, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            origin = spans[0][2]
            for name, thread, start, end, own in spans:
                handle.write(json.dumps({"name": name, "thread": thread,
                                         "start": start - origin,
                                         "end": end - origin,
                                         "self": own}) + "\n")

    chosen = layer_metrics if args.trace else e2e
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
