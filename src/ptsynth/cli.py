"""Command-line interface: synth, verify, simplify, calibrate, bench.

Exit codes: 0 success, 2 usage or input-parse failure, 3 goal not reached
or a degenerate or interrupted calibration, 4 I/O failure (a closed stdout
included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

from . import engine, formats
from .network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    cleanup,
    evaluate_full,
)
from .truthtable import (
    TruthTable,
    TruthTableError,
    majority_truth_table,
    parse_truth_table_file,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_GOAL = 3
EXIT_IO = 4

# default node budget p by (n, inverters_allowed); from n=9 the published one
DEFAULT_MAX_NODES = {
    (3, True): 2, (3, False): 2, (5, True): 8, (5, False): 8,
    (7, True): 10, (7, False): 10,
    (9, True): 16, (9, False): 17,
    (11, True): 25, (11, False): 31,
    (13, True): 35, (13, False): 44,
}

# best published gate counts, by (n, inverters_allowed, leafy)
BEST_KNOWN = {
    (3, True, False): 1, (5, True, False): 4, (7, True, False): 7,
    (9, True, False): 12, (11, True, False): 16, (13, True, False): 24,
    (3, False, False): 1, (5, False, False): 4, (7, False, False): 7,
    (9, False, False): 13, (11, False, False): 20, (13, False, False): 28,
    (9, True, True): 13, (9, False, True): 14,
}


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from None


def _check_writable(path: str) -> None:
    """Exit 4 now, not after a search, if ``path`` names a directory or lies
    in one that does not exist.  Nothing is created."""
    if os.path.isdir(path):
        raise CliError(f"cannot write {path}: is a directory", EXIT_IO)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise CliError(f"cannot write {path}: no directory {folder}", EXIT_IO)


def _load_target(label: str) -> TruthTable:
    if label.startswith("maj:"):
        try:
            n = int(label.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad target {label!r}", EXIT_USAGE) from None
        try:
            return majority_truth_table(n)
        except TruthTableError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    text = _read_text(label)
    try:
        return parse_truth_table_file(text)
    except TruthTableError as exc:
        raise CliError(f"{label}: {exc}", EXIT_USAGE) from None


def _load_network(path: str) -> LogicNetwork:
    try:
        return formats.parse_network(_read_text(path))
    except formats.NetworkParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USAGE) from None


def _constraints(args, target: TruthTable) -> NetworkConstraints:
    inverters = args.gates == "maj-inv"
    max_nodes = args.max_nodes
    if max_nodes is None:
        if args.target.startswith("maj:"):
            max_nodes = DEFAULT_MAX_NODES.get((target.n, inverters))
        if max_nodes is None:
            raise CliError("--max-nodes is required for this target", EXIT_USAGE)
    try:
        return NetworkConstraints(max_nodes=max_nodes,
                                  inverters_allowed=inverters, leafy=args.leafy)
    except ValueError as exc:
        raise CliError(f"--max-nodes {max_nodes}: {exc}", EXIT_USAGE) from None


def _replicas(args) -> int:
    """--replicas, ``engine.DEFAULT_REPLICAS`` when unset; checked before
    any warm-up sweep."""
    replicas = engine.DEFAULT_REPLICAS if args.replicas is None else args.replicas
    try:
        return engine.check_replica_count(replicas)
    except ValueError as exc:
        raise CliError(f"--replicas: {exc}", EXIT_USAGE) from None


def _score_goal(args, target: TruthTable,
                constraints: NetworkConstraints) -> int | None:
    if args.score_goal is not None:
        return args.score_goal
    if args.target.startswith("maj:"):
        best = BEST_KNOWN.get((target.n, constraints.inverters_allowed,
                               constraints.leafy))
        if best is not None:
            # below the best-known q, any exact network is a find
            return min(best - constraints.max_nodes, 0)
    return 0


def _calibrate(args, target: TruthTable,
               constraints: NetworkConstraints) -> engine.TemperatureLadder:
    """``engine.calibrate_ladder`` for --seed and --replicas; a failure or
    a Ctrl-C exits 3."""
    try:
        return engine.calibrate_ladder(target, constraints, seed=args.seed,
                                       replicas=_replicas(args))
    except engine.CalibrationError as exc:
        raise CliError(f"calibration failed: {exc}", EXIT_NO_GOAL) from None
    except KeyboardInterrupt:
        raise CliError("interrupted during calibration", EXIT_NO_GOAL) from None


def _make_ladder(args, target: TruthTable,
                 constraints: NetworkConstraints) -> engine.TemperatureLadder:
    if args.ladder is None:
        return _calibrate(args, target, constraints)
    # a ladder file fixes the replicas and skips calibration
    if args.replicas is not None:
        raise CliError("--replicas cannot be used with a ladder file", EXIT_USAGE)
    try:
        return formats.parse_ladder(_read_text(args.ladder))
    except formats.NetworkParseError as exc:
        raise CliError(f"{args.ladder}: {exc}", EXIT_USAGE) from None


def cmd_synth(args) -> int:
    target = _load_target(args.target)
    constraints = _constraints(args, target)
    goal = _score_goal(args, target, constraints)
    for path in (args.out, args.trace):
        if path:
            _check_writable(path)
    ladder = _make_ladder(args, target, constraints)
    gates = "maj-inv" if constraints.inverters_allowed else "maj"
    print(f"target {args.target} (n={target.n}), gates {gates}"
          f"{', leafy' if constraints.leafy else ''}, p={constraints.max_nodes}, "
          f"replicas {ladder.size}, score goal {goal}, seed {args.seed}")
    stop = engine.StopConditions(max_repetitions=args.max_reps,
                                 time_limit=args.time_limit, score_goal=goal)
    report = engine.run(target, constraints, ladder, stop, seed=args.seed,
                        threads=args.threads, move_weights=args.move_weights)
    if report.interrupted:
        print("interrupted; reporting best so far", file=sys.stderr)
    if report.found_exact:
        print(f"found exact network: q={report.best_q} (score {report.best_score}) "
              f"after {report.repetitions} repetitions in {report.wall_time:.2f} s")
    elif report.best_score is None:
        # the stop came before the first repetition ended
        print(f"no exact network: no repetition completed in "
              f"{report.wall_time:.2f} s")
    else:
        print(f"no exact network: best score {report.best_score} after "
              f"{report.repetitions} repetitions in {report.wall_time:.2f} s")
    if report.repetitions:
        # pair 0 joins the two hottest slots; a pair never tried reads 0.000
        print("swap rates " + " ".join(f"{r:.3f}" for r in report.swap_rates))
        print(f"min swap rate {min(report.swap_rates):.3f}")
        print("slot acceptance " + " ".join(f"{a:.3f}" for a in report.slot_acceptance))
    if args.trace:
        _write_text(args.trace, formats.emit_trace(report.trace, report.swap_rate_log))
        print(f"wrote trace {args.trace}")
    if report.found_exact:
        text = formats.emit_network(report.best_network)
        if args.out:
            _write_text(args.out, text)
            print(f"wrote network {args.out}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    return EXIT_NO_GOAL


def cmd_verify(args) -> int:
    target = _load_target(args.target)
    net = _load_network(args.network)
    if net.n != target.n:
        print(f"network has {net.n} inputs, target {args.target} has {target.n}",
              file=sys.stderr)
        return EXIT_USAGE
    cache = evaluate_full(net, target)
    _, q = cleanup(net)
    base = PI_BASE + net.n
    leafy_ok = all(any(PI_BASE <= c >> 1 < base for c in row) for row in net.codes)
    inverter_free = not (net.output_code & 1
                         or any(c & 1 for row in net.codes for c in row))
    print(f"energy {cache.error}")
    print(f"gates {net.num_gates} (q={q} after cleanup)")
    print(f"leafy {'yes' if leafy_ok else 'no'}")
    print(f"inverter-free {'yes' if inverter_free else 'no'}")
    return EXIT_OK if cache.error == 0 else EXIT_NO_GOAL


def cmd_simplify(args) -> int:
    simplified, _ = cleanup(_load_network(args.network))
    sys.stdout.write(formats.emit_network(simplified))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    target = _load_target(args.target)
    constraints = _constraints(args, target)
    ladder = _calibrate(args, target, constraints)
    print(f"replicas {ladder.size}")
    print("betas " + " ".join(f"{b:.6f}" for b in ladder.betas))
    if args.out:
        _write_text(args.out, formats.emit_ladder(ladder))
        print(f"wrote ladder {args.out}")
    return EXIT_OK


def _bench_run(args, target: TruthTable, constraints: NetworkConstraints,
               goal_q: int, seed: int, replicas: int) -> dict:
    """Calibrate a ladder for ``seed`` and run to ``goal_q``; record the
    repetitions and seconds at which q first reached each value from
    ``goal_q + 3`` down to ``goal_q``.  A failed calibration is reported
    and leaves the run unsolved at 0 repetitions, with no calibration time,
    as does a Ctrl-C there; a Ctrl-C there or in the run marks it interrupted."""
    run = {"seed": seed, "replicas": replicas, "calibration_seconds": None,
           "best_q": None, "best_score": None, "min_swap_rate": None,
           "repetitions": 0, "wall_seconds": 0.0, "interrupted": False,
           "to_q": dict.fromkeys(str(q) for q in range(goal_q + 3, goal_q - 1, -1))}
    start = time.perf_counter()
    try:
        ladder = engine.calibrate_ladder(target, constraints, seed=seed, replicas=replicas)
    except engine.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return run
    except KeyboardInterrupt:
        run["interrupted"] = True
        return run
    run["calibration_seconds"] = round(time.perf_counter() - start, 3)
    stop = engine.StopConditions(max_repetitions=args.max_reps, time_limit=args.time_limit,
                                 score_goal=goal_q - constraints.max_nodes)
    report = engine.run(target, constraints, ladder, stop, seed=seed,
                        threads=args.threads, move_weights=args.move_weights)
    run.update(best_q=report.best_q, best_score=report.best_score,
               min_swap_rate=min(report.swap_rates) if report.repetitions else None,
               repetitions=report.repetitions,
               wall_seconds=round(report.wall_time, 3), interrupted=report.interrupted)
    for q in run["to_q"]:
        row = next((r for r in report.trace if r.best_q <= int(q)), None)
        if row is not None:
            run["to_q"][q] = {"repetitions": row.repetition,
                              "seconds": round(row.elapsed_seconds, 3)}
    return run


def _bench_median(runs: list[dict], q: str) -> dict:
    """The median repetitions and seconds to ``q`` over ``runs``.  An
    unsolved run counts at its own repetitions and wall time, and a median
    is censored (a lower bound) if it would change were those larger."""
    censored = [run["to_q"][q] is None for run in runs]
    median = {}
    for key, stop_key in (("repetitions", "repetitions"), ("seconds", "wall_seconds")):
        values = [run[stop_key] if cut else run["to_q"][q][key]
                  for run, cut in zip(runs, censored)]
        at_stop = statistics.median(values)
        median[key] = round(at_stop, 3)
        median[f"{key}_censored"] = at_stop != statistics.median(
            [math.inf if cut else v for v, cut in zip(values, censored)])
    return median


def cmd_bench(args) -> int:
    try:
        sizes = [int(n) for n in args.sizes.split(",")]
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        raise CliError(f"--sizes {args.sizes!r} and --seeds {args.seeds!r} "
                       "must be comma-separated integers", EXIT_USAGE) from None
    instances = []
    for n in sizes:
        for gates in args.gates.split(","):
            if gates not in ("maj", "maj-inv"):
                raise CliError(f"--gates: bad gate set {gates!r}", EXIT_USAGE)
            inverters = gates == "maj-inv"
            p = DEFAULT_MAX_NODES.get((n, inverters))
            goal_q = BEST_KNOWN.get((n, inverters, False))
            if p is None or goal_q is None:
                raise CliError(f"--sizes: no budget or best-known q for "
                               f"maj:{n} with gates {gates}", EXIT_USAGE)
            instances.append((n, gates, p, goal_q))
    replicas = _replicas(args)
    results = []
    host = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"

    def write_json() -> None:
        if args.json:
            _write_text(args.json, json.dumps(
                {"command": " ".join(["ptsynth", *args.argv]), "host": host,
                 "instances": results}, indent=1) + "\n")

    # a path that cannot be written fails before the first calibration, and
    # the file is rewritten after every run, so finished runs survive a stop
    write_json()
    print(f"{'n':>3} {'gates':>8} {'seed':>4} {'p':>3} {'goal':>4} {'q':>3} "
          f"{'score':>5} {'reps':>8} {'wall_s':>8} status")
    interrupted = False
    for n, gates, p, goal_q in instances:
        target = majority_truth_table(n)
        constraints = NetworkConstraints(p, inverters_allowed=gates == "maj-inv")
        runs = []
        instance = {
            "setup": {"n": n, "gates": gates, "p": p, "goal_q": goal_q, "seeds": seeds,
                      "max_reps": args.max_reps, "time_limit": args.time_limit,
                      "threads": args.threads, "ladder": "calibrated per seed",
                      "move_weights": list(args.move_weights)},
            "solved": None, "median": None, "runs": runs}
        results.append(instance)
        for seed in seeds:
            run = _bench_run(args, target, constraints, goal_q, seed, replicas)
            runs.append(run)
            interrupted = run["interrupted"]
            q = "-" if run["best_q"] is None else run["best_q"]
            score = "-" if run["best_score"] is None else run["best_score"]
            status = ("interrupted" if interrupted else
                      "partial" if run["to_q"][str(goal_q)] is None else "ok")
            print(f"{n:>3} {gates:>8} {seed:>4} {p:>3} {goal_q:>4} {q:>3} "
                  f"{score:>5} {run['repetitions']:>8} {run['wall_seconds']:>8.2f} {status}")
            instance["solved"] = {
                str(g): sum(run["to_q"][str(g)] is not None for run in runs) / len(runs)
                for g in (goal_q + 1, goal_q)}
            instance["median"] = {q: _bench_median(runs, q) for q in run["to_q"]}
            write_json()
            if interrupted:
                break
        if interrupted:
            break
        if len(seeds) > 1:
            for q, med in instance["median"].items():
                print(f"q<={q}: median {med['repetitions']} reps"
                      f"{' (censored)' if med['repetitions_censored'] else ''}, "
                      f"{med['seconds']} s"
                      f"{' (censored)' if med['seconds_censored'] else ''}")
    if args.json:
        print(f"wrote {args.json}")
    if interrupted:
        print("interrupted; no further runs started", file=sys.stderr)
        return EXIT_NO_GOAL
    solved = all(inst["solved"][str(inst["setup"]["goal_q"])] == 1
                 for inst in results)
    return EXIT_OK if solved else EXIT_NO_GOAL


def _move_weights(text: str) -> tuple[float, float]:
    try:
        parts = tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad move weights {text!r}") from None
    try:
        return engine.check_move_weights(parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive(convert):
    """An argparse type: ``convert(text)``, which must be finite and above
    0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and above 0, got {text}")
        return value
    return parse


def _add_target_options(parser: argparse.ArgumentParser, with_budget: bool = True) -> None:
    parser.add_argument("--target", required=True,
                        help="builtin maj:<n> or a truth-table file")
    if with_budget:
        parser.add_argument("--gates", choices=("maj", "maj-inv"),
                            default="maj-inv", help="gate set (default maj-inv)")
        parser.add_argument("--leafy", action="store_true",
                            help="require a primary input on every gate")
        parser.add_argument("--max-nodes", "-p", type=int, default=None,
                            help="node budget p (defaults exist for "
                                 "maj:3/5/7/9/11/13)")
        parser.add_argument("--seed", type=int, default=0,
                            help="RNG seed (default 0)")
        parser.add_argument("--replicas", type=int, default=None,
                            help="override the calibrated replica count")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-reps", type=_positive(int), default=10**7)
    parser.add_argument("--time-limit", type=_positive(float), default=None,
                        help="wall-clock budget per run in seconds")
    parser.add_argument("--threads", type=_positive(int), default=1,
                        help="processes that sweep the replicas (default 1); "
                             "the output is the same for every value, and "
                             "the run is serial where the platform cannot "
                             "fork")
    parser.add_argument("--move-weights", type=_move_weights,
                        default=(1.0, 0.0),
                        help="relative weights of reassign-one and "
                             "swap-between-gates (default 1,0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsynth",
        description="Synthesize minimal majority-gate networks by parallel "
                    "tempering Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="search for a minimal exact network")
    _add_target_options(synth)
    synth.add_argument("--ladder", default=None,
                       help="ladder file (default: calibrate one)")
    _add_run_options(synth)
    synth.add_argument("--score-goal", type=int, default=None,
                       help="stop when the best score reaches this value")
    synth.add_argument("--out", default=None, help="best-network output file")
    synth.add_argument("--trace", default=None, help="trace CSV output file")
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="check a network against a target")
    verify.add_argument("network", help="network file")
    _add_target_options(verify, with_budget=False)
    verify.set_defaults(func=cmd_verify)

    simplify = sub.add_parser("simplify", help="clean up a network file")
    simplify.add_argument("network", help="network file")
    simplify.set_defaults(func=cmd_simplify)

    calibrate = sub.add_parser("calibrate", help="build a temperature ladder")
    _add_target_options(calibrate)
    calibrate.add_argument("--out", default=None, help="ladder output file")
    calibrate.set_defaults(func=cmd_calibrate)

    bench = sub.add_parser("bench", help="time MAJ-n runs to the best-known q")
    bench.add_argument("--sizes", default="3,5,7",
                       help="comma-separated n (default 3,5,7)")
    bench.add_argument("--gates", default="maj,maj-inv",
                       help="comma-separated gate sets (default both)")
    bench.add_argument("--seeds", default="0",
                       help="comma-separated RNG seeds (default 0)")
    bench.add_argument("--replicas", type=int, default=None,
                       help="override the calibrated replica count")
    _add_run_options(bench)
    bench.add_argument("--json", default=None, help="per-run milestones and medians output file")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.argv = sys.argv[1:] if argv is None else argv
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout; send the interpreter's exit flush to
        # devnull so it does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
