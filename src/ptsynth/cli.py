"""Command-line interface: synth, verify, simplify, calibrate, bench.

Exit codes: 0 success, 2 usage or input-parse failure, 3 goal not reached
or degenerate calibration, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import engine, formats
from .network import INPUT, NetworkConstraints, cleanup, evaluate_full, is_valid
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

# node budgets used in the published runs, by (n, inverters_allowed)
DEFAULT_MAX_NODES = {
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

# small-instance node budgets for bench; larger sizes use DEFAULT_MAX_NODES
BENCH_MAX_NODES = {3: 2, 5: 8, 7: 10}


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


def _load_target(label: str) -> tuple[TruthTable, str]:
    if label.startswith("maj:"):
        try:
            n = int(label.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad target {label!r}", EXIT_USAGE) from None
        try:
            return majority_truth_table(n), label
        except TruthTableError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    text = _read_text(label)
    try:
        target = parse_truth_table_file(text)
    except TruthTableError as exc:
        raise CliError(f"{label}: {exc}", EXIT_USAGE) from None
    return target, label


def _default_seed() -> int:
    text = os.environ.get("PTSYNTH_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"PTSYNTH_SEED must be an integer, got {text!r}",
                       EXIT_USAGE) from None


def _constraints(args, target: TruthTable, label: str) -> NetworkConstraints:
    inverters = args.gates == "maj-inv"
    max_nodes = args.max_nodes
    if max_nodes is None:
        if label.startswith("maj:"):
            max_nodes = DEFAULT_MAX_NODES.get((target.n, inverters))
        if max_nodes is None:
            raise CliError("--max-nodes is required for this target", EXIT_USAGE)
    try:
        return NetworkConstraints(max_nodes=max_nodes,
                                  inverters_allowed=inverters, leafy=args.leafy)
    except ValueError as exc:
        raise CliError(f"--max-nodes {max_nodes}: {exc}", EXIT_USAGE) from None


def _calibration_config(**options) -> engine.CalibrationConfig:
    # an option left unset (None) keeps the config's default
    options = {name: value for name, value in options.items()
               if value is not None}
    try:
        return engine.CalibrationConfig(**options)
    except ValueError as exc:
        raise CliError(f"--replicas: {exc}", EXIT_USAGE) from None


def _score_goal(args, target: TruthTable, label: str,
                constraints: NetworkConstraints) -> int | None:
    if args.score_goal is not None:
        return args.score_goal
    if label.startswith("maj:"):
        best = BEST_KNOWN.get((target.n, constraints.inverters_allowed,
                               constraints.leafy))
        if best is not None:
            return best - constraints.max_nodes
    return 0


def _make_ladder(args, target: TruthTable,
                 constraints: NetworkConstraints) -> engine.TemperatureLadder:
    if args.ladder != "auto":
        # a ladder file fixes the replicas and skips calibration
        for option, value in (("--replicas", args.replicas),
                              ("--warmup-sweeps", args.warmup_sweeps)):
            if value is not None:
                raise CliError(f"{option} cannot be used with a ladder file",
                               EXIT_USAGE)
        try:
            return formats.parse_ladder(_read_text(args.ladder))
        except formats.NetworkParseError as exc:
            raise CliError(f"{args.ladder}: {exc}", EXIT_USAGE) from None
    config = _calibration_config(replicas=args.replicas,
                                 warmup_sweeps=args.warmup_sweeps)
    return engine.calibrate_ladder(target, constraints, config, seed=args.seed)


def cmd_synth(args) -> int:
    target, label = _load_target(args.target)
    constraints = _constraints(args, target, label)
    goal = _score_goal(args, target, label, constraints)
    try:
        ladder = _make_ladder(args, target, constraints)
    except engine.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_NO_GOAL
    gates = "maj-inv" if constraints.inverters_allowed else "maj"
    print(f"target {label} (n={target.n}), gates {gates}"
          f"{', leafy' if constraints.leafy else ''}, p={constraints.max_nodes}, "
          f"replicas {ladder.size}, score goal {goal}, seed {args.seed}")
    stop = engine.StopConditions(max_repetitions=args.max_reps,
                                 time_limit=args.time_limit, score_goal=goal)
    report = engine.run(target, constraints, ladder, stop, seed=args.seed,
                        threads=args.threads, move_weights=args.move_weights,
                        wall_clock_trace=args.wall_clock_trace)
    if report.interrupted:
        print("interrupted; reporting best so far", file=sys.stderr)
    if report.found_exact:
        print(f"found exact network: q={report.best_q} (score {report.best_score}) "
              f"after {report.repetitions} repetitions in {report.wall_time:.2f} s")
    else:
        print(f"no exact network: best score {report.best_score} after "
              f"{report.repetitions} repetitions in {report.wall_time:.2f} s")
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
    target, label = _load_target(args.target)
    try:
        net = formats.parse_network(_read_text(args.network))
    except formats.NetworkParseError as exc:
        print(f"{args.network}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if net.n != target.n:
        print(f"network has {net.n} inputs, target {label} has {target.n}",
              file=sys.stderr)
        return EXIT_USAGE
    cache = evaluate_full(net, target)
    _, q = cleanup(net)
    leafy_ok = all(any(lit.kind == INPUT for lit in gate.inputs)
                   for gate in net.gates)
    inverter_free = all(not lit.inverted for gate in net.gates
                        for lit in gate.inputs) and not net.output.inverted
    print(f"energy {cache.error}")
    print(f"gates {net.num_gates} (q={q} after cleanup)")
    print(f"leafy {'yes' if leafy_ok else 'no'}")
    print(f"inverter-free {'yes' if inverter_free else 'no'}")
    ok, why = is_valid(net)
    if not ok:
        print(f"constraint violation: {why}")
    return EXIT_OK if cache.error == 0 else EXIT_NO_GOAL


def cmd_simplify(args) -> int:
    try:
        net = formats.parse_network(_read_text(args.network))
    except formats.NetworkParseError as exc:
        print(f"{args.network}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    simplified, _ = cleanup(net)
    sys.stdout.write(formats.emit_network(simplified))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    target, label = _load_target(args.target)
    constraints = _constraints(args, target, label)
    config = _calibration_config(replicas=args.replicas,
                                 warmup_sweeps=args.warmup_sweeps)
    try:
        deltas = engine.collect_uphill_deltas(
            target, constraints, engine.derived_rng(args.seed, "calibrate"),
            config.warmup_sweeps)
        ladder = engine.ladder_from_deltas(deltas, config)
    except engine.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_NO_GOAL
    print(f"replicas {ladder.size}")
    print("betas " + " ".join(f"{b:.6f}" for b in ladder.betas))
    for rate in engine.ANCHOR_RATES:
        beta = engine.anchor_beta(deltas, rate)
        print(f"anchor rate {rate:g}: beta {beta:.6f}")
    if args.probe:
        rates = engine.probe_swap_rates(target, constraints, ladder,
                                        seed=args.seed,
                                        repetitions=args.probe_reps)
        print("swap rates " + " ".join(f"{r:.3f}" for r in rates))
        print(f"min swap rate {min(rates):.3f}")
    if args.out:
        _write_text(args.out, formats.emit_ladder(ladder))
        print(f"wrote ladder {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [3, 5, 7] if args.suite == "quick" else [3, 5, 7, 9, 11, 13]
    config = _calibration_config(replicas=args.replicas)
    rows = []
    print(f"{'n':>3} {'gates':>8} {'p':>3} {'goal':>4} {'q':>3} "
          f"{'reps':>8} {'wall_s':>8} status")
    for n in sizes:
        for gates in ("maj", "maj-inv"):
            inverters = gates == "maj-inv"
            target = majority_truth_table(n)
            p = DEFAULT_MAX_NODES.get((n, inverters), BENCH_MAX_NODES.get(n))
            constraints = NetworkConstraints(p, inverters_allowed=inverters)
            goal_q = BEST_KNOWN[(n, inverters, False)]
            try:
                ladder = engine.calibrate_ladder(target, constraints, config,
                                                 seed=args.seed)
            except engine.CalibrationError as exc:
                # no run for this instance; the others still run
                print(f"calibration failed: {exc}", file=sys.stderr)
                q, reps, wall, status = "-", 0, 0.0, "partial"
            else:
                stop = engine.StopConditions(max_repetitions=args.max_reps,
                                             time_limit=args.time_limit,
                                             score_goal=goal_q - p)
                start = time.perf_counter()
                report = engine.run(target, constraints, ladder, stop,
                                    seed=args.seed)
                wall = time.perf_counter() - start
                reps = report.repetitions
                status = "ok" if report.best_q is not None \
                    and report.best_q <= goal_q else "partial"
                q = report.best_q if report.best_q is not None else "-"
            print(f"{n:>3} {gates:>8} {p:>3} {goal_q:>4} {q:>3} "
                  f"{reps:>8} {wall:>8.2f} {status}")
            rows.append((n, gates, p, goal_q, q, reps, wall, status))
    if args.csv:
        lines = ["n,gates,p,goal_q,q,repetitions,wall_seconds,status"]
        lines += [",".join(str(v) for v in row) for row in rows]
        _write_text(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_NO_GOAL


def _move_weights(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad move weights {text!r}") from None
    try:
        return engine.check_move_weights(parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive(convert):
    """An argparse type: ``convert(text)``, which must be finite and above 0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
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
                            help="node budget p (defaults exist for maj:9/11/13)")
        parser.add_argument("--seed", type=int, default=_default_seed(),
                            help="RNG seed (default $PTSYNTH_SEED or 0)")
        parser.add_argument("--replicas", type=int, default=None,
                            help="override the calibrated replica count")
        parser.add_argument("--warmup-sweeps", type=_positive(int), default=None,
                            help="calibration warm-up sweeps (default "
                                 f"{engine.CalibrationConfig.warmup_sweeps})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsynth",
        description="Synthesize minimal majority-gate networks by parallel "
                    "tempering Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="search for a minimal exact network")
    _add_target_options(synth)
    synth.add_argument("--ladder", default="auto",
                       help="'auto' (calibrate) or a ladder file")
    synth.add_argument("--max-reps", type=_positive(int), default=10**7)
    synth.add_argument("--time-limit", type=_positive(float), default=None,
                       help="wall-clock budget in seconds")
    synth.add_argument("--score-goal", type=int, default=None,
                       help="stop when the best score reaches this value")
    synth.add_argument("--threads", type=_positive(int), default=1,
                       help="processes that sweep the replicas (default 1); "
                            "the output is the same for every value, and "
                            "the run is serial where the platform cannot "
                            "fork")
    synth.add_argument("--move-weights", type=_move_weights,
                       default=(1.0, 0.0, 0.0),
                       help="relative weights of reassign-one, "
                            "swap-between-gates and reassign-all "
                            "(default 1,0,0)")
    synth.add_argument("--out", default=None, help="best-network output file")
    synth.add_argument("--trace", default=None, help="trace CSV output file")
    synth.add_argument("--wall-clock-trace", action="store_true",
                       help="record wall-clock times in the trace "
                            "(makes trace files non-reproducible)")
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
    calibrate.add_argument("--probe", action="store_true",
                           help="measure swap rates with a probe run")
    calibrate.add_argument("--probe-reps", type=_positive(int), default=1000)
    calibrate.add_argument("--out", default=None, help="ladder output file")
    calibrate.set_defaults(func=cmd_calibrate)

    bench = sub.add_parser("bench", help="reproduce the benchmark table")
    bench.add_argument("--suite", choices=("quick", "paper"), default="quick")
    bench.add_argument("--seed", type=int, default=_default_seed())
    bench.add_argument("--replicas", type=int, default=None)
    bench.add_argument("--max-reps", type=_positive(int), default=10**7)
    bench.add_argument("--time-limit", type=_positive(float), default=None,
                       help="wall-clock budget per instance in seconds")
    bench.add_argument("--csv", default=None, help="summary CSV output file")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        # the parser reads $PTSYNTH_SEED for its defaults
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
