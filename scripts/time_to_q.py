"""Time to q on the paper's headline instance: MAJ-9 without inverters.

For each seed, calibrate a ladder (or read ``--ladder``), then run parallel
tempering at p=17 until the cleaned gate count q reaches 13 or the run
hits ``--max-reps`` repetitions.  From the run's wall-clock trace, take the
repetitions and seconds at which q first reached 16, 15, 14 and 13.
Repetition counts are deterministic for a seed; seconds count from the
start of the run, after calibration, and compare only between runs on the
same host.

Writes ``BENCH_ttq_<label>.json`` to the current directory: the per-seed
values, the solved fraction at q=14 and q=13, and the median repetitions
and seconds over the seed set.  An unsolved seed counts at the cap (its
repetitions and wall time) in the median, which is then flagged as
censored if it would change were those values larger.

    python scripts/time_to_q.py --label head
    python scripts/time_to_q.py --seeds 1,2 --max-reps 5 --label smoke

A seed that stays unsolved at the 20,000 cap ran 240-370 s with
``--threads 2`` on a 2-core x86_64 host with Python 3.11, and the eight
default seeds took 31 minutes there (``BENCH_ttq_head.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ptsynth import engine, formats  # noqa: E402
from ptsynth.network import NetworkConstraints  # noqa: E402
from ptsynth.truthtable import majority_truth_table  # noqa: E402


def _median(values: list[float], censored: list[bool]) -> tuple[float, bool]:
    """The median with censored values at their caps, and whether it would
    change were the censored values larger (then it is a lower bound)."""
    at_cap = statistics.median(values)
    unbounded = statistics.median(
        [float("inf") if cut else v for v, cut in zip(values, censored)])
    return at_cap, unbounded != at_cap


def time_to_q(n: int = 9, p: int = 17, goal_q: int = 13,
              seeds=tuple(range(1, 9)), max_reps: int = 20000,
              threads: int = 1, replicas: int = engine.DEFAULT_REPLICAS,
              ladder: engine.TemperatureLadder | None = None,
              move_weights=(1.0, 0.0)) -> dict:
    """Run MAJ-n without inverters at budget p once per seed, to q=goal_q
    or ``max_reps`` repetitions, and summarize the repetitions and seconds
    to each q from ``goal_q + 3`` down to ``goal_q``.  Calibrates a ladder
    of ``replicas`` temperatures per seed unless ``ladder`` is given."""
    target = majority_truth_table(n)
    constraints = NetworkConstraints(p, inverters_allowed=False)
    qs = range(goal_q + 3, goal_q - 1, -1)
    stop = engine.StopConditions(max_repetitions=max_reps,
                                 score_goal=goal_q - p)
    runs = []
    for seed in seeds:
        calibration_s = None
        seed_ladder = ladder
        if seed_ladder is None:
            start = time.perf_counter()
            seed_ladder = engine.calibrate_ladder(target, constraints,
                                                  seed=seed, replicas=replicas)
            calibration_s = round(time.perf_counter() - start, 3)
        report = engine.run(target, constraints, seed_ladder, stop, seed=seed,
                            threads=threads, move_weights=move_weights,
                            wall_clock_trace=True)
        to_q = {}
        for q in qs:
            row = next((r for r in report.trace if r.best_q <= q), None)
            to_q[str(q)] = None if row is None else {
                "repetitions": row.repetition,
                "seconds": round(row.elapsed_seconds, 3)}
        runs.append({"seed": seed, "replicas": seed_ladder.size,
                     "calibration_seconds": calibration_s,
                     "best_q": report.best_q,
                     "repetitions": report.repetitions,
                     "wall_seconds": round(report.wall_time, 3),
                     "to_q": to_q})
    median = {}
    for q in qs:
        hits = [run["to_q"][str(q)] for run in runs]
        censored = [hit is None for hit in hits]
        reps, reps_cut = _median(
            [max_reps if hit is None else hit["repetitions"] for hit in hits],
            censored)
        secs, secs_cut = _median(
            [run["wall_seconds"] if hit is None else hit["seconds"]
             for run, hit in zip(runs, hits)], censored)
        median[str(q)] = {"repetitions": reps, "repetitions_censored": reps_cut,
                          "seconds": round(secs, 3),
                          "seconds_censored": secs_cut}
    return {
        "setup": {"n": n, "gates": "maj", "p": p, "goal_q": goal_q,
                  "seeds": list(seeds), "max_reps": max_reps,
                  "threads": threads,
                  "ladder": "calibrated per seed" if ladder is None
                  else "file", "move_weights": list(move_weights)},
        "solved": {str(q): sum(run["to_q"][str(q)] is not None
                               for run in runs) / len(runs)
                   for q in (goal_q + 1, goal_q)},
        "median": median,
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8",
                        help="comma-separated PT seeds")
    parser.add_argument("--max-reps", type=int, default=20000,
                        help="repetition cap per seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--replicas", type=int, default=None,
                        help="calibrated ladder size (default "
                             f"{engine.DEFAULT_REPLICAS})")
    parser.add_argument("--ladder", default=None,
                        help="ladder file used for every seed instead of "
                             "calibrating")
    parser.add_argument("--move-weights", default="1,0",
                        help="reassign-one,swap weights")
    parser.add_argument("--label", required=True,
                        help="names the output BENCH_ttq_<label>.json")
    args = parser.parse_args(argv)
    if args.ladder is not None and args.replicas is not None:
        parser.error("--replicas cannot be used with --ladder")
    if args.threads < 1 or args.max_reps < 1:
        parser.error("--threads and --max-reps must be at least 1")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        weights = engine.check_move_weights(args.move_weights.split(","))
        replicas = engine.check_replica_count(
            engine.DEFAULT_REPLICAS if args.replicas is None
            else args.replicas)
        ladder = None if args.ladder is None else \
            formats.parse_ladder(pathlib.Path(args.ladder).read_text())
    except (OSError, ValueError, formats.NetworkParseError) as exc:
        parser.error(str(exc))
    result = time_to_q(seeds=seeds, max_reps=args.max_reps,
                       threads=args.threads, replicas=replicas,
                       ladder=ladder, move_weights=weights)
    result["command"] = "python scripts/time_to_q.py " + " ".join(
        sys.argv[1:] if argv is None else argv)
    result["host"] = (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                      f"Python {platform.python_version()}")
    out = pathlib.Path(f"BENCH_ttq_{args.label}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    for q, med in result["median"].items():
        print(f"q<={q}: median {med['repetitions']} reps"
              f"{' (censored)' if med['repetitions_censored'] else ''}, "
              f"{med['seconds']} s"
              f"{' (censored)' if med['seconds_censored'] else ''}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
