"""In-process A/B timing of two ptsynth source trees.

Imports the package from a parent ``src`` directory and from the ``src``
next to this script under two distinct names, so both live in one
process.  Round i calibrates a 51-replica ladder and runs parallel
tempering for the shape's number of repetitions on one workload shape and
move mix, once with each tree, on seed i + 1, in alternating order, and
takes each side's process time.  The two sides
must agree on the ladder's betas, the best q and score, the swap rates,
the per-slot acceptance and the best network; the script stops with exit
1 at the first round where they do not.  At the end it prints the median
change/parent process-time ratio, its interquartile range, and how many
rounds each side won.

    python scripts/ab.py --parent ../parent/src --shape maj9-search --rounds 24
    python scripts/ab.py --parent ../parent/src --shape maj9-p17 --mix 1,1

Seconds compare only within one run of the script: alternating rounds in
one process share the host's speed changes and the interpreter's state.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import pathlib
import statistics
import sys
import time

# name: (n, inverters allowed, gate budget p, repetitions per run)
SHAPES = {
    "maj9-search": (9, True, 16, 36),
    "maj5-exact": (5, False, 8, 40),
    "maj7": (7, False, 10, 60),
    "maj9-p17": (9, False, 17, 10),
}
REPLICAS = 51
CHANGE_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def load_tree(src: str, name: str):
    """The ptsynth package under ``src``, imported as package ``name``."""
    root = pathlib.Path(src).resolve() / "ptsynth"
    init = root / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab: no ptsynth package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def run_once(pkg, shape: tuple, mix, seed: int) -> tuple:
    """Calibrate and run one operation; returns (process seconds, outcome)."""
    n, inverters, p, reps = shape
    target = pkg.majority_truth_table(n)
    constraints = pkg.NetworkConstraints(p, inverters_allowed=inverters)
    gc.collect()
    start = time.process_time()
    ladder = pkg.calibrate_ladder(target, constraints, seed=seed,
                                  replicas=REPLICAS)
    report = pkg.run(target, constraints, ladder,
                     pkg.StopConditions(max_repetitions=reps), seed=seed,
                     move_weights=mix)
    took = time.process_time() - start
    best = report.best_network
    outcome = {
        "betas": ladder.betas,
        "best_q": report.best_q,
        "best_score": report.best_score,
        "swap_rates": report.swap_rates,
        "slot_acceptance": report.slot_acceptance,
        "network": None if best is None else (best.codes, best.output_code),
    }
    return took, outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the parent tree's src directory")
    parser.add_argument("--shape", choices=SHAPES, default="maj9-search")
    parser.add_argument("--mix", default="1,0",
                        help="reassign-one,swap move weights")
    parser.add_argument("--rounds", type=int, default=24)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = load_tree(args.parent, "ptsynth_ab_parent")
    change = load_tree(CHANGE_SRC, "ptsynth_ab_change")
    try:
        mix = parent.engine.check_move_weights(args.mix.split(","))
    except ValueError as exc:
        parser.error(str(exc))
    shape = n, inverters, p, reps = SHAPES[args.shape]
    print(f"shape {args.shape}: MAJ-{n} p={p} "
          f"{'maj-inv' if inverters else 'maj'}, {reps} repetitions, "
          f"{REPLICAS} replicas, mix {args.mix}")
    ratios = []
    for i in range(args.rounds):
        seed = i + 1
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        seconds, outcomes = {}, {}
        for label, pkg in sides:
            seconds[label], outcomes[label] = run_once(pkg, shape, mix, seed)
        for key, value in outcomes["parent"].items():
            if outcomes["change"][key] != value:
                print(f"round {i} seed {seed}: the sides differ in {key}: "
                      f"parent {value!r}, change {outcomes['change'][key]!r}",
                      file=sys.stderr)
                return 1
        ratio = seconds["change"] / seconds["parent"]
        ratios.append(ratio)
        print(f"round {i} seed {seed} first {sides[0][0]}: parent "
              f"{seconds['parent']:.3f} s, change {seconds['change']:.3f} s, "
              f"ratio {ratio:.3f}, best q {outcomes['parent']['best_q']}")
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 \
        else ratios * 3
    won = sum(r < 1 for r in ratios)
    print(f"median change/parent {statistics.median(ratios):.3f}, "
          f"IQR {quartiles[0]:.3f}-{quartiles[2]:.3f} "
          f"({quartiles[2] - quartiles[0]:.3f}); rounds won: change {won}, "
          f"parent {sum(r > 1 for r in ratios)}, of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
