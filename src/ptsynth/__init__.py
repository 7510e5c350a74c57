"""Minimal majority-gate logic networks by parallel tempering Monte Carlo."""

from .engine import (
    CalibrationError,
    StopConditions,
    SynthesisReport,
    TemperatureLadder,
    TraceRow,
    calibrate_ladder,
    run,
)
from .formats import (
    NetworkParseError,
    emit_network,
    emit_trace,
    parse_network,
)
from .network import (
    LogicNetwork,
    NetworkConstraints,
    cleanup,
    combined_score,
    evaluate_full,
    is_valid,
    random_network,
    recompute_from,
)
from .truthtable import (
    TruthTable,
    TruthTableError,
    majority_truth_table,
    parse_truth_table,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "LogicNetwork",
    "NetworkConstraints",
    "NetworkParseError",
    "StopConditions",
    "SynthesisReport",
    "TemperatureLadder",
    "TraceRow",
    "TruthTable",
    "TruthTableError",
    "calibrate_ladder",
    "cleanup",
    "combined_score",
    "emit_network",
    "emit_trace",
    "evaluate_full",
    "is_valid",
    "majority_truth_table",
    "parse_network",
    "parse_truth_table",
    "random_network",
    "recompute_from",
    "run",
]
