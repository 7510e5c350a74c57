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
    TraceParseError,
    emit_network,
    emit_trace,
    parse_network,
    parse_trace,
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
    emit_truth_table,
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
    "TraceParseError",
    "TraceRow",
    "TruthTable",
    "TruthTableError",
    "calibrate_ladder",
    "cleanup",
    "combined_score",
    "emit_network",
    "emit_trace",
    "emit_truth_table",
    "evaluate_full",
    "is_valid",
    "majority_truth_table",
    "parse_network",
    "parse_trace",
    "parse_truth_table",
    "random_network",
    "recompute_from",
    "run",
]
