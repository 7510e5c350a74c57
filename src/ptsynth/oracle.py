"""Deliberately simple per-input network evaluator.

This module exists to cross-check the bit-parallel cache in the test suite.
It walks the operand codes one input vector at a time, over a list of
0/1 values indexed by source id, and shares no evaluation code with
:mod:`ptsynth.network`.
"""

from __future__ import annotations

from .network import LogicNetwork
from .truthtable import TruthTable


def eval_single(net: LogicNetwork, x) -> int:
    """Evaluate the network on one input vector (a sequence of n bits)."""
    if len(x) != net.n:
        raise ValueError(f"expected {net.n} input bits, got {len(x)}")
    # source ids: the constants 0 and 1, the inputs, then each gate
    values = [0, 1, *x]
    for row in net.codes:
        ones = sum(values[code >> 1] ^ (code & 1) for code in row)
        values.append(1 if ones >= 2 else 0)
    out = net.output_code
    return values[out >> 1] ^ (out & 1)


def eval_column(net: LogicNetwork) -> list[int]:
    """Network value on every input vector, in index order."""
    return [eval_single(net, [(v >> i) & 1 for i in range(net.n)])
            for v in range(1 << net.n)]


def exhaustive_error(net: LogicNetwork, tt: TruthTable) -> int:
    """Count the input vectors where the network disagrees with the table."""
    if tt.n != net.n:
        raise ValueError(f"table has n={tt.n}, network has n={net.n}")
    mismatches = 0
    for v, value in enumerate(eval_column(net)):
        if value != tt.value(v):
            mismatches += 1
    return mismatches
