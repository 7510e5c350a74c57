"""Bit-exact text serialization for networks, traces, and ladders.

Network files are line oriented::

    # comment
    inputs 9
    flags no-inverters leafy
    g0 = MAJ(x6, x3, x2)
    g1 = MAJ(~g0, x4, 1)
    output g1

Operands are ``x<i>`` (primary input), ``g<j>`` (earlier gate), ``0``/``1``
(constants), with ``~`` marking inversion.  Gate lines may also use the
``x<m>`` numbering that starts gates at index n; parsing normalizes it.

Traces are written, never read back: a CSV header
``repetition,best_q,best_score,elapsed_seconds``, one row per improvement
(``elapsed_seconds`` always empty, so a fixed seed writes the same bytes;
the column stays for the documented header), and ``# swap_rates rep=R ...``
comment lines in repetition order.  Ladders are one inverse temperature per
line, hottest first, with ``#`` comments.
"""

from __future__ import annotations

import re

from .engine import TemperatureLadder, TraceRow
from .network import (
    PI_BASE,
    LogicNetwork,
    NetworkConstraints,
    is_valid,
    operand_text,
)
from .truthtable import MAX_INPUTS

_GATE_LINE = re.compile(r"^(x|g)(\d+)\s*=\s*MAJ\(([^)]*)\)$")
_OPERAND = re.compile(r"^(~?)(x(\d+)|g(\d+)|0|1)$")


class NetworkParseError(ValueError):
    """Syntax or semantic error in a network document."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def emit_network(net: LogicNetwork) -> str:
    """Canonical text form of a network; inverse of :func:`parse_network`."""
    lines = [f"inputs {net.n}"]
    flags = []
    if not net.constraints.inverters_allowed:
        flags.append("no-inverters")
    if net.constraints.leafy:
        flags.append("leafy")
    if flags:
        lines.append("flags " + " ".join(flags))
    n = net.n
    for k, row in enumerate(net.codes):
        a, b, c = (operand_text(code, n) for code in row)
        lines.append(f"g{k} = MAJ({a}, {b}, {c})")
    lines.append(f"output {operand_text(net.output_code, n)}")
    return "\n".join(lines) + "\n"


def _parse_operand(token: str, n: int, position: int, lineno: int) -> int:
    match = _OPERAND.match(token)
    if match is None:
        raise NetworkParseError(f"bad operand {token!r}", lineno)
    inverted = match.group(1) == "~"
    body = match.group(2)
    if body in ("0", "1"):
        # an inverted constant is the other constant
        return (int(body) ^ inverted) << 1
    if body.startswith("x"):
        index = int(match.group(3))
        if index < n:
            return (PI_BASE + index) << 1 | inverted
        # continued numbering: x_{n+j} names gate j
        index -= n
    else:
        index = int(match.group(4))
    if index >= position:
        raise NetworkParseError(
            f"operand {token!r} is not an earlier gate (gate g{position})", lineno)
    return (PI_BASE + n + index) << 1 | inverted


def parse_network(text: str) -> LogicNetwork:
    """Parse a network document, normalizing gate numbering to g0..g{q-1}."""
    n: int | None = None
    inverters = True
    leafy = False
    codes: list[list[int]] = []
    output: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if output is not None:
            raise NetworkParseError("content after the output line", lineno)
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "inputs":
                raise NetworkParseError("expected 'inputs <n>' first", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise NetworkParseError(f"bad input count {fields[1]!r}", lineno) from None
            if not 1 <= n <= MAX_INPUTS:
                raise NetworkParseError(
                    f"input count {n} out of range 1..{MAX_INPUTS}", lineno)
            continue
        if fields[0] == "flags":
            if codes:
                raise NetworkParseError("flags must precede the gate list", lineno)
            for flag in fields[1:]:
                if flag == "no-inverters":
                    inverters = False
                elif flag == "leafy":
                    leafy = True
                else:
                    raise NetworkParseError(f"unknown flag {flag!r}", lineno)
            continue
        if fields[0] == "output":
            if len(fields) != 2:
                raise NetworkParseError("expected 'output <operand>'", lineno)
            output = _parse_operand(fields[1], n, len(codes), lineno)
            continue
        match = _GATE_LINE.match(line)
        if match is None:
            raise NetworkParseError(f"unrecognized line {line!r}", lineno)
        index = int(match.group(2))
        if match.group(1) == "x":
            if index < n:
                raise NetworkParseError(
                    f"gate name x{index} collides with a primary input", lineno)
            index -= n
        if index != len(codes):
            raise NetworkParseError(
                f"gate g{index} out of order (expected g{len(codes)})", lineno)
        tokens = [t.strip() for t in match.group(3).split(",")]
        if len(tokens) != 3:
            raise NetworkParseError(
                f"gate g{index} has {len(tokens)} operands, needs 3", lineno)
        row = [_parse_operand(t, n, index, lineno) for t in tokens]
        if len({code >> 1 for code in row}) != 3:
            raise NetworkParseError(f"gate g{index} repeats an operand", lineno)
        codes.append(row)
    if n is None:
        raise NetworkParseError("empty document")
    if output is None:
        raise NetworkParseError("missing output line")
    constraints = NetworkConstraints(max_nodes=max(1, len(codes)),
                                     inverters_allowed=inverters, leafy=leafy)
    net = LogicNetwork(n, constraints, codes, output)
    ok, why = is_valid(net)
    if not ok:
        raise NetworkParseError(why)
    return net


def emit_trace(rows: list[TraceRow],
               swap_rate_log: list[tuple[int, list[float]]]) -> str:
    """Trace CSV: improvement rows plus ``# swap_rates`` comment lines,
    ``swap_rate_log`` in repetition order as a report holds it."""
    lines = ["repetition,best_q,best_score,elapsed_seconds"]
    note_at = 0
    for row in rows:
        while (note_at < len(swap_rate_log)
               and swap_rate_log[note_at][0] < row.repetition):
            lines.append(_swap_note(swap_rate_log[note_at]))
            note_at += 1
        lines.append(f"{row.repetition},{row.best_q},{row.best_score},")
    for note in swap_rate_log[note_at:]:
        lines.append(_swap_note(note))
    return "\n".join(lines) + "\n"


def _swap_note(note: tuple[int, list[float]]) -> str:
    repetition, rates = note
    return f"# swap_rates rep={repetition} " + " ".join(f"{r:.4f}" for r in rates)


def emit_ladder(ladder: TemperatureLadder) -> str:
    lines = ["# inverse temperatures, hottest first"]
    lines += [repr(beta) for beta in ladder.betas]
    return "\n".join(lines) + "\n"


def parse_ladder(text: str) -> TemperatureLadder:
    betas = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            betas.append(float(line))
        except ValueError:
            raise NetworkParseError(f"bad inverse temperature {line!r}", lineno) from None
    try:
        return TemperatureLadder(betas)
    except ValueError as exc:
        raise NetworkParseError(str(exc)) from None
