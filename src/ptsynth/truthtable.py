"""Bit-packed single-output Boolean target functions.

A table over n inputs stores all 2^n function values in one Python integer:
bit i holds the value on the input vector encoded by i, with x0 as the
least significant bit of i.  The search scores every input vector with
weight 1, so a .tt file's optional ``weights:`` line must give weight 1 to
every vector.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_INPUTS = 20

_HEX_DIGITS = set("0123456789abcdefABCDEF")


class TruthTableError(ValueError):
    """Malformed truth-table text or inconsistent arguments."""


@dataclass(frozen=True)
class TruthTable:
    n: int
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_INPUTS:
            raise TruthTableError(f"input count must be in 1..{MAX_INPUTS}, got {self.n!r}")
        size = 1 << self.n
        if not 0 <= self.bits < (1 << size):
            raise TruthTableError("bits do not fit in 2^n positions")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, index: int) -> int:
        """Function value on the input vector encoded by ``index``."""
        if not 0 <= index < self.size:
            raise TruthTableError(f"index {index} out of range for n={self.n}")
        return (self.bits >> index) & 1


def majority_truth_table(n: int) -> TruthTable:
    """Majority-n: outputs 1 iff at least (n+1)/2 of the n inputs are 1."""
    if not isinstance(n, int) or not 1 <= n <= MAX_INPUTS or n % 2 == 0:
        raise TruthTableError(f"majority is defined for odd n in 1..{MAX_INPUTS}, got {n!r}")
    need = (n + 1) // 2
    bits = 0
    for v in range(1 << n):
        if v.bit_count() >= need:
            bits |= 1 << v
    return TruthTable(n, bits)


def parse_truth_table(text: str, n: int) -> TruthTable:
    """Parse the canonical hex encoding (or a ``0b`` binary string).

    Hex strings have 2^n / 4 digits and need n >= 2; the leftmost digit
    covers the highest input vectors.  Binary strings are written MSB-first
    after the ``0b`` prefix and work for any n.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_INPUTS:
        raise TruthTableError(f"input count must be in 1..{MAX_INPUTS}, got {n!r}")
    s = text.strip()
    if s[:2].lower() == "0b":
        body = s[2:]
        expected = 1 << n
        if len(body) != expected:
            raise TruthTableError(f"expected {expected} binary digits for n={n}, got {len(body)}")
        for offset, ch in enumerate(body):
            if ch not in "01":
                raise TruthTableError(f"invalid binary digit {ch!r} at offset {offset}")
        return TruthTable(n, int(body, 2))
    if n < 2:
        raise TruthTableError("hex form needs n >= 2; use a 0b binary string for n=1")
    expected = (1 << n) // 4
    if len(s) != expected:
        raise TruthTableError(f"expected {expected} hex digits for n={n}, got {len(s)}")
    for offset, ch in enumerate(s):
        if ch not in _HEX_DIGITS:
            raise TruthTableError(f"invalid hex digit {ch!r} at offset {offset}")
    return TruthTable(n, int(s, 16))


def parse_truth_table_file(text: str) -> TruthTable:
    """Read a .tt file: one table line, optional ``weights:`` line, # comments.

    The input count is inferred from the digit count of the table line.  The
    weights line, if present, must give weight 1 to each of the 2^n vectors.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise TruthTableError("no table line found")
    if len(lines) > 2 or (len(lines) == 2 and not lines[1].startswith("weights:")):
        raise TruthTableError("expected one table line and at most one weights: line")
    first = lines[0]
    if first[:2].lower() == "0b":
        if len(first) == 2:
            raise TruthTableError("no binary digits after 0b")
        n = (len(first) - 2).bit_length() - 1
        if (1 << n) != len(first) - 2:
            raise TruthTableError("binary digit count must be a power of two")
    else:
        if len(first) & (len(first) - 1):
            raise TruthTableError("hex digit count must be a power of two")
        n = len(first).bit_length() + 1
    tt = parse_truth_table(first, n)
    if len(lines) == 2:
        fields = lines[1].split(":", 1)[1].split()
        try:
            weights = [float(f) for f in fields]
        except ValueError as exc:
            raise TruthTableError(f"bad weight entry: {exc}") from None
        if len(weights) != tt.size:
            raise TruthTableError(f"need {tt.size} weights for n={n}, got {len(weights)}")
        if any(w != 1 for w in weights):
            raise TruthTableError("weights other than 1 are not supported")
    return tt
