"""Generate the published-solution fixture files.

Each network is transcribed in the x-numbered form (gates continue the
primary-input numbering), parsed, verified exactly against the Majority-n
truth table with both evaluators, and re-emitted in canonical form.
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ptsynth import evaluate_full, is_valid, majority_truth_table
from ptsynth.formats import emit_network, parse_network
from ptsynth import oracle

MAJ9_INV = """
inputs 9
x9 = MAJ(~x5, ~x1, ~x2)
x10 = MAJ(x7, x4, x0)
x11 = MAJ(~x6, x3, x8)
x12 = MAJ(x5, ~x1, ~x2)
x13 = MAJ(x11, x6, x10)
x14 = MAJ(x10, ~x0, ~x7)
x15 = MAJ(~x3, ~x6, ~x8)
x16 = MAJ(x6, x11, ~x10)
x17 = MAJ(~x12, x5, x13)
x18 = MAJ(x15, ~x10, x9)
x19 = MAJ(x16, ~x14, x4)
x20 = MAJ(~x18, x17, x19)
output x20
"""

MAJ11_INV = """
inputs 11
x11 = MAJ(x2, x7, ~x5)
x12 = MAJ(x6, x1, ~x0)
x13 = MAJ(~x5, ~x7, ~x2)
x14 = MAJ(x13, x11, x5)
x15 = MAJ(~x6, ~x1, ~x0)
x16 = MAJ(x10, x8, x4)
x17 = MAJ(~x14, ~x3, x9)
x18 = MAJ(~x13, x16, ~x15)
x19 = MAJ(x10, ~x8, x4)
x20 = MAJ(x14, x9, x3)
x21 = MAJ(x17, ~x9, ~x18)
x22 = MAJ(~x16, x13, ~x20)
x23 = MAJ(~x12, ~x0, x22)
x24 = MAJ(x13, ~x20, x15)
x25 = MAJ(x8, x19, ~x24)
x26 = MAJ(x25, ~x23, ~x21)
output x26
"""

MAJ13_INV = """
inputs 13
x13 = MAJ(~x6, ~x10, ~x12)
x14 = MAJ(~x4, ~x3, x11)
x15 = MAJ(x0, x8, x9)
x16 = MAJ(~x4, ~x3, ~x14)
x17 = MAJ(~x2, ~x5, ~x1)
x18 = MAJ(~x6, x10, ~x12)
x19 = MAJ(x15, ~x9, ~x0)
x20 = MAJ(~x11, x14, x13)
x21 = MAJ(~x2, ~x17, ~x1)
x22 = MAJ(~x11, x14, ~x13)
x23 = MAJ(x16, x18, ~x10)
x24 = MAJ(~x21, ~x15, ~x5)
x25 = MAJ(~x23, x16, ~x10)
x26 = MAJ(x24, x21, x23)
x27 = MAJ(~x24, ~x15, ~x5)
x28 = MAJ(~x13, ~x27, ~x22)
x29 = MAJ(~x19, x8, x17)
x30 = MAJ(x7, ~x26, x28)
x31 = MAJ(x28, x7, ~x30)
x32 = MAJ(~x19, ~x29, x8)
x33 = MAJ(~x18, ~x25, x32)
x34 = MAJ(x33, x31, ~x26)
x35 = MAJ(x29, ~x20, ~x17)
x36 = MAJ(x34, x35, x30)
output x36
"""

MAJ9_NOINV = """
inputs 9
flags no-inverters
x9 = MAJ(x6, x3, x2)
x10 = MAJ(x6, x4, x1)
x11 = MAJ(x8, x5, x0)
x12 = MAJ(x9, x10, x7)
x13 = MAJ(x3, x7, x11)
x14 = MAJ(x2, x3, x7)
x15 = MAJ(x8, x0, x12)
x16 = MAJ(x2, x13, x11)
x17 = MAJ(x16, x4, x6)
x18 = MAJ(x15, x12, x5)
x19 = MAJ(x17, x1, x16)
x20 = MAJ(x10, x14, x11)
x21 = MAJ(x18, x19, x20)
output x21
"""

MAJ11_NOINV = """
inputs 11
flags no-inverters
x11 = MAJ(x0, x8, x6)
x12 = MAJ(x3, x5, x1)
x13 = MAJ(x7, x9, x12)
x14 = MAJ(x9, x11, x7)
x15 = MAJ(x13, x10, x12)
x16 = MAJ(x11, x14, x10)
x17 = MAJ(x2, x16, x15)
x18 = MAJ(x10, x7, x9)
x19 = MAJ(x18, x12, x11)
x20 = MAJ(x2, x11, x18)
x21 = MAJ(x4, x15, x2)
x22 = MAJ(x20, x4, x16)
x23 = MAJ(x22, x1, x5)
x24 = MAJ(x4, x19, x17)
x25 = MAJ(x21, x18, x12)
x26 = MAJ(x22, x3, x23)
x27 = MAJ(x6, x8, x25)
x28 = MAJ(x25, x0, x27)
x29 = MAJ(x24, x2, x19)
x30 = MAJ(x28, x29, x26)
output x30
"""

MAJ13_NOINV = """
inputs 13
flags no-inverters
x13 = MAJ(x8, x10, x11)
x14 = MAJ(x7, x9, x5)
x15 = MAJ(x1, x6, x2)
x16 = MAJ(x11, x10, x15)
x17 = MAJ(x14, x4, x3)
x18 = MAJ(x3, x4, x0)
x19 = MAJ(x18, x7, x5)
x20 = MAJ(x15, x8, x16)
x21 = MAJ(x0, x17, x14)
x22 = MAJ(x13, x1, x6)
x23 = MAJ(x0, x20, x3)
x24 = MAJ(x19, x18, x9)
x25 = MAJ(x2, x1, x24)
x26 = MAJ(x24, x11, x8)
x27 = MAJ(x4, x20, x14)
x28 = MAJ(x21, x10, x26)
x29 = MAJ(x22, x2, x13)
x30 = MAJ(x5, x29, x9)
x31 = MAJ(x23, x27, x20)
x32 = MAJ(x25, x6, x24)
x33 = MAJ(x15, x21, x28)
x34 = MAJ(x13, x24, x32)
x35 = MAJ(x29, x30, x7)
x36 = MAJ(x18, x35, x29)
x37 = MAJ(x31, x33, x12)
x38 = MAJ(x12, x36, x31)
x39 = MAJ(x36, x37, x33)
x40 = MAJ(x39, x34, x38)
output x40
"""

MAJ9_LEAFY_INV = """
inputs 9
flags leafy
x9 = MAJ(x6, x8, x3)
x10 = MAJ(x7, x2, x1)
x11 = MAJ(x7, ~x2, ~x1)
x12 = MAJ(~x5, ~x4, ~x3)
x13 = MAJ(x10, x4, x9)
x14 = MAJ(x7, x9, ~x11)
x15 = MAJ(~x10, ~x5, ~x4)
x16 = MAJ(~x13, ~x14, ~x5)
x17 = MAJ(~x3, ~x14, x12)
x18 = MAJ(~x11, ~x15, x7)
x19 = MAJ(~x17, x8, ~x9)
x20 = MAJ(x6, x19, x18)
x21 = MAJ(x0, x20, ~x16)
output x21
"""

MAJ9_LEAFY_NOINV = """
inputs 9
flags no-inverters leafy
x9 = MAJ(x1, x8, x3)
x10 = MAJ(x9, x6, x4)
x11 = MAJ(x0, x6, x4)
x12 = MAJ(x0, x9, x10)
x13 = MAJ(x0, x6, x7)
x14 = MAJ(x11, x9, x7)
x15 = MAJ(x5, x12, x14)
x16 = MAJ(x11, x5, x7)
x17 = MAJ(x14, x2, x5)
x18 = MAJ(x16, x4, x13)
x19 = MAJ(x17, x12, x8)
x20 = MAJ(x19, x3, x18)
x21 = MAJ(x20, x1, x18)
x22 = MAJ(x15, x21, x2)
output x22
"""

FIXTURES = {
    "maj9_inv.mig": (MAJ9_INV, 9, 12),
    "maj11_inv.mig": (MAJ11_INV, 11, 16),
    "maj13_inv.mig": (MAJ13_INV, 13, 24),
    "maj9_noinv.mig": (MAJ9_NOINV, 9, 13),
    "maj11_noinv.mig": (MAJ11_NOINV, 11, 20),
    "maj13_noinv.mig": (MAJ13_NOINV, 13, 28),
    "maj9_leafy_inv.mig": (MAJ9_LEAFY_INV, 9, 13),
    "maj9_leafy_noinv.mig": (MAJ9_LEAFY_NOINV, 9, 14),
}


def check(ok: bool, name: str, why: str) -> None:
    """A verification step that ``python -O`` keeps, unlike ``assert``."""
    if not ok:
        raise RuntimeError(f"{name}: {why}")


def main() -> None:
    outdir = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    outdir.mkdir(exist_ok=True)
    for name, (text, n, gates) in FIXTURES.items():
        net = parse_network(text)
        ok, why = is_valid(net)
        check(ok, name, why)
        check(net.n == n and net.num_gates == gates, name,
              f"n={net.n} with {net.num_gates} gates, expected n={n} "
              f"with {gates}")
        tt = majority_truth_table(n)
        cache = evaluate_full(net, tt)
        check(cache.error == 0, name, f"error {cache.error}")
        check(oracle.exhaustive_error(net, tt) == 0, name,
              "the oracle finds an error")
        canonical = emit_network(net)
        reparsed = parse_network(canonical)
        check(emit_network(reparsed) == canonical, name,
              "the canonical form does not round-trip")
        path = outdir / name
        path.write_text(canonical)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        print(f'    "{name}": "{digest}",')


if __name__ == "__main__":
    main()
