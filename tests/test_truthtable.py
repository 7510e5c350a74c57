import random

import pytest

from ptsynth.truthtable import (
    TruthTable,
    TruthTableError,
    majority_truth_table,
    parse_truth_table,
    parse_truth_table_file,
)


def brute_majority_bit(v: int, n: int) -> int:
    ones = sum((v >> i) & 1 for i in range(n))
    return 1 if ones >= (n + 1) // 2 else 0


def test_majority_one_input_is_identity():
    assert majority_truth_table(1).bits == 0b10


def test_majority_three_matches_enumeration():
    tt = majority_truth_table(3)
    for v in range(8):
        assert tt.value(v) == brute_majority_bit(v, 3)
    assert tt.bits == 0xE8


def test_majority_nine_has_half_ones():
    assert majority_truth_table(9).bits.bit_count() == 256


@pytest.mark.parametrize("n", [2, 4, 0, -3, 21])
def test_majority_rejects_bad_n(n):
    with pytest.raises(TruthTableError):
        majority_truth_table(n)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_majority_self_dual(n):
    tt = majority_truth_table(n)
    top = (1 << n) - 1
    for v in range(1 << n):
        assert tt.value(v) == 1 - tt.value(top - v)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_majority_monotone(n):
    tt = majority_truth_table(n)
    for v in range(1 << n):
        for i in range(n):
            if not v & (1 << i):
                assert tt.value(v | (1 << i)) >= tt.value(v)


def test_parse_maj3_hex():
    assert parse_truth_table("E8", 3) == majority_truth_table(3)
    assert parse_truth_table("00", 3).bits == 0
    assert parse_truth_table("FF", 3).bits == 0xFF


def test_parse_binary_form():
    assert parse_truth_table("0b10", 1) == majority_truth_table(1)
    assert parse_truth_table("0b11101000", 3).bits == 0xE8


def test_parse_errors_carry_offset():
    with pytest.raises(TruthTableError, match="2 hex digits"):
        parse_truth_table("E", 3)
    with pytest.raises(TruthTableError, match="offset 1"):
        parse_truth_table("EG", 3)
    with pytest.raises(TruthTableError, match="offset 2"):
        parse_truth_table("0b1021", 2)
    with pytest.raises(TruthTableError):
        parse_truth_table("E8", 1)


def table_text(tt):
    """The canonical text of ``tt``: hex from n = 2, else a 0b string."""
    if tt.n < 2:
        return "0b" + format(tt.bits, f"0{tt.size}b")
    return format(tt.bits, f"0{tt.size // 4}X")


def test_roundtrip_random_tables():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 11)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        assert parse_truth_table(table_text(tt), n) == tt


def test_table_file_roundtrip():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(1, 11)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        assert parse_truth_table_file(table_text(tt) + "\n") == tt
    plain = parse_truth_table_file("# target\nE8\n")
    assert plain == majority_truth_table(3)


def test_table_file_errors():
    with pytest.raises(TruthTableError):
        parse_truth_table_file("# nothing\n")
    with pytest.raises(TruthTableError):
        parse_truth_table_file("E8\nE8\n")
    with pytest.raises(TruthTableError):
        parse_truth_table_file("E8A\n")  # not a power-of-two digit count
    with pytest.raises(TruthTableError):
        parse_truth_table_file("E8\nweights: 1 2 x\n")
    with pytest.raises(TruthTableError, match="no binary digits"):
        parse_truth_table_file("0b\n")
    # the search counts every vector once, so only weight 1 is accepted
    for weights in ("1 " * 7, "1 " * 9, "0 " + "1 " * 7, "-1 " + "1 " * 7,
                    "1 " * 7 + "nan"):
        with pytest.raises(TruthTableError):
            parse_truth_table_file(f"E8\nweights: {weights}\n")
    for one in ("1", "1.0"):
        assert parse_truth_table_file(f"E8\nweights: {' '.join([one] * 8)}\n") \
            == parse_truth_table_file("E8\n")


def test_value_bounds():
    tt = majority_truth_table(3)
    with pytest.raises(TruthTableError):
        tt.value(8)
