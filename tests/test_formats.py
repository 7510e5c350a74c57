import hashlib
import random

import pytest

from ptsynth.engine import TemperatureLadder, TraceRow
from ptsynth.formats import (
    NetworkParseError,
    emit_ladder,
    emit_network,
    emit_trace,
    parse_ladder,
    parse_network,
)
from ptsynth.network import (
    NetworkConstraints,
    evaluate_full,
    is_valid,
    random_network,
)
from ptsynth.truthtable import majority_truth_table

from conftest import FIXTURE_SPECS, g, x

FIXTURE_SHA256 = {
    "maj9_inv.mig": "d153205896de9005c2f5ad4035aa322a1098fb98966136d1346c6c76fc9f07ff",
    "maj11_inv.mig": "cc4410afdb0b5d16aeef3325beb3241d25ee513b19373d9dfd39cd8f54e1af8b",
    "maj13_inv.mig": "97f9ef2a8406e6224754888dfe46fa420f3eea0aa5f524f8fc875fc22e6b1c64",
    "maj9_noinv.mig": "4c80722127b171412cdf6621e4968ac59e1c24ca5d7e755bc5bbeb6d73d72abd",
    "maj11_noinv.mig": "b7e027d2923df28aa995149aeb194784cd1eb8336ee844f72c15ec8f1243e512",
    "maj13_noinv.mig": "43cc335092e2ecfeb338105951beb2eb496780df8961c7c8dd60787eb1c4b2b3",
    "maj9_leafy_inv.mig": "f21a64ddc0b595e1b54446eca167a00adc4d54efdd779191fcde0b4d35eabd3d",
    "maj9_leafy_noinv.mig": "bb698ec06a4d8917dd0a15a0f1556d6f8a0a96376b95edf64d35209117560fc2",
}


def test_emit_single_gate_network():
    net = parse_network("inputs 3\ng0 = MAJ(x0, x1, x2)\noutput g0\n")
    assert emit_network(net) == "inputs 3\ng0 = MAJ(x0, x1, x2)\noutput g0\n"


def test_emit_inverted_operands():
    text = "inputs 9\ng0 = MAJ(~x5, ~x1, ~x2)\noutput g0\n"
    net = parse_network(text)
    assert net.codes == [[x(5, True), x(1, True), x(2, True)]]
    assert emit_network(net) == text


def test_parse_accepts_continued_numbering():
    continued = "inputs 3\nx3 = MAJ(x0, x1, x2)\nx4 = MAJ(x3, 0, x2)\noutput x4\n"
    net = parse_network(continued)
    assert net.num_gates == 2
    assert net.codes[1][0] == g(0, 3)
    canonical = emit_network(net)
    assert "g0 = MAJ(x0, x1, x2)" in canonical
    assert parse_network(canonical) == net


def test_parse_handles_comments_and_blank_lines():
    text = "# header\ninputs 3\n\ng0 = MAJ(x0, x1, x2)  # the gate\noutput g0\n"
    assert parse_network(text).num_gates == 1


def test_parse_flags():
    text = "inputs 3\nflags no-inverters leafy\ng0 = MAJ(x0, x1, x2)\noutput g0\n"
    net = parse_network(text)
    assert not net.constraints.inverters_allowed
    assert net.constraints.leafy
    assert emit_network(net) == text


def test_parse_wire_only_network():
    net = parse_network("inputs 2\noutput x1\n")
    assert net.num_gates == 0
    assert net.output_code == x(1)


@pytest.mark.parametrize("text,message", [
    ("inputs 3\ng1 = MAJ(x0, x1, x2)\noutput g1\n", "out of order"),
    ("inputs 3\ng0 = MAJ(x0, x1, g1)\noutput g0\n", "not an earlier gate"),
    ("inputs 3\ng0 = MAJ(x0, x0, x1)\noutput g0\n", "repeats an operand"),
    ("inputs 3\nflags no-inverters\ng0 = MAJ(~x0, x1, x2)\noutput g0\n",
     "inverted"),
    ("inputs 3\ng0 = MAJ(x0, x1)\noutput g0\n", "operands"),
    ("inputs 3\ng0 = MAJ(x0, x1, y2)\noutput g0\n", "bad operand"),
    ("inputs 3\ng0 = MAJ(x0, x1, x2)\n", "missing output"),
    ("g0 = MAJ(x0, x1, x2)\n", "inputs"),
    ("inputs 3\nflags sorted\ng0 = MAJ(x0, x1, x2)\noutput g0\n", "unknown flag"),
    ("inputs 3\ng0 = MAJ(x0, x1, x2)\noutput g0\nextra\n", "after the output"),
    ("inputs 3\nflagsjunk leafy\ng0 = MAJ(x0, x1, x2)\noutput g0\n",
     "unrecognized line 'flagsjunk leafy'"),
    ("inputs 3\ng0 = MAJ(x0, x1, x2)\noutputfoo g0\n",
     "unrecognized line 'outputfoo g0'"),
], ids=["order", "forward", "duplicate", "inverted", "arity", "operand",
        "no-output", "no-inputs", "flag", "trailing", "flags-prefix",
        "output-prefix"])
def test_parse_errors(text, message):
    with pytest.raises(NetworkParseError, match=message):
        parse_network(text)


def test_parse_error_reports_line_number():
    with pytest.raises(NetworkParseError, match="line 3"):
        parse_network("inputs 3\ng0 = MAJ(x0, x1, x2)\ng1 = MAJ(x0, x0, x1)\noutput g1\n")


def test_roundtrip_random_networks():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 9)
        constraints = NetworkConstraints(rng.randrange(1, 12),
                                         inverters_allowed=rng.random() < 0.5,
                                         leafy=rng.random() < 0.5)
        net = random_network(n, constraints, rng)
        text = emit_network(net)
        back = parse_network(text)
        assert back.codes == net.codes
        assert back.output_code == net.output_code
        assert emit_network(back) == text


def test_fixture_checksums_and_roundtrip(fixtures_dir):
    for name, digest in FIXTURE_SHA256.items():
        text = (fixtures_dir / name).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        net = parse_network(text)
        assert emit_network(net) == text
        ok, why = is_valid(net)
        assert ok, (name, why)


def test_fixture_counts_match_published_values(fixtures_dir):
    for name, (n, gates, _, _) in FIXTURE_SPECS.items():
        net = parse_network((fixtures_dir / name).read_text())
        assert (net.n, net.num_gates) == (n, gates), name


def test_trace_text():
    # rows in order, each swap-rate note before the first later row
    rows = [TraceRow(3, 17, 0, None), TraceRow(9, 15, -2, 1.5),
            TraceRow(40, 13, -4, 2.25)]
    text = emit_trace(rows, swap_rate_log=[(20, [0.6, 0.3]), (10, [0.5, 0.25])])
    assert text == ("repetition,best_q,best_score,elapsed_seconds\n"
                    "3,17,0,\n"
                    "9,15,-2,1.5\n"
                    "# swap_rates rep=10 0.5000 0.2500\n"
                    "# swap_rates rep=20 0.6000 0.3000\n"
                    "40,13,-4,2.25\n")


def test_ladder_roundtrip():
    ladder = TemperatureLadder([0.004745, 0.25, 3.25, 12.301363])
    text = emit_ladder(ladder)
    assert parse_ladder(text).betas == ladder.betas
    with pytest.raises(NetworkParseError):
        parse_ladder("0.5\nnope\n")
    with pytest.raises(NetworkParseError):
        parse_ladder("1.0\n0.5\n")
