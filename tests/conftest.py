import pathlib
import random

import pytest

from ptsynth import NetworkConstraints, TruthTable, random_network
from ptsynth.moves import propose_reassign_one, replacement_pool
from ptsynth.network import PI_BASE

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

FIXTURE_SPECS = {
    # name: (n, gates, inverters_allowed, leafy)
    "maj9_noinv.mig": (9, 13, False, False),
    "maj11_noinv.mig": (11, 20, False, False),
    "maj13_noinv.mig": (13, 28, False, False),
    "maj9_inv.mig": (9, 12, True, False),
    "maj11_inv.mig": (11, 16, True, False),
    "maj13_inv.mig": (13, 24, True, False),
    "maj9_leafy_inv.mig": (9, 13, True, True),
    "maj9_leafy_noinv.mig": (9, 14, False, True),
}


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return REPO_ROOT / "fixtures"


def x(i: int, inv: bool = False) -> int:
    """Operand code of primary input i, inverted when ``inv``."""
    return (PI_BASE + i) << 1 | inv


def g(j: int, n: int, inv: bool = False) -> int:
    """Operand code of gate j of a network over n inputs."""
    return (PI_BASE + n + j) << 1 | inv


def const(v: int) -> int:
    """Operand code of constant v."""
    return v << 1


def random_problem(rng: random.Random, max_n: int = 8, max_p: int = 20):
    """A random (network, table) pair over random constraints."""
    n = rng.randrange(1, max_n + 1)
    p = rng.randrange(1, max_p + 1)
    constraints = NetworkConstraints(p, inverters_allowed=rng.random() < 0.5,
                                     leafy=rng.random() < 0.5)
    net = random_network(n, constraints, rng)
    table = TruthTable(n, rng.getrandbits(1 << n))
    return net, table


def random_location(net, rng: random.Random) -> tuple[int, int]:
    """A uniformly drawn (gate, slot) gate input."""
    gate = rng.randrange(net.num_gates)
    return gate, rng.randrange(3)


def random_reassign_one(net, rng: random.Random):
    """Reassign-one edits at a random gate input: up to 16 draws of a
    location until one admits a replacement, else None."""
    for _ in range(16):
        gate, slot = random_location(net, rng)
        edits = propose_reassign_one(net, rng, gate, slot,
                                     replacement_pool(net, gate, slot))
        if edits is not None:
            return edits
    return None
