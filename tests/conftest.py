import sys
from pathlib import Path

import pytest

from tradeflux.network import ImbalanceNetwork

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def net3() -> ImbalanceNetwork:
    """Hand-solved absorbing fixture.

    S sends 2 to A and 1 to B; A forwards 1 to B. Accounts come out as
    S: -3 (consumer), A: +1, B: +2 (producers). A unit from S is absorbed
    at A with probability 1/3 and at B with probability 2/3.
    """
    return ImbalanceNetwork.from_edges(
        [("S", "A", 2.0), ("S", "B", 1.0), ("A", "B", 1.0)]
    )


@pytest.fixture
def trap() -> ImbalanceNetwork:
    """A balanced cycle that rounding turns into a trap, beside P -> Q.

    A spends 0.1, 0.2 and 0.3 along three paths that all return through Z.
    A's out-sum rounds to 0.6000000000000001 and Z's in-sum to 0.6, so A is
    a net consumer (delta_s = -1.1e-16) whose walks can never be absorbed;
    P is a net consumer whose walks all end at Q.
    """
    return ImbalanceNetwork.from_edges([
        ("A", "B", 0.1), ("A", "C", 0.2), ("A", "D", 0.3),
        ("B", "G", 0.1), ("C", "F", 0.2), ("D", "E", 0.3),
        ("E", "Z", 0.3), ("F", "Z", 0.2), ("G", "Z", 0.1),
        ("Z", "A", 0.6), ("P", "Q", 1.0),
    ])
