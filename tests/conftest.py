import os
from pathlib import Path

import pytest

# tests that start ``python -m commalg`` import the package from this checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
)

from quiver_examples import (
    kronecker_quiver,
    oriented_cycle,
    six_cycle,
    six_cycle_with_chord,
    three_block_quiver,
    triangle,
    two_block_quiver,
)


@pytest.fixture
def two_block():
    return two_block_quiver()


@pytest.fixture
def three_block():
    return three_block_quiver()


@pytest.fixture
def cycle6():
    return six_cycle()


@pytest.fixture
def cycle6_chord():
    return six_cycle_with_chord()


@pytest.fixture
def triangle_quiver():
    return triangle()


@pytest.fixture
def kronecker():
    return kronecker_quiver


@pytest.fixture
def cycle():
    return oriented_cycle
