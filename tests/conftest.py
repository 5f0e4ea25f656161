import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from support import load  # noqa: E402

from toricnets.builder import build_network  # noqa: E402


@pytest.fixture(scope="session")
def p2():
    return load("p2_n3")


@pytest.fixture(scope="session")
def p1p1():
    return load("p1p1_n4")


@pytest.fixture(scope="session")
def fan5():
    return load("fan5_n5")


@pytest.fixture(scope="session")
def r1():
    return load("line_bundle_r1")


@pytest.fixture(scope="session")
def p2_n1():
    return load("p2_n1")


@pytest.fixture(scope="session")
def split_e():
    return load("p2_split_n0")


def built(spec):
    net, layout = build_network(spec.tms, spec.disk)
    return net, layout, layout.cover(spec.tms.degree)


@pytest.fixture(scope="session")
def p2_built(p2):
    return built(p2)


@pytest.fixture(scope="session")
def p1p1_built(p1p1):
    return built(p1p1)


@pytest.fixture(scope="session")
def fan5_built(fan5):
    return built(fan5)


@pytest.fixture(scope="session")
def fan7():
    return load("fan7_n7")


@pytest.fixture(scope="session")
def r1_built(r1):
    return built(r1)


@pytest.fixture(scope="session")
def fan7_built(fan7):
    return built(fan7)
