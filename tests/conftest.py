"""Shared fixtures.

The heavy objects (coefficient tables, the N=3 spectrum, node sets,
moment tables) are session scoped so the per-module tests and the
acceptance tests share one computation.
"""

import os
from fractions import Fraction
from pathlib import Path

import pytest

import ptspec
from ptspec import (
    PrecisionContext,
    TruncationParams,
    build_contour,
    build_tables,
    expectation,
    find_nodes,
    pt_pairs,
    spectrum,
)


# one line per acceptance criterion, echoed after the test summary so
# the verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cli_env():
    """The environment for a `python -m ptspec` child process: PYTHONPATH
    starts with the src directory of the imported ptspec, which a
    checkout does not install."""
    src = str(Path(ptspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def p_symmetric_pair(n_exponent):
    """The p-symmetric pair of an even N, found by its flag."""
    (pair,) = [p for p in pt_pairs(n_exponent) if p.p_symmetric]
    return pair


@pytest.fixture(scope="session")
def ctx40():
    return PrecisionContext(40)


@pytest.fixture(scope="session")
def trunc8():
    return TruncationParams()


@pytest.fixture(scope="session")
def table2():
    return build_tables(2, 100)


@pytest.fixture(scope="session")
def table3():
    return build_tables(3, 100)


@pytest.fixture(scope="session")
def table4():
    return build_tables(4, 100)


@pytest.fixture(scope="session")
def table7():
    return build_tables(7, 100)


@pytest.fixture(scope="session")
def pair3():
    return pt_pairs(3)[0]


@pytest.fixture(scope="session")
def levels3(pair3, trunc8, ctx40):
    return spectrum(pair3, 5, trunc8, ctx40)


@pytest.fixture(scope="session")
def nodesets3(levels3):
    # default region: the arch box below the real axis
    return {n: find_nodes(levels3[n]) for n in range(4)}


@pytest.fixture(scope="session")
def contour3(pair3):
    return build_contour(pair3, Fraction(5), "real_line")


@pytest.fixture(scope="session")
def moments3(levels3, contour3):
    out = {}
    for n in range(4):
        for m in range(5):
            out[(m, n)] = expectation(levels3[n], m, contour3)
    return out
