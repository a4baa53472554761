"""Shared fixtures: small named tables, the exhaustive order <= 3 corpus
and the order-5 isomorphism classes."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings

from semivar import build_semigroup, claims
from semivar.enumeration import DEDUP_ISO, CorpusSpec, iter_corpus

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def clear_claim_caches():
    """Empty every lru_cache of the claims module."""
    for value in vars(claims).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_claim_caches():
    # a cached object built under one test's patched builder must not
    # reach the next test
    clear_claim_caches()
    yield
    clear_claim_caches()


@lru_cache(maxsize=None)
def full_corpus(*orders):
    """Every labeled semigroup of the given orders, built once."""
    return tuple(iter_corpus(CorpusSpec(orders=orders)))


# hand-checked reference tables used all over the suite
LEFT_ZERO = ((0, 0), (1, 1))        # xy = x
RIGHT_ZERO = ((0, 1), (0, 1))       # xy = y
Z2 = ((0, 1), (1, 0))               # group of order 2, identity 0
NULL2 = ((0, 0), (0, 0))            # xy = 0
MIN2 = ((0, 0), (0, 1))             # semilattice: min on {0 < 1}
CHAIN3 = ((0, 0, 0), (0, 1, 1), (0, 1, 2))  # semilattice: min on a 3-chain
NOT_ASSOCIATIVE = ((1, 0), (0, 0))  # (0.0).1 != 0.(0.1)


@pytest.fixture
def left_zero():
    return build_semigroup(2, LEFT_ZERO)


@pytest.fixture
def right_zero():
    return build_semigroup(2, RIGHT_ZERO)


@pytest.fixture
def z2():
    return build_semigroup(2, Z2)


@pytest.fixture
def null2():
    return build_semigroup(2, NULL2)


@pytest.fixture
def min2():
    return build_semigroup(2, MIN2)


@pytest.fixture
def chain3():
    return build_semigroup(3, CHAIN3)


@pytest.fixture(scope="session")
def corpus3():
    """Every labeled semigroup of order 1, 2, 3 (122 tables)."""
    return full_corpus(1, 2, 3)


@pytest.fixture(scope="session")
def corpus2():
    """Every labeled semigroup of order 2 (8 tables)."""
    return full_corpus(2)


@pytest.fixture(scope="session")
def classes5():
    """One table per isomorphism class of order 5 (1,915 tables)."""
    return tuple(iter_corpus(CorpusSpec(orders=(5,), dedup=DEDUP_ISO)))


def rectangular_band(rows: int, cols: int):
    """The rows x cols rectangular band: (i,j)(k,l) = (i,l)."""
    n = rows * cols
    table = [
        [(x // cols) * cols + (y % cols) for y in range(n)]
        for x in range(n)
    ]
    return build_semigroup(n, table)


def cyclic(n: int):
    """The cyclic group Z_n with identity 0."""
    return build_semigroup(n, [[(x + y) % n for y in range(n)] for x in range(n)])


@pytest.fixture(scope="session")
def cli_reports3(tmp_path_factory):
    """{strict_u: path} of the reports `semivar check --orders 1,2,3
    --claims all` writes without and with --strict-u."""
    from semivar.cli import main

    paths = {}
    for strict_u in (False, True):
        paths[strict_u] = tmp_path_factory.mktemp("reports") / f"strict{int(strict_u)}.jsonl"
        argv = ["check", "--orders", "1,2,3", "--out", str(paths[strict_u])]
        assert main(argv + ["--strict-u"] * strict_u) == 0
    return paths
