"""Exhaustive enumeration and canonical forms."""

import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.cli import main
from semivar.core import OrderTooLarge, build_semigroup
from semivar.enumeration import (
    DEDUP_ISO,
    CorpusSpec,
    canonical_form,
    enumerate_semigroups,
    iter_corpus,
)
from .conftest import full_corpus
from .oracles import automorphism_count, canonical, naive_tables, relabel

LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}  # OEIS A023814


def collect(n):
    tables = []
    enumerate_semigroups(n, tables.append)
    return tables


@pytest.mark.parametrize("n,count", [(1, 1), (2, 8), (3, 113)])
def test_labeled_counts_match_oracle_stream(n, count):
    got = collect(n)
    expected = list(naive_tables(n))
    assert len(got) == count
    assert got == expected  # same tables in the same order


def test_enumerate_returns_count():
    assert enumerate_semigroups(2, lambda t: None) == 8


def test_enumerate_rejects_bad_orders():
    with pytest.raises(ValueError, match="orders must be positive, got 0"):
        enumerate_semigroups(0, lambda t: None)
    # one cap per mode: labeled tables up to order 5, classes up to 6
    with pytest.raises(OrderTooLarge):
        enumerate_semigroups(6, lambda t: None)
    with pytest.raises(OrderTooLarge):
        enumerate_semigroups(7, lambda t: None, classes=True)


def test_canonical_form_matches_oracle(corpus3):
    for s in corpus3:
        assert canonical_form(s) == canonical(s.table)


@given(st.sampled_from(full_corpus(1, 2, 3)), st.data())
def test_canonical_form_is_relabeling_invariant(s, data):
    perm = data.draw(st.permutations(range(s.order)))
    relabeled = build_semigroup(s.order, relabel(s.table, perm))
    assert canonical_form(relabeled) == canonical_form(s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_stream_is_the_canonical_filter_of_the_labeled_stream(n):
    classes = []
    assert enumerate_semigroups(n, classes.append, classes=True) == len(classes)
    expected = [t for t in collect(n) if canonical_form(build_semigroup(n, t)) == t]
    assert classes == expected  # same tables in the same order


# class counts are OEIS A027851
@pytest.mark.parametrize("n,count", [(1, 1), (2, 5), (3, 24), (4, 188)])
def test_dedup_counts(n, count):
    spec = CorpusSpec(orders=(n,), dedup=DEDUP_ISO)
    assert sum(1 for _ in iter_corpus(spec)) == count


def test_order5_class_count(classes5):
    assert len(classes5) == 1915


def test_order5_class_stream_is_canonical_and_ascending(classes5):
    # with the 1,915 count and the orbit sum of 183,732 below, this pins the
    # stream: one canonical table per class, in key order
    tables = [s.table for s in classes5]
    assert all(canonical_form(s) == s.table for s in classes5)
    assert all(a < b for a, b in zip(tables, tables[1:]))


# sha256 of the `semivar enumerate --order 6 --dedup` listing, newlines included
ORDER6_CLASSES = "fa526358d0abf1011febca55763514ba68a13617b789f7a5c7403d6bf48a315d"


@pytest.mark.slow
def test_order6_class_stream_matches_golden_digest(capsys):
    assert main(["enumerate", "--order", "6", "--dedup"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 28634  # A027851
    assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_CLASSES


def test_orbits_of_the_classes_give_back_the_labeled_counts(classes5):
    # orbit-stabilizer: a class of order n holds n!/|Aut S| labeled tables
    for n in range(1, 6):
        if n == 5:
            tables = [s.table for s in classes5]
        else:
            tables = []
            enumerate_semigroups(n, tables.append, classes=True)
        orbits = sum(math.factorial(n) // automorphism_count(t) for t in tables)
        assert orbits == LABELED_COUNTS[n]


def test_dedup_emits_only_canonical_tables():
    for s in iter_corpus(CorpusSpec(orders=(3,), dedup=DEDUP_ISO)):
        assert s.table == canonical_form(s)


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(orders=(2,), dedup="sometimes")
    with pytest.raises(ValueError):
        CorpusSpec(orders=(2,), limit=0)
    with pytest.raises(ValueError):
        CorpusSpec(orders=())
    # the enumerator's caps: labeled tables up to order 5, classes up to 6
    assert CorpusSpec(orders=(5,)).orders == (5,)
    with pytest.raises(OrderTooLarge):
        CorpusSpec(orders=(6,))
    assert CorpusSpec(orders=(6,), dedup=DEDUP_ISO).orders == (6,)
    with pytest.raises(OrderTooLarge):
        CorpusSpec(orders=(7,), dedup=DEDUP_ISO)
    # orders are stored sorted, repeats dropped
    assert CorpusSpec(orders=(3, 2, 3)).orders == (2, 3)


def test_iter_corpus_limit(monkeypatch):
    # the search itself stops at the limit: count what the enumerator emits
    import semivar.enumeration as enumeration

    original = enumeration.enumerate_semigroups
    emitted = []

    def counting(n, consumer, classes=False):
        def count(table):
            emitted.append(n)
            consumer(table)
        return original(n, count, classes=classes)

    monkeypatch.setattr(enumeration, "enumerate_semigroups", counting)
    assert sum(1 for _ in iter_corpus(CorpusSpec(orders=(3,), limit=10))) == 10
    assert emitted == [3] * 10
    emitted.clear()
    assert len(list(iter_corpus(CorpusSpec(orders=(4,), limit=1)))) == 1
    assert emitted == [4]                     # not all 3,492 tables
    emitted.clear()
    orders = [s.order for s in iter_corpus(CorpusSpec(orders=(2, 3), limit=10))]
    assert orders == emitted == [2] * 8 + [3] * 2


def test_iter_corpus_multiple_orders():
    spec = CorpusSpec(orders=(1, 2))
    orders = [s.order for s in iter_corpus(spec)]
    assert orders == [1] + [2] * 8
