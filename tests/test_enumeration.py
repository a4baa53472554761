"""Exhaustive enumeration and canonical forms."""

import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar import enumeration
from semivar.cli import main
from semivar.core import OrderTooLarge, build_semigroup
from semivar.enumeration import (
    DEDUP_ISO,
    DEDUP_NONE,
    CorpusSpec,
    StopSearch,
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
    original = enumeration.enumerate_semigroups
    emitted = []

    def counting(n, consumer, classes=False, after=None):
        def count(table):
            emitted.append(n)
            consumer(table)  # StopSearch passes through to the search
        return original(n, count, classes=classes, after=after)

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


@pytest.mark.parametrize("classes", [False, True])
def test_iter_corpus_batches_give_the_one_call_stream(monkeypatch, classes):
    monkeypatch.setattr(enumeration, "CORPUS_BATCH", 7)
    dedup = DEDUP_ISO if classes else DEDUP_NONE
    orders = (1, 2, 3, 4)
    stream = []
    for n in orders:
        tables = []
        enumerate_semigroups(n, tables.append, classes=classes)
        stream += [(n, t) for t in tables]
        spec = CorpusSpec(orders=(n,), dedup=dedup)
        assert [s.table for s in iter_corpus(spec)] == tables
    at_2 = 1 + (5 if classes else 8)  # up to the last table of order 2, and past it
    for limit in (1, 7, 8, 10, at_2, at_2 + 1, at_2 + 7, len(stream)):
        got = [(s.order, s.table) for s in iter_corpus(CorpusSpec(orders, dedup, limit))]
        assert got == stream[:limit], limit


@pytest.mark.parametrize("classes", [False, True])
def test_a_search_after_a_table_emits_exactly_the_tables_after_it(classes):
    tables = []
    enumerate_semigroups(4, tables.append, classes=classes)
    for k in (0, len(tables) // 2, len(tables) - 1):
        rest = []
        assert enumerate_semigroups(4, rest.append, classes=classes, after=tables[k]) == len(rest)
        assert rest == tables[k + 1:]
    # not associative, and associative but not its class's leader: only
    # after's own branch is cut
    labeled = collect(3)
    follower = next(t for t in labeled[len(labeled) // 2:]
                    if canonical_form(build_semigroup(3, t)) != t)
    for n, after in ((2, ((0, 1), (0, 0))), (3, follower)):
        every, rest = [], []
        enumerate_semigroups(n, every.append, classes=classes)
        enumerate_semigroups(n, rest.append, classes=classes, after=after)
        assert rest == [t for t in every if t > after]


@pytest.mark.parametrize("classes", [False, True])
def test_a_search_after_the_last_table_emits_nothing(classes):
    for n in (2, 3, 4):
        tables = []
        enumerate_semigroups(n, tables.append, classes=classes)
        for after in (tables[-1], ((n - 1,) * n,) * n):  # the last, and every entry n - 1
            rest = []
            assert enumerate_semigroups(n, rest.append, classes=classes, after=after) == 0
            assert rest == []


def test_after_must_be_n_rows_of_n_ids():
    for after in ([[0, 0]], [[0, 0], [0]], [[0, 0], [0, 0, 0]], [[0, 2], [0, 0]],
                  [[0, -1], [0, 0]], [[0, True], [0, 0]], [[0, "0"], [0, 0]]):
        with pytest.raises(ValueError):
            enumerate_semigroups(2, lambda t: None, after=after)


def test_stop_search_ends_the_search_and_counts_its_table():
    seen = []

    def stop_at_three(table):
        seen.append(table)
        if len(seen) == 3:
            raise StopSearch

    assert enumerate_semigroups(3, stop_at_three) == 3
    assert seen == collect(3)[:3]
    # a truthy return value, such as out.write's, does not stop it
    assert enumerate_semigroups(2, lambda t: 1) == 8
