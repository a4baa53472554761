"""Sandwich variants and P-sets."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.congruences import all_congruences, induced_subsemigroup, quotient
from semivar.core import (
    NotIdempotent,
    adjoin_identity,
    build_semigroup,
    translate_set,
)
from semivar.relations import star
from semivar.variants import idempotent_variant, p_sets, variant
from .conftest import full_corpus


def test_variant_of_left_zero_is_itself(left_zero):
    assert variant(left_zero, 0).table == left_zero.table


def test_variant_of_group_shifts_identity(z2):
    v = variant(z2, 1)
    assert v.table == ((1, 0), (0, 1))
    assert v.identity == 1


def test_variant_of_null_is_null(null2):
    assert variant(null2, 1).table == ((0, 0), (0, 0))


def test_variant_rejects_bad_element(z2):
    with pytest.raises(ValueError):
        variant(z2, 2)
    with pytest.raises(ValueError):
        variant(z2, -1)


def test_idempotent_variant_requires_idempotent(z2, left_zero):
    with pytest.raises(NotIdempotent) as exc:
        idempotent_variant(z2, 1)
    assert exc.value.element == 1
    assert idempotent_variant(left_zero, 1) == variant(left_zero, 1)


def test_p_sets_of_null(null2):
    ps = p_sets(null2, 1, star(null2))
    assert ps.p1 == {0}
    assert ps.p2 == {0}


def test_p_sets_of_monoid_at_identity(z2):
    # sandwiching at the identity changes nothing, so P covers everything
    ps = p_sets(z2, 0, star(z2))
    assert ps.p1 & ps.p2 == {0, 1}
    assert variant(z2, 0).table == z2.table


def test_p_is_the_local_monoid_ese(classes5):
    """P^e = eSe for every idempotent e.

    P^e = P1 & P2, and the starred relations quantify over S^1.  For x in
    P1, ex R* x; take s = e and t = 1 in S^1: e.(ex) = 1.(ex), so
    e.x = 1.x, that is ex = x.  Dually x in P2 gives xe = x, so P^e is
    inside eSe; conversely x in eSe has ex = x = xe, so x is in P1 and P2.
    """
    pairs = 0
    for s in itertools.chain(full_corpus(1, 2, 3, 4), classes5):
        t, bundle = s.table, star(s)
        for e in s.elements:
            if t[e][e] == e:
                ese = {t[t[e][x]][e] for x in s.elements}
                ps = p_sets(s, e, bundle)
                assert ps.p1 & ps.p2 == ese, (s.table, e)
                pairs += 1
    assert pairs == 15764


def test_variant_star_smoke(left_zero):
    st_ = star(variant(left_zero, 0))
    assert st_.r_star.classes == ((0,), (1,))


def _assert_revalidates(t):
    # the internal builders skip validation; build_semigroup must accept
    # their tables unchanged and find the same identity
    checked = build_semigroup(t.order, t.table)
    assert checked == t
    assert checked.identity == t.identity


def test_every_variant_is_associative():
    for s in full_corpus(1, 2, 3):
        for a in range(s.order):
            v = variant(s, a)
            assert v.order == s.order
            _assert_revalidates(v)
        _assert_revalidates(adjoin_identity(s)[0])
        for p in all_congruences(s):
            _assert_revalidates(quotient(s, p))
        for u in range(s.order):
            _assert_revalidates(induced_subsemigroup(s, translate_set(s, u)))


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_variant_product_definition(s):
    for a in range(s.order):
        vt = variant(s, a)
        for x in range(s.order):
            for y in range(s.order):
                assert vt.table[x][y] == s.table[s.table[x][a]][y]
                assert vt.table[x][y] == s.table[x][s.table[a][y]]


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_p_set_members_keep_their_star_class(s):
    # inside P1 the variant's R* agrees with the base's R* (the
    # restricted transfer checked exhaustively by the claim suite)
    base = star(s)
    for a in range(s.order):
        ps = p_sets(s, a, base)
        vst = star(variant(s, a))
        p1 = sorted(ps.p1)
        for i, x in enumerate(p1):
            for y in p1[i + 1:]:
                assert vst.r_star.same(x, y) == base.r_star.same(x, y)
