"""Sandwich variants and P-sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.core import NotIdempotent
from semivar.relations import star
from semivar.variants import idempotent_variant, p_sets, variant
from .conftest import full_corpus


def test_variant_of_left_zero_is_itself(left_zero):
    v = variant(left_zero, 0)
    assert v.variant.table == left_zero.table
    assert v.base is left_zero
    assert v.sandwich == 0


def test_variant_of_group_shifts_identity(z2):
    v = variant(z2, 1)
    assert v.variant.table == ((1, 0), (0, 1))
    assert v.variant.identity == 1


def test_variant_of_null_is_null(null2):
    v = variant(null2, 1)
    assert v.variant.table == ((0, 0), (0, 0))


def test_variant_rejects_bad_element(z2):
    with pytest.raises(ValueError):
        variant(z2, 2)
    with pytest.raises(ValueError):
        variant(z2, -1)


def test_idempotent_variant_requires_idempotent(z2, left_zero):
    with pytest.raises(NotIdempotent) as exc:
        idempotent_variant(z2, 1)
    assert exc.value.element == 1
    v = idempotent_variant(left_zero, 1)
    assert v.sandwich == 1


def test_p_sets_of_null(null2):
    ps = p_sets(null2, 1)
    assert ps.p1 == {0}
    assert ps.p2 == {0}
    assert ps.p == {0}


def test_p_sets_of_monoid_at_identity(z2):
    # sandwiching at the identity changes nothing, so P covers everything
    ps = p_sets(z2, 0)
    assert ps.p == {0, 1}
    assert variant(z2, 0).variant.table == z2.table


def test_variant_star_smoke(left_zero):
    st_ = star(variant(left_zero, 0).variant)
    assert st_.r_star.classes == ((0,), (1,))


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_every_variant_is_associative(s):
    # build_semigroup inside variant() re-validates; reaching the end
    # without NotAssociative is the assertion
    for a in range(s.order):
        v = variant(s, a)
        assert v.variant.order == s.order


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_variant_product_definition(s):
    for a in range(s.order):
        vt = variant(s, a).variant
        for x in range(s.order):
            for y in range(s.order):
                assert vt.mul(x, y) == s.mul(s.mul(x, a), y)
                assert vt.mul(x, y) == s.mul(x, s.mul(a, y))


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_p_set_members_keep_their_star_class(s):
    # inside P1 the variant's R* agrees with the base's R* (the
    # restricted transfer checked exhaustively by the claim suite)
    base = star(s)
    for a in range(s.order):
        ps = p_sets(s, a)
        vst = star(variant(s, a).variant)
        p1 = sorted(ps.p1)
        for i, x in enumerate(p1):
            for y in p1[i + 1:]:
                assert vst.r_star.same(x, y) == base.r_star.same(x, y)
