"""Natural partial orders, on the base semigroup and on variants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.claims import _law_violation
from semivar.core import NotIdempotent, idempotents
from semivar.orders import (
    OrderRelation,
    idempotent_order,
    natural_leq,
    variant_idempotent_leq,
    variant_leq,
)
from .conftest import full_corpus
from .oracles import natural_leq as natural_leq_oracle


def test_natural_order_on_left_zero(left_zero):
    nat = natural_leq(left_zero)
    assert nat.holds(0, 0) and nat.holds(1, 1)
    # 0 = 1.y has no solution, so 0 never sits below 1
    assert not nat.holds(0, 1)
    assert not nat.holds(1, 0)


def test_natural_order_on_null(null2):
    nat = natural_leq(null2)
    assert nat.holds(0, 1)
    assert not nat.holds(1, 0)


def test_natural_order_on_chain(chain3):
    nat = natural_leq(chain3)
    for a in range(3):
        for b in range(3):
            assert nat.holds(a, b) == (a <= b)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_natural_order_matches_oracle(s):
    nat = natural_leq(s)
    for a in range(s.order):
        for b in range(s.order):
            assert nat.holds(a, b) == natural_leq_oracle(s.table, a, b)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_natural_order_is_a_partial_order(s):
    # an empirical fact over this corpus, frozen as a regression
    assert _law_violation(natural_leq(s)) is None


def test_idempotent_leq(chain3, z2):
    leq = idempotent_order(chain3)
    assert leq.holds(0, 1)
    assert not leq.holds(1, 0)
    assert leq.holds(1, 1)
    # the order lives on E(S) alone
    assert idempotent_order(z2).elements == (0,)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_natural_order_extends_idempotent_order(s):
    nat, usual = natural_leq(s), idempotent_order(s)
    assert usual.elements == tuple(sorted(idempotents(s)))
    for e in usual.elements:
        for f in usual.elements:
            assert nat.holds(e, f) == usual.holds(e, f)


def test_variant_idempotent_leq_on_left_zero(left_zero):
    # the variant at 0 is the left-zero band itself; x <= y there needs
    # y*x = y = x... so only reflexive pairs survive
    rel = variant_idempotent_leq(left_zero, 0)
    assert rel.elements == (0, 1)
    assert rel.holds(0, 0) and rel.holds(1, 1)
    assert not rel.holds(0, 1) and not rel.holds(1, 0)


def test_variant_idempotent_leq_rejects_bad_sandwich(z2):
    for leq in (variant_idempotent_leq, variant_leq):
        with pytest.raises(NotIdempotent):
            leq(z2, 1)
        with pytest.raises(ValueError):
            leq(z2, 2)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_variant_idempotent_order_is_partial_order(s):
    for e in sorted(idempotents(s)):
        assert _law_violation(variant_idempotent_leq(s, e)) is None


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_variant_order_implies_base_order(s):
    nat = natural_leq(s)
    for e in sorted(idempotents(s)):
        vle = variant_leq(s, e)
        for a in range(s.order):
            for b in range(s.order):
                if vle.holds(a, b):
                    assert nat.holds(a, b)


def test_variant_leq_matches_variant_natural_order(min2):
    # the variant at the identity of a monoid is the monoid itself
    assert min2.identity == 1
    vle = variant_leq(min2, 1)
    nat = natural_leq(min2)
    for a in range(2):
        for b in range(2):
            assert vle.holds(a, b) == nat.holds(a, b)


def test_law_violation_names_the_first_broken_law():
    # reflexivity, then antisymmetry, then transitivity, each in scan order
    def rel(*rows):
        return OrderRelation((3, 5, 7), tuple(tuple(bool(v) for v in row) for row in rows))

    assert _law_violation(rel((1, 0, 0), (0, 1, 0), (0, 0, 1))) is None
    assert _law_violation(rel((1, 1, 1), (1, 0, 1), (1, 1, 0))) == {"law": "reflexivity", "x": 5}
    assert _law_violation(rel((1, 0, 1), (0, 1, 1), (1, 1, 1))) == {
        "law": "antisymmetry", "x": 3, "y": 7}
    assert _law_violation(rel((1, 1, 0), (0, 1, 1), (0, 0, 1))) == {
        "law": "transitivity", "x": 3, "y": 5, "z": 7}
