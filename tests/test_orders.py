"""Natural partial orders, on the base semigroup and on variants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.core import NotIdempotent, idempotents
from semivar.orders import (
    idempotent_leq,
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
    nat = natural_leq(s)
    assert nat.check_reflexive() is None
    assert nat.check_antisymmetric() is None
    assert nat.check_transitive() is None


def test_idempotent_leq(chain3, z2):
    assert idempotent_leq(chain3, 0, 1)
    assert not idempotent_leq(chain3, 1, 0)
    assert idempotent_leq(chain3, 1, 1)
    with pytest.raises(NotIdempotent):
        idempotent_leq(z2, 1, 0)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_natural_order_extends_idempotent_order(s):
    nat = natural_leq(s)
    for e in sorted(idempotents(s)):
        for f in sorted(idempotents(s)):
            assert nat.holds(e, f) == idempotent_leq(s, e, f)


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
        rel = variant_idempotent_leq(s, e)
        assert rel.check_reflexive() is None
        assert rel.check_antisymmetric() is None
        assert rel.check_transitive() is None


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
