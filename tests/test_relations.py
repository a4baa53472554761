"""Green's relations, starred and tilde relations, abundance."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar import claims
from semivar.core import adjoin_identity, idempotents, is_regular
from semivar.relations import (
    CarrierMismatch,
    EmptyU,
    Equivalence,
    NotIdempotentMember,
    compose,
    green,
    is_abundant,
    join,
    meet,
    star,
    tilde,
)
from semivar.sgt import inline_table
from .conftest import full_corpus
from .oracles import j_classes


# --- the Equivalence container -------------------------------------------


def test_from_keys_groups_by_value():
    eq = Equivalence.from_keys(4, ["a", "b", "a", "c"])
    assert eq.classes == ((0, 2), (1,), (3,))
    assert eq.same(0, 2) and not eq.same(0, 1)
    assert eq.class_of(2) == (0, 2)
    assert eq.num_classes == 3


def test_from_keys_refuses_fewer_keys_than_elements():
    # every element must have a key: a short key list is no partition of 0..n-1
    with pytest.raises(IndexError):
        Equivalence.from_keys(4, ["a", "b", "a"])
    with pytest.raises(IndexError):
        Equivalence.from_keys(2, [])


def test_identity_and_universal():
    assert Equivalence.identity(3).classes == ((0,), (1,), (2,))
    assert Equivalence.universal(3).classes == ((0, 1, 2),)


def test_from_blocks_validates():
    eq = Equivalence.from_blocks(3, [[2, 1], [0]])
    assert eq.same(1, 2)
    with pytest.raises(ValueError):
        Equivalence.from_blocks(3, [[0, 1]])  # 2 missing
    with pytest.raises(ValueError):
        Equivalence.from_blocks(3, [[0, 1], [1, 2]])  # overlap


def test_meet_join_compose():
    p = Equivalence.from_blocks(4, [[0, 1], [2, 3]])
    q = Equivalence.from_blocks(4, [[0, 1, 2], [3]])
    assert meet(p, q).classes == ((0, 1), (2,), (3,))
    assert join(p, q).classes == ((0, 1, 2, 3),)
    # composition p o q relates x to z when x-p-y-q-z for some y
    assert (3, 2) in compose(p, q)
    assert (0, 2) in compose(q, p)
    with pytest.raises(CarrierMismatch):
        meet(p, Equivalence.identity(3))


def test_refines():
    fine = Equivalence.identity(3)
    coarse = Equivalence.universal(3)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)


# --- Green's relations: frozen hand-checked values ------------------------


def test_green_left_zero(left_zero):
    g = green(left_zero)
    assert g.l.classes == ((0, 1),)
    assert g.r.classes == ((0,), (1,))
    assert meet(g.l, g.r).classes == ((0,), (1,))
    assert join(g.l, g.r).classes == ((0, 1),)


def test_green_right_zero(right_zero):
    g = green(right_zero)
    assert g.l.classes == ((0,), (1,))
    assert g.r.classes == ((0, 1),)


def test_green_group_is_universal(z2):
    g = green(z2)
    for rel in (g.l, g.r, meet(g.l, g.r), join(g.l, g.r)):
        assert rel.classes == ((0, 1),)


def test_green_null_is_trivial(null2):
    g = green(null2)
    for rel in (g.l, g.r, meet(g.l, g.r), join(g.l, g.r)):
        assert rel.classes == ((0,), (1,))


def test_green_semilattice_is_trivial(chain3):
    g = green(chain3)
    assert g.l.classes == ((0,), (1,), (2,))
    assert join(g.l, g.r).classes == ((0,), (1,), (2,))


# --- starred relations -----------------------------------------------------


def test_star_left_zero(left_zero):
    st_ = star(left_zero)
    assert st_.l_star.classes == ((0, 1),)
    assert st_.r_star.classes == ((0,), (1,))
    assert meet(st_.l_star, st_.r_star).classes == ((0,), (1,))
    assert join(st_.l_star, st_.r_star).classes == ((0, 1),)


def test_star_null_is_trivial(null2):
    st_ = star(null2)
    assert st_.l_star.classes == ((0,), (1,))
    assert st_.r_star.classes == ((0,), (1,))


def _cancel_same(s, a, b, side):
    t1, _ = adjoin_identity(s)
    n1 = t1.order
    if side == "R":
        return all(
            (t1.mul(x, a) == t1.mul(y, a)) == (t1.mul(x, b) == t1.mul(y, b))
            for x in range(n1)
            for y in range(n1)
        )
    return all(
        (t1.mul(a, x) == t1.mul(a, y)) == (t1.mul(b, x) == t1.mul(b, y))
        for x in range(n1)
        for y in range(n1)
    )


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_star_matches_cancellation_condition(s):
    st_ = star(s)
    for a in range(s.order):
        for b in range(s.order):
            assert st_.r_star.same(a, b) == _cancel_same(s, a, b, "R")
            assert st_.l_star.same(a, b) == _cancel_same(s, a, b, "L")


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_green_refines_star(s):
    g = green(s)
    st_ = star(s)
    assert g.l.refines(st_.l_star)
    assert g.r.refines(st_.r_star)
    assert meet(g.l, g.r).refines(meet(st_.l_star, st_.r_star))


def _transitive_closure(pairs):
    closure = set(pairs)
    while True:
        step = {(x, z) for x, y in closure for y2, z in closure if y == y2}
        if step <= closure:
            return frozenset(closure)
        closure |= step


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_h_is_meet_and_d_is_join(s):
    # H = L & R and D = L o R = R o L (Howie, Fundamentals, §2.1), read off
    # the pair sets; D* is only the transitive closure of L* | R*
    g = green(s)
    assert meet(g.l, g.r).pairs() == g.l.pairs() & g.r.pairs()
    assert join(g.l, g.r).pairs() == compose(g.l, g.r) == compose(g.r, g.l)
    st_ = star(s)
    ls, rs = st_.l_star.pairs(), st_.r_star.pairs()
    assert meet(st_.l_star, st_.r_star).pairs() == ls & rs
    assert join(st_.l_star, st_.r_star).pairs() == _transitive_closure(ls | rs)


def test_j_matches_the_principal_ideal_oracle(classes5):
    # J is taken to be D, the join of L and R; the oracle builds J from
    # S^1aS^1 directly
    for s in itertools.chain(full_corpus(1, 2, 3, 4), classes5):
        g = green(s)
        assert set(map(frozenset, join(g.l, g.r).classes)) == j_classes(s.table), s.table


# --- tilde relations -------------------------------------------------------


def test_tilde_min2(min2):
    td = tilde(min2, {1})
    assert td.l_tilde.classes == ((0, 1),)
    assert td.r_tilde.classes == ((0, 1),)
    td0 = tilde(min2, {0})
    assert td0.l_tilde.classes == ((0,), (1,))


def test_tilde_validates_u(min2, z2):
    with pytest.raises(EmptyU):
        tilde(min2, set())
    with pytest.raises(NotIdempotentMember):
        tilde(min2, {0, 5})
    with pytest.raises(NotIdempotentMember):
        tilde(z2, {1})  # 1 is not idempotent in Z_2
    # members must be element ids: neither a bool nor a float passes as 1
    for member in (True, 1.0):
        with pytest.raises(NotIdempotentMember) as err:
            tilde(min2, {member})
        assert err.value.element is member


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_star_refines_tilde_at_full_e(s):
    es = idempotents(s)
    if not es:
        return
    st_ = star(s)
    td = tilde(s, es)
    assert st_.l_star.refines(td.l_tilde)
    assert st_.r_star.refines(td.r_tilde)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_regular_semigroups_have_matching_green_and_star(s):
    if not is_regular(s):
        return
    g = green(s)
    st_ = star(s)
    assert g.l == st_.l_star
    assert g.r == st_.r_star


# --- abundance -------------------------------------------------------------


def test_abundance(left_zero, null2, z2):
    assert is_abundant(left_zero, star(left_zero))
    assert is_abundant(z2, star(z2))
    assert not is_abundant(null2, star(null2))


def test_weak_abundance_strict_flag(min2):
    # the tilde classes at U = {0} are {0} and {1}; the class {1} meets
    # E(S) = {0, 1} but not U itself.  claims._unabundant is the one
    # production test of weak U-abundance, for C-1.4 and C-2.6
    claims._hold(inline_table(min2))
    u = frozenset({0})
    assert claims._unabundant(min2, u, claims.Options()) is None
    assert claims._unabundant(min2, u, claims.Options(strict_u=True)) == {
        "relation": "L~", "element": 1}
