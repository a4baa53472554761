"""Congruences, quotients, the u-translation map, isomorphism search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.core import OrderTooLarge, build_semigroup, translate_set
from semivar.congruences import (
    KIND_LEFT,
    KIND_NONE,
    KIND_RIGHT,
    KIND_TWO_SIDED,
    NotACongruence,
    all_congruences,
    are_isomorphic,
    congruence_kind,
    induced_subsemigroup,
    is_fundamental,
    principal_congruence,
    quotient,
    sandwich_lambda,
    sandwich_rho,
    u_translate_hom,
)
from semivar.relations import Equivalence
from semivar.variants import variant
from .conftest import full_corpus
from .oracles import is_congruence, iso_exists, set_partitions


def test_congruence_kind_on_chain(chain3):
    good = Equivalence.from_blocks(3, [[0, 1], [2]])
    bad = Equivalence.from_blocks(3, [[0, 2], [1]])
    assert congruence_kind(chain3, good) == KIND_TWO_SIDED
    assert congruence_kind(chain3, bad) == KIND_NONE


def test_congruence_kind_detects_one_sided():
    # 2 is a left identity over a null block, so gluing {0, 2} respects
    # left translation only: 0.1 = 0 but 2.1 = 1
    s = build_semigroup(3, [[0, 0, 0], [0, 0, 0], [0, 1, 2]])
    p = Equivalence.from_blocks(3, [[0, 2], [1]])
    assert congruence_kind(s, p) == KIND_LEFT
    # its transpose flips the side
    st = build_semigroup(3, [[0, 0, 0], [0, 0, 1], [0, 0, 2]])
    assert congruence_kind(st, p) == KIND_RIGHT


def test_congruence_kind_matches_the_definition_on_every_partition():
    # both one-sided conditions read straight from the definition, over
    # every partition of every table of orders 1-3
    kinds = {(True, True): KIND_TWO_SIDED, (True, False): KIND_LEFT,
             (False, True): KIND_RIGHT, (False, False): KIND_NONE}
    seen = set()
    for s in full_corpus(1, 2, 3):
        t, r = s.table, range(s.order)
        for part in set_partitions(s.order):
            p = Equivalence.from_blocks(s.order, part)
            pairs = [(x, y) for b in part for x in b for y in b]
            left = all(p.same(t[z][x], t[z][y]) for x, y in pairs for z in r)
            right = all(p.same(t[x][z], t[y][z]) for x, y in pairs for z in r)
            assert congruence_kind(s, p) == kinds[left, right], (t, part)
            seen.add(kinds[left, right])
    assert seen == set(kinds.values())


def test_principal_congruence_on_chain(chain3):
    p = principal_congruence(chain3, 0, 1)
    assert p.classes == ((0, 1), (2,))
    q = principal_congruence(chain3, 1, 2)
    assert q.classes == ((0,), (1, 2))


def test_all_congruences_of_null(null2):
    cs = all_congruences(null2)
    assert [c.classes for c in cs] == [((0, 1),), ((0,), (1,))]


def test_all_congruences_of_group(z2):
    cs = all_congruences(z2)
    assert len(cs) == 2  # the trivial one and the universal one


def test_all_congruences_respects_order_bound():
    big = build_semigroup(9, [[x] * 9 for x in range(9)])  # left-zero band
    with pytest.raises(OrderTooLarge):
        all_congruences(big)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_all_congruences_matches_partition_filter(s):
    produced = {c.classes for c in all_congruences(s)}
    expected = {
        tuple(tuple(sorted(b)) for b in sorted(part, key=min))
        for part in set_partitions(s.order)
        if is_congruence(s.table, part)
    }
    assert produced == expected


def test_quotient_of_chain(chain3):
    p = Equivalence.from_blocks(3, [[0, 1], [2]])
    q = quotient(chain3, p)
    assert q.order == 2
    assert q.table == ((0, 0), (0, 1))


def test_quotient_rejects_non_congruence(chain3):
    bad = Equivalence.from_blocks(3, [[0, 2], [1]])
    with pytest.raises(NotACongruence) as exc:
        quotient(chain3, bad)
    assert exc.value.kind == KIND_NONE


def test_induced_subsemigroup(z2, chain3):
    sub = induced_subsemigroup(chain3, {0, 2})
    assert sub.table == ((0, 0), (0, 1))
    with pytest.raises(ValueError):
        induced_subsemigroup(z2, {1})  # 1*1 = 0 escapes


def test_u_translate_hom_on_null(null2):
    image, f = u_translate_hom(null2, 1)
    assert image.table == ((0,),)
    assert f == (0, 0)


def test_u_translate_hom_quotients_by_lambda():
    # C-FHT quotients S^u by the kernel of f and C-3.4 quotients S^u by
    # lambda^u: the same relation on the same semigroup
    for s in full_corpus(1, 2, 3):
        for u in s.elements:
            image, f = u_translate_hom(s, u)
            vt, it = variant(s, u).table, image.table
            assert all(f[vt[x][y]] == it[f[x]][f[y]] for x in s.elements for y in s.elements)
            assert Equivalence.from_keys(s.order, f) == sandwich_lambda(s, u)
            assert image == induced_subsemigroup(s, translate_set(s, u))
            assert sorted(set(f)) == list(range(image.order))


def test_sandwich_congruences(chain3):
    lam = sandwich_lambda(chain3, 1)
    # rows of 1: products 1x = (0, 1, 1)
    assert lam.classes == ((0,), (1, 2))
    rho = sandwich_rho(chain3, 0)
    assert rho.classes == ((0, 1, 2),)


def test_are_isomorphic_finds_swap(z2):
    shifted = build_semigroup(2, [[1, 0], [0, 1]])
    assert are_isomorphic(z2, shifted) == (1, 0)
    assert are_isomorphic(z2, z2) == (0, 1)


def test_are_isomorphic_distinguishes_antiisomorphic(left_zero, right_zero):
    assert are_isomorphic(left_zero, right_zero) is None


def test_are_isomorphic_rejects_different_orders(z2, chain3):
    assert are_isomorphic(z2, chain3) is None


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_isomorphism_search_matches_exhaustive_oracle(s):
    # compare against a few structured partners: itself, its variants
    assert (are_isomorphic(s, s) is not None) == iso_exists(s.table, s.table)
    for a in range(s.order):
        vt = variant(s, a)
        got = are_isomorphic(s, vt)
        assert (got is not None) == iso_exists(s.table, vt.table)
        if got is not None:
            n = s.order
            assert all(
                got[s.mul(x, y)] == vt.mul(got[x], got[y])
                for x in range(n)
                for y in range(n)
            )


def test_is_fundamental(left_zero, z2, null2):
    assert is_fundamental(left_zero)
    assert not is_fundamental(z2)
    assert not is_fundamental(null2)


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_fundamental_matches_bruteforce(s):
    es = [x for x in range(s.order) if s.mul(x, x) == x]
    brute = True
    for part in set_partitions(s.order):
        if len(part) == s.order:
            continue
        if not is_congruence(s.table, part):
            continue
        if all(sum(1 for x in b if x in es) <= 1 for b in part):
            brute = False
            break
    assert is_fundamental(s) == brute
