"""Table validation, identities, regularity, translates, domain errors."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semivar.claims import UnknownClaim
from semivar.congruences import (
    NotACongruence, principal_congruence, sandwich_lambda, sandwich_rho,
)
from semivar.core import (
    FiniteSemigroup,
    NotAMonoid,
    NotAssociative,
    NotIdempotent,
    OrderTooLarge,
    OutOfRange,
    SemigroupError,
    adjoin_identity,
    build_semigroup,
    idempotents,
    is_invertible,
    is_regular,
    is_regular_element,
    translate_set,
)
from semivar.orders import variant_idempotent_leq, variant_leq
from semivar.relations import CarrierMismatch, EmptyU, NotIdempotentMember, star
from semivar.sgt import TableSyntaxError
from semivar.variants import idempotent_variant, p_sets, variant
from .conftest import LEFT_ZERO, NOT_ASSOCIATIVE, Z2, full_corpus


def test_build_and_multiply(z2):
    assert z2.order == 2
    assert z2.table[1][1] == 0
    assert list(z2.elements) == [0, 1]
    assert z2.table == Z2


def test_rejects_bad_shape():
    with pytest.raises(ValueError):
        build_semigroup(2, [[0, 0]])
    with pytest.raises(ValueError):
        build_semigroup(2, [[0, 0], [1]])
    with pytest.raises(ValueError):
        build_semigroup(0, [])


def test_rejects_out_of_range_entries():
    with pytest.raises(OutOfRange) as exc:
        build_semigroup(2, [[0, 2], [1, 1]])
    assert exc.value.position == (0, 1)
    assert exc.value.value == 2
    with pytest.raises(OutOfRange):
        build_semigroup(2, [[0, -1], [1, 1]])
    with pytest.raises(OutOfRange):
        build_semigroup(2, [[0, True], [1, 1]])


def test_rejects_non_associative_table():
    with pytest.raises(NotAssociative) as exc:
        build_semigroup(2, NOT_ASSOCIATIVE)
    # first violated triple in row-major scan order
    assert exc.value.triple == (0, 0, 1)


def test_identity_detection(z2, left_zero, min2):
    assert z2.identity == 0
    assert left_zero.identity is None
    assert min2.identity == 1
    # built without validation, the identity still comes from the table
    assert FiniteSemigroup(2, Z2).identity == 0
    assert FiniteSemigroup(2, LEFT_ZERO).identity is None
    with pytest.raises(TypeError):
        FiniteSemigroup(2, Z2, identity=1)


def test_adjoin_identity_monoid_is_noop(z2):
    s1, embedding = adjoin_identity(z2)
    assert s1 is z2
    assert embedding == (0, 1)


def test_adjoin_identity_appends_element(left_zero):
    s1, embedding = adjoin_identity(left_zero)
    assert s1.order == 3
    assert embedding == (0, 1)
    assert s1.identity == 2
    # old products unchanged, new element acts as identity
    for x in range(2):
        for y in range(2):
            assert s1.table[x][y] == left_zero.table[x][y]
        assert s1.table[x][2] == x
        assert s1.table[2][x] == x


def test_idempotents(left_zero, z2, null2):
    assert idempotents(left_zero) == {0, 1}
    assert idempotents(z2) == {0}
    assert idempotents(null2) == {0}


def test_regularity(null2, left_zero, z2):
    assert is_regular_element(null2, 0)
    assert not is_regular_element(null2, 1)
    assert not is_regular(null2)
    assert is_regular(left_zero)
    assert is_regular(z2)


def test_invertibility(z2, left_zero):
    assert is_invertible(z2, 0)
    assert is_invertible(z2, 1)
    with pytest.raises(NotAMonoid):
        is_invertible(left_zero, 0)


def test_translate_sets(null2, left_zero):
    assert translate_set(null2, 0) == frozenset({0})
    assert translate_set(left_zero, 0) == frozenset({0})
    assert translate_set(left_zero, 1) == frozenset({1})
    with pytest.raises(ValueError):
        translate_set(null2, 2)


#: every public function taking an element id, called with the id x on S
ID_TAKERS = {
    "is_regular_element": is_regular_element,
    "is_invertible": is_invertible,
    "translate_set": translate_set,
    "variant": variant,
    "idempotent_variant": idempotent_variant,
    "p_sets": lambda s, x: p_sets(s, x, star(s)),
    "principal_congruence(x, 0)": lambda s, x: principal_congruence(s, x, 0),
    "principal_congruence(0, x)": lambda s, x: principal_congruence(s, 0, x),
    "sandwich_lambda": sandwich_lambda,
    "sandwich_rho": sandwich_rho,
    "variant_idempotent_leq": variant_idempotent_leq,
    "variant_leq": variant_leq,
}


@pytest.mark.parametrize("bad", [True, False, 1.0, -1, 2], ids=repr)
@pytest.mark.parametrize("name", ID_TAKERS)
def test_an_element_id_is_an_int_in_range(z2, name, bad):
    # a bool is refused as build_semigroup refuses it as an entry: True
    # would pass for 1, and 1.0 would reach a TypeError
    ID_TAKERS[name](z2, 0)  # Z2's identity 0 suits every function
    with pytest.raises(ValueError, match=f"^{bad!r} is not an element id < 2$"):
        ID_TAKERS[name](z2, bad)


def test_tables_are_hashable(z2, left_zero):
    assert len({z2, left_zero, z2}) == 2
    # equal tables built separately are one key
    again = build_semigroup(2, [list(row) for row in z2.table])
    assert again is not z2 and again == z2 and hash(again) == hash(z2)
    assert FiniteSemigroup(2, z2.table) == z2 and hash(FiniteSemigroup(2, z2.table)) == hash(z2)
    # the trip to a worker process and back keeps equality, hash and
    # lookup, whether or not the table was hashed before it
    index = {z2: "z2", left_zero: "left zero"}
    for table in (z2, build_semigroup(2, z2.table)):
        back = pickle.loads(pickle.dumps(table))
        assert back == z2 and hash(back) == hash(z2)
        assert index[back] == "z2"
        assert back.identity == 0


@given(st.sampled_from(full_corpus(1, 2, 3)))
def test_every_corpus_table_is_closed_and_associative(s):
    n = s.order
    for x in range(n):
        for y in range(n):
            assert 0 <= s.table[x][y] < n
            for z in range(n):
                assert s.table[s.table[x][y]][z] == s.table[x][s.table[y][z]]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: one instance of each domain error, built as the package raises it
ERRORS = [
    OutOfRange(0, 1, 7, 2),
    NotAssociative(1, 0, 0),
    NotAMonoid("no identity"),
    NotIdempotent(3),
    OrderTooLarge(7, 6),
    UnknownClaim("C-0.0"),
    NotACongruence("left"),
    TableSyntaxError(2, 3, "expected 2 entries"),
    CarrierMismatch("3 != 4"),
    EmptyU("U is empty"),
    NotIdempotentMember(2),
]


def test_every_domain_error_has_an_example():
    assert {type(err) for err in ERRORS} == set(_subclasses(SemigroupError))


@pytest.mark.parametrize("err", ERRORS, ids=lambda err: type(err).__name__)
def test_domain_errors_survive_a_pickle_round_trip(err):
    # a worker process sends its exception to the parent this way
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)
