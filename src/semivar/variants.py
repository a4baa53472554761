"""Sandwich variants: S^a, the semigroup on the carrier of S with
x * y = x.a.y (J. B. Hickey, "Semigroups under a sandwich operation",
1983), built as a plain FiniteSemigroup."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ElementSubset, FiniteSemigroup, NotIdempotent, check_element
from .relations import StarBundle


@dataclass(frozen=True)
class PSets:
    """P1 = {x : ax R* x}, P2 = {x : xa L* x} (relations of the base); P is P1 & P2."""

    p1: ElementSubset
    p2: ElementSubset


def variant(s: FiniteSemigroup, a: int) -> FiniteSemigroup:
    """S^a; the sandwich product is associative by construction."""
    check_element(s, a)
    t = s.table
    # row x of S^a, the products x.a.y, is row xa of S
    return FiniteSemigroup(s.order, tuple([t[row[a]] for row in t]))


def idempotent_variant(s: FiniteSemigroup, e: int) -> FiniteSemigroup:
    """S^e at an idempotent e: ValueError for an id out of range,
    NotIdempotent for any other e."""
    v = variant(s, e)
    if s.table[e][e] != e:
        raise NotIdempotent(e)
    return v


def p_sets(s: FiniteSemigroup, a: int, bundle: StarBundle) -> PSets:
    """The P-sets of the sandwich element a; bundle is ``star(s)``, the base's."""
    check_element(s, a)
    t, r = s.table, range(s.order)
    rci, lci, ta = bundle.r_star.class_index, bundle.l_star.class_index, t[a]
    p1 = frozenset([x for x in r if rci[ta[x]] == rci[x]])
    p2 = frozenset([x for x in r if lci[t[x][a]] == lci[x]])
    return PSets(p1=p1, p2=p2)
