"""Sandwich variants: S^a, the semigroup on the carrier of S with
x * y = x.a.y (J. B. Hickey, "Semigroups under a sandwich operation",
1983), built as a plain FiniteSemigroup."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ElementSubset, FiniteSemigroup, NotIdempotent, check_element
from .relations import StarBundle


@dataclass(frozen=True)
class PSets:
    """P1 = {x : ax R* x}, P2 = {x : xa L* x}, P = P1 & P2 (relations of the base)."""

    p1: ElementSubset
    p2: ElementSubset
    p: ElementSubset


def variant(s: FiniteSemigroup, a: int) -> FiniteSemigroup:
    """S^a; the sandwich product is associative by construction."""
    check_element(s, a)
    t = s.table
    rows = tuple(tuple(t[t[x][a]][y] for y in s.elements) for x in s.elements)
    return FiniteSemigroup(s.order, rows)


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
    t = s.table
    p1 = frozenset(x for x in s.elements if bundle.r_star.same(t[a][x], x))
    p2 = frozenset(x for x in s.elements if bundle.l_star.same(t[x][a], x))
    return PSets(p1=p1, p2=p2, p=p1 & p2)
