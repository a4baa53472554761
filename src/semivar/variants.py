"""Sandwich variants: the semigroup S^a with x * y = x.a.y."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ElementSubset, FiniteSemigroup, NotIdempotent, build_semigroup
from .relations import star


@dataclass(frozen=True)
class VariantDescriptor:
    """The base semigroup, the sandwich element, and the variant table."""

    base: FiniteSemigroup
    sandwich: int
    variant: FiniteSemigroup


@dataclass(frozen=True)
class PSets:
    """P1 = {x : ax R* x}, P2 = {x : xa L* x}, P = P1 & P2 (relations of the base)."""

    p1: ElementSubset
    p2: ElementSubset
    p: ElementSubset


def variant(s: FiniteSemigroup, a: int) -> VariantDescriptor:
    """Build S^a.  The sandwich product is always associative, but the
    table goes through full validation anyway."""
    if not 0 <= a < s.order:
        raise ValueError(f"element id {a} out of range")
    t = s.table
    rows = [[t[t[x][a]][y] for y in s.elements] for x in s.elements]
    return VariantDescriptor(base=s, sandwich=a, variant=build_semigroup(s.order, rows))


def idempotent_variant(s: FiniteSemigroup, e: int) -> VariantDescriptor:
    """Variant at an idempotent sandwich element."""
    if not 0 <= e < s.order:
        raise ValueError(f"element id {e} out of range")
    if s.table[e][e] != e:
        raise NotIdempotent(e)
    return variant(s, e)


def p_sets(s: FiniteSemigroup, a: int) -> PSets:
    """The P-sets of the sandwich element a, against the base's starred relations."""
    if not 0 <= a < s.order:
        raise ValueError(f"element id {a} out of range")
    bundle = star(s)
    t = s.table
    p1 = frozenset(x for x in s.elements if bundle.r_star.same(t[a][x], x))
    p2 = frozenset(x for x in s.elements if bundle.l_star.same(t[x][a], x))
    return PSets(p1=p1, p2=p2, p=p1 & p2)
