"""Natural partial orders on semigroups, idempotents, and variants.

All existential quantifiers run over the adjoined-identity monoid, so
the trivial witnesses x = y = 1 are always available for a <= a.

The order produced for E(S^e) is a genuine partial order; the order on
all of S^e and the natural order on S are *measured* -- callers check the
laws with the check_* methods rather than assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, NotIdempotent, adjoin_identity
from .variants import VariantDescriptor


@dataclass(frozen=True)
class OrderRelation:
    """Boolean leq matrix over a carrier of element ids."""

    elements: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]

    def holds(self, x: int, y: int) -> bool:
        """leq by element id (not position)."""
        return self.leq[self.elements.index(x)][self.elements.index(y)]

    def check_reflexive(self) -> int | None:
        """First element id with not (x <= x), or None."""
        for i, x in enumerate(self.elements):
            if not self.leq[i][i]:
                return x
        return None

    def check_antisymmetric(self) -> tuple[int, int] | None:
        """First (x, y), x != y, with x <= y and y <= x, or None."""
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    return self.elements[i], self.elements[j]
        return None

    def check_transitive(self) -> tuple[int, int, int] | None:
        """First (x, y, z) with x <= y <= z but not x <= z, or None."""
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                if not self.leq[i][j]:
                    continue
                for k in range(n):
                    if self.leq[j][k] and not self.leq[i][k]:
                        return self.elements[i], self.elements[j], self.elements[k]
        return None


def _leq_matrix(s: FiniteSemigroup) -> OrderRelation:
    # a <= b iff a = xb = by and xa = a for some x, y in S^1
    one, _ = adjoin_identity(s)
    t1 = one.table
    n1 = one.order
    n = s.order
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            left = any(t1[x][b] == a and t1[x][a] == a for x in range(n1))
            row.append(left and any(t1[b][y] == a for y in range(n1)))
        rows.append(tuple(row))
    return OrderRelation(tuple(range(n)), tuple(rows))


def natural_leq(s: FiniteSemigroup) -> OrderRelation:
    """The natural order on S: a <= b iff a = xb = by with xa = a (x, y in S^1)."""
    return _leq_matrix(s)


def idempotent_leq(s: FiniteSemigroup, e: int, f: int) -> bool:
    """The usual idempotent order: e <= f iff ef = fe = e."""
    t = s.table
    for x in (e, f):
        if not 0 <= x < s.order:
            raise ValueError(f"element id {x} out of range")
        if t[x][x] != x:
            raise NotIdempotent(x)
    return t[e][f] == e and t[f][e] == e


def _check_sandwich_idempotent(v: VariantDescriptor) -> None:
    e = v.sandwich
    if v.base.table[e][e] != e:
        raise NotIdempotent(e)


def variant_idempotent_leq(v: VariantDescriptor) -> OrderRelation:
    """<=_e restricted to E(S^e): x <= y iff x*y = y*x = x."""
    _check_sandwich_idempotent(v)
    t = v.variant.table
    members = tuple(x for x in v.variant.elements if t[x][x] == x)
    rows = tuple(
        tuple(t[x][y] == x and t[y][x] == x for y in members) for x in members
    )
    return OrderRelation(members, rows)


def variant_leq(v: VariantDescriptor) -> OrderRelation:
    """<=_e on all of S^e, quantified over (S^e)^1."""
    _check_sandwich_idempotent(v)
    return _leq_matrix(v.variant)
