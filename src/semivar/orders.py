"""Natural partial orders on semigroups, idempotents, and variants.

All existential quantifiers run over the adjoined-identity monoid, so
the trivial witnesses x = y = 1 are always available for a <= a.

The order produced for E(S^e) is a genuine partial order; the order on
all of S^e and the natural order on S are *measured* -- callers check the
laws with the check_* methods rather than assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup, NotIdempotent
from .variants import idempotent_variant


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
    # a <= b iff a = xb = by and xa = a for some x, y in S^1.  x = 1 or
    # y = 1 needs a = b, which also settles the other side, so S^1 adds
    # exactly the case a = b; when S has an identity that case is already
    # covered by x = y = e.
    t = s.table
    n = s.order
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            left = any(t[x][b] == a and t[x][a] == a for x in range(n))
            row.append(a == b or (left and any(t[b][y] == a for y in range(n))))
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


def variant_idempotent_leq(s: FiniteSemigroup, e: int) -> OrderRelation:
    """<=_e restricted to E(S^e): x <= y iff x*y = y*x = x.  ValueError
    for an e out of range, NotIdempotent for a non-idempotent e."""
    t = idempotent_variant(s, e).table
    members = tuple(x for x in s.elements if t[x][x] == x)
    rows = tuple(
        tuple(t[x][y] == x and t[y][x] == x for y in members) for x in members
    )
    return OrderRelation(members, rows)


def variant_leq(s: FiniteSemigroup, e: int) -> OrderRelation:
    """<=_e on all of S^e, quantified over (S^e)^1; e must be an
    idempotent of S, as for variant_idempotent_leq."""
    return _leq_matrix(idempotent_variant(s, e))
