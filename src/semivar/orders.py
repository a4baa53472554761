"""Natural partial orders on semigroups, idempotents, and variants.

All existential quantifiers run over the adjoined-identity monoid, so
the trivial witnesses x = y = 1 are always available for a <= a.

The order produced for E(S^e) is a genuine partial order; the order on
all of S^e and the natural order on S are *measured*:
``claims._law_violation`` checks the laws rather than assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteSemigroup
from .variants import idempotent_variant


@dataclass(frozen=True)
class OrderRelation:
    """Boolean matrix over element ids: leq[i][j] is elements[i] <= elements[j]."""

    elements: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]


def natural_leq(s: FiniteSemigroup) -> OrderRelation:
    """The natural order on S: a <= b iff a = xb = by with xa = a (x, y in S^1)."""
    # x = 1 or y = 1 needs a = b, which also settles the other side, so
    # S^1 adds exactly the case a = b; when S has an identity that case
    # is already covered by x = y = e.
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


def idempotent_order(s: FiniteSemigroup) -> OrderRelation:
    """The usual order on E(S): e <= f iff ef = fe = e."""
    t = s.table
    members = tuple(x for x in s.elements if t[x][x] == x)
    rows = tuple(
        tuple(t[x][y] == x and t[y][x] == x for y in members) for x in members
    )
    return OrderRelation(members, rows)


def variant_idempotent_leq(s: FiniteSemigroup, e: int) -> OrderRelation:
    """<=_e restricted to E(S^e): the idempotent order of S^e.  ValueError
    for an e out of range, NotIdempotent for a non-idempotent e."""
    return idempotent_order(idempotent_variant(s, e))


def variant_leq(s: FiniteSemigroup, e: int) -> OrderRelation:
    """<=_e on all of S^e, quantified over (S^e)^1; e must be an
    idempotent of S, as for variant_idempotent_leq."""
    return natural_leq(idempotent_variant(s, e))
