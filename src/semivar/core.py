"""Finite semigroups as validated Cayley tables.

Elements are the dense ids 0..n-1 and the table is the single source of
truth: ``table[x][y]`` is the product x.y.  Everything downstream
(relations, variants, congruences, orders) works over these ids so that
results are bit-reproducible across runs.  Only :func:`build_semigroup`
validates a table; semigroups derived from a validated one are associative
by construction and are built as ``FiniteSemigroup(n, rows)`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

Row = tuple[int, ...]
Table = tuple[Row, ...]

# Subsets of a carrier are plain frozensets of element ids.
ElementSubset = frozenset


class SemigroupError(Exception):
    """Base class for the domain errors raised by this package."""


class OutOfRange(SemigroupError):
    """A Cayley-table entry is not an element id of the carrier."""

    def __init__(self, x: int, y: int, value: object, order: int) -> None:
        super().__init__(f"entry ({x},{y}) = {value!r} is not an element id < {order}")
        self.position = (x, y)
        self.value = value


class NotAssociative(SemigroupError):
    """Carries the first violating triple in row-major (x, y, z) scan order."""

    def __init__(self, x: int, y: int, z: int) -> None:
        super().__init__(f"(x.y).z != x.(y.z) at (x,y,z) = ({x},{y},{z})")
        self.triple = (x, y, z)


class NotAMonoid(SemigroupError):
    """An operation needed an identity element the semigroup lacks."""


class NotIdempotent(SemigroupError):
    def __init__(self, element: int) -> None:
        super().__init__(f"element {element} is not idempotent")
        self.element = element


class OrderTooLarge(SemigroupError):
    def __init__(self, order: int, bound: int) -> None:
        super().__init__(f"order {order} exceeds the configured bound {bound}")
        self.order = order
        self.bound = bound


@dataclass(frozen=True)
class FiniteSemigroup:
    """Semigroup over a table trusted as associative; ``identity`` is derived."""

    order: int
    table: Table
    identity: int | None = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "identity", _find_identity(self.table, self.order))

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def is_monoid(self) -> bool:
        return self.identity is not None


def _find_identity(table: Table, order: int) -> int | None:
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            return e
    return None


def build_semigroup(order: int, table: Iterable[Iterable[int]]) -> FiniteSemigroup:
    """Validate a Cayley table and freeze it into a FiniteSemigroup.

    Raises OutOfRange for the first bad entry and NotAssociative for the
    first violating triple, both in row-major scan order.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    rows = tuple(tuple(row) for row in table)
    if len(rows) != order or any(len(row) != order for row in rows):
        raise ValueError(f"table must be {order}x{order}")
    for x in range(order):
        for y in range(order):
            v = rows[x][y]
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise OutOfRange(x, y, v, order)
    for x in range(order):
        for y in range(order):
            xy = rows[x][y]
            for z in range(order):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    raise NotAssociative(x, y, z)
    return FiniteSemigroup(order, rows)


def adjoin_identity(s: FiniteSemigroup) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """Return (S^1, embedding).  S is returned unchanged when it already
    has an identity; otherwise a fresh identity is appended at id n."""
    if s.identity is not None:
        return s, tuple(range(s.order))
    n = s.order
    rows = [row + (x,) for x, row in enumerate(s.table)]
    rows.append(tuple(range(n + 1)))
    return FiniteSemigroup(n + 1, tuple(rows)), tuple(range(n))


def idempotents(s: FiniteSemigroup) -> ElementSubset:
    """E(S): the elements with x.x = x."""
    return frozenset(x for x in s.elements if s.table[x][x] == x)


def is_regular_element(s: FiniteSemigroup, x: int) -> bool:
    """True when x = x.y.x for some y."""
    if not 0 <= x < s.order:
        raise ValueError(f"element id {x} out of range")
    t = s.table
    return any(t[t[x][y]][x] == x for y in s.elements)


def is_regular(s: FiniteSemigroup) -> bool:
    return all(is_regular_element(s, x) for x in s.elements)


def is_invertible(s: FiniteSemigroup, a: int) -> bool:
    """True when a has a two-sided group inverse against the identity."""
    if s.identity is None:
        raise NotAMonoid("invertibility needs an identity element")
    if not 0 <= a < s.order:
        raise ValueError(f"element id {a} out of range")
    e = s.identity
    t = s.table
    return any(t[a][b] == e and t[b][a] == e for b in s.elements)


def translate_set(s: FiniteSemigroup, u: int) -> ElementSubset:
    """uS: the products ux for x in S."""
    if not 0 <= u < s.order:
        raise ValueError(f"element id {u} out of range")
    return frozenset(s.table[u])
