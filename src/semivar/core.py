"""Finite semigroups as validated Cayley tables.

Elements are the dense ids 0..n-1 and the table is the single source of
truth: ``table[x][y]`` is the product x.y.  Everything downstream
(relations, variants, congruences, orders) works over these ids so that
results are bit-reproducible across runs.  Only :func:`build_semigroup`
validates a table; semigroups derived from a validated one are associative
by construction and are built as ``FiniteSemigroup(n, rows)`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

Row = tuple[int, ...]
Table = tuple[Row, ...]

# Subsets of a carrier are plain frozensets of element ids.
ElementSubset = frozenset


class SemigroupError(Exception):
    """Base class for the domain errors raised by this package.

    An error pickles as its type, message and attributes, and unpickles
    without calling ``__init__``, whose parameters differ per subclass:
    so it survives the trip from a worker process back to its parent."""

    def __reduce__(self):
        return _rebuilt, (type(self), self.args), self.__dict__


def _rebuilt(cls: type, args: tuple) -> SemigroupError:
    """An error of type cls with args, its attributes set by unpickling."""
    return cls.__new__(cls, *args)


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
    def __init__(self, order: int | str, bound: int) -> None:
        super().__init__(f"order {order} exceeds the configured bound {bound}")
        self.order = order
        self.bound = bound


@dataclass(frozen=True)
class FiniteSemigroup:
    """Semigroup over a table trusted as associative; ``identity`` is derived."""

    order: int
    table: Table

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash, computed on first use: the claims' caches look a
        table up many times, and hashing it reads all n*n entries."""
        return hash((self.order, self.table))

    @property
    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def identity(self) -> int | None:
        """The two-sided identity, or None; found on first read."""
        t, r = self.table, range(self.order)
        return next((e for e in r if all(t[e][x] == x == t[x][e] for x in r)), None)


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
    # over all z, (x.y).z is row x.y and x.(y.z) is row x read at row y; z is
    # scanned where they differ (at order 1 the getter returns an int, not a row)
    read_at = [itemgetter(*row) for row in rows]
    for x, row in enumerate(rows):
        for y, xy in enumerate(row):
            if rows[xy] != read_at[y](row):
                for z, yz in enumerate(rows[y]):
                    if rows[xy][z] != row[yz]:
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


def check_element(s: FiniteSemigroup, x: object) -> None:
    """ValueError unless x is an element id of s: an int in 0..n-1, not a bool."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < s.order:
        raise ValueError(f"{x!r} is not an element id < {s.order}")


def idempotents(s: FiniteSemigroup) -> ElementSubset:
    """E(S): the elements with x.x = x."""
    t = s.table
    return frozenset([x for x in range(s.order) if t[x][x] == x])


def is_regular_element(s: FiniteSemigroup, x: int) -> bool:
    """True when x = x.y.x for some y."""
    check_element(s, x)
    t = s.table
    return any(t[t[x][y]][x] == x for y in s.elements)


def is_regular(s: FiniteSemigroup) -> bool:
    return all(is_regular_element(s, x) for x in s.elements)


def is_invertible(s: FiniteSemigroup, a: int) -> bool:
    """True when a has a two-sided group inverse against the identity."""
    if s.identity is None:
        raise NotAMonoid("invertibility needs an identity element")
    check_element(s, a)
    e = s.identity
    t = s.table
    return any(t[a][b] == e and t[b][a] == e for b in s.elements)


def translate_set(s: FiniteSemigroup, u: int) -> ElementSubset:
    """uS: the products ux for x in S."""
    check_element(s, u)
    return frozenset(s.table[u])
