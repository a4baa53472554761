"""Exhaustive generation of associative Cayley tables.

The search fills table entries in row-major order and, after each
placement, checks every associativity triple that just became fully
decidable.  A triple (x, y, z) needs the entries (x,y), (y,z), (xy,z)
and (x,yz); it is checked exactly when the last of those is placed, so
each completed table has every triple verified and dead branches are cut
as early as the constraints allow.  Tables are emitted in lexicographic
order of their row-major flattening.

Asked for isomorphism classes, the same search also prunes by lex-leader
(Read's orderly generation; Distler, Jefferson, Kelsey and Kotthoff, "The
semigroups of order 10", CP 2012).  After each placement it compares the
partial table T with every relabeling T^p, ``T^p[i][j] = p[T[q i][q j]]``
for q the inverse of p, entry by entry in row-major order, up to the
first entry undecided in either table.  If T^p is smaller there, every
completion of T has a smaller relabeling and the branch is cut; if it is
larger, p can never win below this node and is dropped from the
subtree's list.  What survives is exactly the lexicographically least
table of each class, the one ``canonical_form`` picks, in the order the
labeled search would reach it: 1, 5, 24, 188, 1915 classes for n = 1..5.
``canonical_form`` itself, which tries all n! relabelings of a finished
table, is kept as the test suite's oracle for the pruned search.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import FiniteSemigroup, OrderTooLarge, Table, build_semigroup

#: largest order enumerated as labeled tables: order 6 has 17,061,118 (A023814)
ENUMERATION_LABELED_CAP = 5
#: largest order enumerated as isomorphism classes: 28,634 at order 6 (A027851)
ENUMERATION_CLASSES_CAP = 6

DEDUP_NONE = "none"
DEDUP_ISO = "up_to_isomorphism"


def _check_order(n: int, classes: bool) -> None:
    """Refuse an order below 1 (ValueError) or above the mode's cap
    (OrderTooLarge)."""
    if n < 1:
        raise ValueError(f"orders must be positive, got {n}")
    cap = ENUMERATION_CLASSES_CAP if classes else ENUMERATION_LABELED_CAP
    if n > cap:
        raise OrderTooLarge(n, cap)


def enumerate_semigroups(
    n: int, consumer: Callable[[Table], None], classes: bool = False
) -> int:
    """Feed every labeled associative table of order n to consumer, or
    with classes=True only the lexicographically least table of each
    isomorphism class.

    Returns the number of tables emitted.  Counts for n = 1..5 are
    1, 8, 113, 3492, 183732 labeled and 1, 5, 24, 188, 1915 classes, and
    28634 classes for n = 6.  Larger orders raise OrderTooLarge, orders
    below 1 ValueError.
    """
    _check_order(n, classes)
    t = [[-1] * n for _ in range(n)]
    rng = range(n)
    total = n * n
    count = 0

    def check(x: int, y: int, z: int) -> bool:
        # True when the triple holds or is not yet decidable.
        xy = t[x][y]
        if xy < 0:
            return True
        yz = t[y][z]
        if yz < 0:
            return True
        left = t[xy][z]
        if left < 0:
            return True
        right = t[x][yz]
        return right < 0 or left == right

    def consistent(i: int, j: int) -> bool:
        # Every triple in which the just-placed entry (i, j) plays a role.
        for z in rng:
            if not check(i, j, z):
                return False
        for x in rng:
            if not check(x, i, j):
                return False
        for x in rng:
            row = t[x]
            for y in rng:
                if row[y] == i and not check(x, y, j):
                    return False
        for y in rng:
            row = t[y]
            for z in rng:
                if row[z] == j and not check(i, y, z):
                    return False
        return True

    def leader(pos: int, live: list) -> list | None:
        # live holds (p, cells, k) for the relabelings p whose T^p equals
        # t on entries 0..k-1; cells[k] = (q i, q j, i, j) for entry
        # k = (i, j).  Returns those still tied once entry pos is placed,
        # or None when some T^p is already lex-smaller than t.
        tied = []
        for p, cells, k in live:
            while k <= pos:
                a, b, i, j = cells[k]
                x = t[a][b]
                if x < 0:
                    break
                x, y = p[x], t[i][j]
                if x != y:
                    if x < y:
                        return None
                    k = -1  # lex-greater for good: p is out of this subtree
                    break
                k += 1
            if k >= 0:
                tied.append((p, cells, k))
        return tied

    def fill(pos: int, live: list | None) -> None:
        nonlocal count
        if pos == total:
            table = tuple(tuple(row) for row in t)
            count += 1
            consumer(table)
            return
        i, j = divmod(pos, n)
        for v in rng:
            t[i][j] = v
            if consistent(i, j):
                if live is None:
                    fill(pos + 1, None)
                else:
                    tied = leader(pos, live)
                    if tied is not None:
                        fill(pos + 1, tied)
        t[i][j] = -1

    fill(0, _relabelings(n) if classes else None)
    return count


def _relabelings(n: int) -> list:
    """(p, cells, 0) for every permutation p of 0..n-1 but the identity,
    cells[k] = (q i, q j, i, j) for entry k = (i, j) and q the inverse of p."""
    out = []
    # permutations() yields the identity first
    for p in itertools.islice(itertools.permutations(range(n)), 1, None):
        q = [0] * n
        for i, pi in enumerate(p):
            q[pi] = i
        cells = [(q[i], q[j], i, j) for i in range(n) for j in range(n)]
        out.append((p, cells, 0))
    return out


def canonical_form(s: FiniteSemigroup) -> Table:
    """Lexicographically least table among all simultaneous relabelings."""
    n = s.order
    t = s.table
    best: Table | None = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cand = tuple(
            tuple(perm[t[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
        )
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


@dataclass(frozen=True)
class CorpusSpec:
    """Which orders to enumerate and how.  orders is stored sorted, with
    repeats dropped: the order in which the corpus arrives.  Each order
    must be within the enumerator's cap for the dedup mode."""

    orders: tuple[int, ...]
    dedup: str = DEDUP_NONE
    limit: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))
        if not self.orders:
            raise ValueError("a corpus needs at least one order")
        if self.dedup not in (DEDUP_NONE, DEDUP_ISO):
            raise ValueError(f"dedup must be {DEDUP_NONE!r} or {DEDUP_ISO!r}")
        for n in self.orders:
            _check_order(n, self.dedup == DEDUP_ISO)
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when given")


class _LimitReached(Exception):
    """Stops the search once iter_corpus has the tables its limit allows."""


def iter_corpus(spec: CorpusSpec) -> Iterator[FiniteSemigroup]:
    """Validated semigroups for a corpus spec, in enumeration order.

    With DEDUP_ISO the enumerator emits one table per isomorphism class.
    Every emitted table, class representative or not, goes through
    build_semigroup, the check of the enumerator that shares none of its
    code.  With a limit the search stops at the limit-th table.
    """
    remaining = spec.limit
    classes = spec.dedup == DEDUP_ISO
    for n in spec.orders:
        tables: list[Table] = []

        def collect(table: Table) -> None:
            tables.append(table)
            if len(tables) == remaining:
                raise _LimitReached

        with contextlib.suppress(_LimitReached):
            enumerate_semigroups(n, collect, classes=classes)
        for table in tables:
            yield build_semigroup(n, table)
        if remaining is not None:
            remaining -= len(tables)
            if remaining == 0:
                return
