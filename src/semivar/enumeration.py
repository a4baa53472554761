"""Exhaustive generation of associative Cayley tables.

The search fills table entries in row-major order and, after each
placement, checks every associativity triple that just became fully
decidable.  A triple (x, y, z) needs the entries (x,y), (y,z), (xy,z)
and (x,yz); it is checked exactly when the last of those is placed, so
each completed table has every triple verified and dead branches are cut
as early as the constraints allow.  The placed entry (i, j) = v is xy in
the triples (i, j, z), yz in (x, i, j), (xy)z in (x, y, j) for the
placed cells (x, y) holding i, and x(yz) in (i, y, z) for those holding
j; ``at[v]`` lists the placed cells holding v, so those last two loops
visit only them, not all n^2 cells.  Tables are emitted in lexicographic
order of their row-major flattening.

Asked for isomorphism classes, the same search also prunes by lex-leader
(Read's orderly generation; Distler, Jefferson, Kelsey and Kotthoff, "The
semigroups of order 10", CP 2012).  It compares the partial table T with
every relabeling T^p, ``T^p[i][j] = p[T[q i][q j]]`` for q the inverse
of p, entry by entry in row-major order.  Entry k of T^p reads cell
``src[k]`` of T, so both are decided once cell ``max(src[k], k)`` is
placed (``_relabelings``).  A relabeling tied with T up to entry k waits
in the list ``waiting[c]`` of that cell c, and only the relabelings
waiting on a cell wake when it is placed.  Each advances until it ties
on an undecided entry and moves to a later cell's list, or T^p is
larger there, and p is dropped for the subtree, or T^p is smaller, and
every completion of T has a smaller relabeling, so the branch is cut.
On backtrack a node pops exactly what it pushed.  What survives is
exactly the lexicographically least table of each class, the one
``canonical_form`` picks, in the order the labeled search would reach
it: 1, 5, 24, 188, 1915, 28634 classes for n = 1..6.
``canonical_form`` itself, which tries all n! relabelings of a finished
table, is kept as the test suite's oracle for the pruned search.

The search resumes after a given table: it first replays that table's
path, where each position takes the table's entry or a larger value and
only the entry itself stays on the path, so it emits exactly the tables
that come after it, in the same order.  A consumer ends the search early
by raising ``StopSearch``.  ``iter_corpus`` pulls the corpus in batches
of ``CORPUS_BATCH`` tables this way, one search call each, so it holds
one batch at a time whatever the size of the order.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import FiniteSemigroup, OrderTooLarge, Table, build_semigroup

#: largest order enumerated as labeled tables: order 6 has 17,061,118 (A023814)
ENUMERATION_LABELED_CAP = 5
#: largest order enumerated as isomorphism classes: 28,634 at order 6 (A027851)
ENUMERATION_CLASSES_CAP = 6

#: tables per search call in iter_corpus, which holds one such batch at a time
CORPUS_BATCH = 1024

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


class StopSearch(Exception):
    """Raised by a consumer to end enumerate_semigroups after its table."""


def enumerate_semigroups(
    n: int,
    consumer: Callable[[Table], None],
    classes: bool = False,
    after: Table | None = None,
) -> int:
    """Feed every labeled associative table of order n to consumer, or
    with classes=True only the lexicographically least table of each
    isomorphism class.  With after, only the tables that come after it
    in row-major lexicographic order are emitted; after itself need not
    be associative or a class leader.  A consumer that raises StopSearch
    ends the search; its table is counted.

    Returns the number of tables emitted.  Counts for n = 1..5 are
    1, 8, 113, 3492, 183732 labeled and 1, 5, 24, 188, 1915 classes, and
    28634 classes for n = 6.  Larger orders raise OrderTooLarge, orders
    below 1 and an after that is not n rows of n ids ValueError.
    """
    _check_order(n, classes)
    path = None if after is None else _path(n, after)
    t = [[-1] * n for _ in range(n)]
    flat = [-1] * (n * n)  # t in row-major order, for the lex-leader test
    rng = range(n)
    upto = [range(x + 1) for x in rng]
    total = n * n
    count = 0
    # at[v]: the placed cells (x, y) with t[x][y] == v, in placement order
    at: list[list[tuple[int, int]]] = [[] for _ in rng]
    # waiting[c]: (p, src, due, k) for each relabeling tied with t on
    # entries 0..k-1 whose entry k is decided once cell c is placed
    waiting: list[list[tuple]] = [[] for _ in range(total)]
    if classes:
        for p, src, due in _relabelings(n):
            waiting[due[0]].append((p, src, due, 0))

    def consistent(i: int, j: int, v: int) -> bool:
        # Every triple (x, y, z) in which the just-placed entry
        # (i, j) = v is xy, yz, (xy)z or x(yz), with the other three
        # entries placed, holds.  Rows after i are empty, so the triples
        # (i, j, z) need j <= i and the triples (x, i, j) need x <= i.
        ti = t[i]
        tj = t[j]
        tv = t[v]
        for z in rng if j <= i else ():  # (i, j, z): xy = v
            yz = tj[z]
            if yz >= 0:
                left = tv[z]
                if left >= 0:
                    right = ti[yz]
                    if right >= 0 and left != right:
                        return False
        for x in upto[i]:  # (x, i, j): yz = v
            tx = t[x]
            xy = tx[i]
            if xy >= 0:
                left = t[xy][j]
                if left >= 0:
                    right = tx[v]
                    if right >= 0 and left != right:
                        return False
        for x, y in at[i]:  # (x, y, j) with xy = i: (xy)z = v
            yz = t[y][j]
            if yz >= 0:
                right = t[x][yz]
                if right >= 0 and right != v:
                    return False
        for y, z in at[j]:  # (i, y, z) with yz = j: x(yz) = v
            xy = ti[y]
            if xy >= 0:
                left = t[xy][z]
                if left >= 0 and left != v:
                    return False
        return True

    def wake(pos: int, pushed: list) -> bool:
        # Advance each relabeling waiting on cell pos, now placed: push
        # it onto the list of the cell its next undecided entry waits
        # for (recorded in pushed), drop it once T^p is lex-greater, or
        # return False when T^p is lex-smaller than t.
        for p, src, due, k in waiting[pos]:
            while True:
                c = due[k]
                if c > pos:
                    waiting[c].append((p, src, due, k))
                    pushed.append(c)
                    break
                x, y = p[flat[src[k]]], flat[k]
                if x != y:
                    if x < y:
                        return False
                    break  # lex-greater for good: p is out of this subtree
                k += 1
                if k == total:
                    break  # T^p == t: p is an automorphism
        return True

    def fill(pos: int, values: range = rng) -> None:
        nonlocal count
        if pos == total:
            table = tuple(tuple(row) for row in t)
            count += 1
            consumer(table)
            return
        i, j = divmod(pos, n)
        row = t[i]
        cell = (i, j)
        for v in values:
            row[j] = v
            flat[pos] = v
            if consistent(i, j, v):
                pushed: list[int] = []
                if not classes or wake(pos, pushed):
                    at[v].append(cell)
                    fill(pos + 1)
                    at[v].pop()
                for c in pushed:
                    waiting[c].pop()
        row[j] = -1
        flat[pos] = -1

    def replay(pos: int) -> None:
        # The path of after: its own entry keeps to the path, which ends
        # at after itself, not emitted; the larger values are fill's.
        i, j = divmod(pos, n)
        v = path[pos]
        t[i][j] = v
        flat[pos] = v
        if pos + 1 < total and consistent(i, j, v):
            pushed: list[int] = []
            if not classes or wake(pos, pushed):
                at[v].append((i, j))
                replay(pos + 1)
                at[v].pop()
            for c in pushed:
                waiting[c].pop()
        fill(pos, range(v + 1, n))

    with contextlib.suppress(StopSearch):
        if path is None:
            fill(0)
        else:
            replay(0)
    # fill and replay refer to themselves: unlink them, so what they reach,
    # the consumer's tables too, is freed now, not at a cyclic collection
    del fill, replay
    return count


def _path(n: int, after) -> list[int]:
    """after's entries in row-major order; ValueError unless it is n rows
    of n ids."""
    if len(after) != n or any(len(row) != n for row in after):
        raise ValueError(f"after must be {n} rows of {n} entries")
    path = [v for row in after for v in row]
    if not all(type(v) is int and 0 <= v < n for v in path):
        raise ValueError(f"after's entries must be ids 0..{n - 1}")
    return path


@functools.cache
def _relabelings(n: int) -> list:
    """(p, src, due) for every permutation p of 0..n-1 but the identity,
    cached: every search of order n reads them and none changes them.

    For q the inverse of p, entry k = (i, j) of the relabeled table T^p
    is p[T[q i][q j]]: src[k] = q i * n + q j is the row-major cell it
    reads, and due[k] = max(src[k], k) the cell whose placement decides
    both T^p and T at entry k, so the row-major search can compare them
    there.  A tied relabeling waits on the list of due[k] for its next
    entry k and is woken only when that cell is placed.
    """
    out = []
    # permutations() yields the identity first
    for p in itertools.islice(itertools.permutations(range(n)), 1, None):
        q = [0] * n
        for i, pi in enumerate(p):
            q[pi] = i
        src = [q[i] * n + q[j] for i in range(n) for j in range(n)]
        due = [max(s, k) for k, s in enumerate(src)]
        out.append((p, src, due))
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


def iter_corpus(spec: CorpusSpec) -> Iterator[FiniteSemigroup]:
    """Validated semigroups for a corpus spec, in enumeration order.

    With DEDUP_ISO the enumerator emits one table per isomorphism class.
    Every emitted table, class representative or not, goes through
    build_semigroup, the check of the enumerator that shares none of its
    code.  The search runs in batches of CORPUS_BATCH tables, each
    resumed after the last table of the one before, so only one batch is
    held; with a limit the last batch stops at the limit-th table.
    """
    remaining = spec.limit
    classes = spec.dedup == DEDUP_ISO
    for n in spec.orders:
        after = None
        while remaining != 0:
            size = CORPUS_BATCH if remaining is None else min(CORPUS_BATCH, remaining)
            batch = _batch(n, classes, after, size)
            for table in batch:
                yield build_semigroup(n, table)
            if remaining is not None:
                remaining -= len(batch)
            if len(batch) < size:
                break  # the search of order n is done
            after = batch[-1]
            del batch  # before the next is built: one batch at a time


def _batch(n: int, classes: bool, after: Table | None, size: int) -> list[Table]:
    """The next size tables of the search after after, fewer at its end."""
    batch: list[Table] = []

    def take(table: Table) -> None:
        batch.append(table)
        if len(batch) == size:
            raise StopSearch

    enumerate_semigroups(n, take, classes=classes, after=after)
    return batch
