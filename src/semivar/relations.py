"""Green's relations, their starred and tilde generalizations, and the
abundance predicates built on top of them.

Every relation is materialized as an :class:`Equivalence` whose classes
are numbered by their minimum element, so equal partitions compare equal
structurally and report output stays deterministic.

The starred relations are computed with the cancellation criterion
(a R* b iff xa = ya <=> xb = yb for all x, y in S^1), which agrees with
the oversemigroup definition and is decidable from the table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import ElementSubset, FiniteSemigroup, SemigroupError, idempotents


class CarrierMismatch(SemigroupError):
    """Two partitions (or a partition and a semigroup) disagree on carrier size."""


class EmptyU(SemigroupError):
    """Tilde relations need a non-empty set of distinguished idempotents."""


class NotIdempotentMember(SemigroupError):
    def __init__(self, element: int) -> None:
        super().__init__(f"U contains {element}, which is not an idempotent of S")
        self.element = element


@dataclass(frozen=True)
class Equivalence:
    """Partition of 0..n-1; classes are numbered by their minimum element."""

    n: int
    class_index: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_keys(cls, n: int, keys: Sequence[Hashable]) -> "Equivalence":
        """Group 0..n-1 by key; class numbering follows first occurrence.
        keys[x] is read for each x < n, so fewer keys raise IndexError."""
        index: dict = {}
        class_index = [index.setdefault(keys[x], len(index)) for x in range(n)]
        members: list[list[int]] = [[] for _ in index]
        for x, c in enumerate(class_index):
            members[c].append(x)
        return cls(n, tuple(class_index), tuple([tuple(m) for m in members]))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def same(self, x: int, y: int) -> bool:
        return self.class_index[x] == self.class_index[y]

    def class_of(self, x: int) -> tuple[int, ...]:
        return self.classes[self.class_index[x]]

    def pairs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for block in self.classes:
            for x in block:
                for y in block:
                    out.add((x, y))
        return frozenset(out)


def _check_same_carrier(p: Equivalence, q: Equivalence) -> None:
    if p.n != q.n:
        raise CarrierMismatch(f"carriers differ: {p.n} vs {q.n}")


def meet(p: Equivalence, q: Equivalence) -> Equivalence:
    """Coarsest common refinement (intersect the relations)."""
    _check_same_carrier(p, q)
    return Equivalence.from_keys(
        p.n, [(p.class_index[x], q.class_index[x]) for x in range(p.n)]
    )


def unite(keys: Sequence[Hashable], pairs: Iterable[tuple[int, int]],
          spread: Callable[[int, int], Iterable] | None = None) -> tuple[int, ...]:
    """The least equivalence on 0..len(keys)-1 that relates equal keys and
    each of pairs, as a class index numbered by first occurrence.  When two
    classes merge through a and b, the pairs spread(a, b) yields are related
    too: with the left and right translates, the result is a congruence."""
    first: dict = {}
    parent = [first.setdefault(k, x) for x, k in enumerate(keys)]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            if spread is not None:
                stack += spread(a, b)
    number: dict[int, int] = {}
    return tuple(number.setdefault(find(x), len(number)) for x in range(len(parent)))


def join(p: Equivalence, q: Equivalence) -> Equivalence:
    """Finest common coarsening: transitive closure of the union."""
    _check_same_carrier(p, q)
    pairs = [(block[0], x) for block in q.classes for x in block[1:]]
    return Equivalence.from_keys(p.n, unite(p.class_index, pairs))


def compose(p: Equivalence, q: Equivalence) -> frozenset[tuple[int, int]]:
    """Relational composition p o q as a pair set: a ~ b iff a p c q b."""
    _check_same_carrier(p, q)
    out = set()
    for a in range(p.n):
        for c in p.class_of(a):
            for b in q.class_of(c):
                out.add((a, b))
    return frozenset(out)


@dataclass(frozen=True)
class GreenBundle:
    l: Equivalence
    r: Equivalence


@dataclass(frozen=True)
class StarBundle:
    l_star: Equivalence
    r_star: Equivalence


@dataclass(frozen=True)
class TildeBundle:
    l_tilde: Equivalence
    r_tilde: Equivalence


def green(s: FiniteSemigroup) -> GreenBundle:
    """Classical L and R (principal one-sided ideals); H is ``meet(l, r)``
    and D is ``join(l, r)``.

    J is D: in a finite semigroup the two coincide (J. M. Howie,
    *Fundamentals of Semigroup Theory*, 1995, §2.1).
    """
    n = s.order
    t = s.table
    left_ideals = []
    right_ideals = []
    for a in range(n):
        sa = {t[x][a] for x in range(n)}
        sa.add(a)
        as_ = {t[a][x] for x in range(n)}
        as_.add(a)
        left_ideals.append(frozenset(sa))
        right_ideals.append(frozenset(as_))
    return GreenBundle(l=Equivalence.from_keys(n, left_ideals),
                       r=Equivalence.from_keys(n, right_ideals))


def _kernel_key(values: Sequence[int]) -> tuple[int, ...]:
    """Canonical encoding of the kernel of a map given by its value list."""
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(v, len(seen)) for v in values])


def star(s: FiniteSemigroup) -> StarBundle:
    """Starred relations over S^1; H* and D* are their meet and join.

    a R* b iff the maps x -> xa and x -> xb (x over S^1) have equal
    kernels, which is the cancellation condition xa = ya <=> xb = yb.
    """
    n = s.order
    t = s.table
    # the last value is the adjoined identity's, 1a = a1 = a; when S has an
    # identity e it repeats e's value, so the kernels are unchanged
    r_keys = [_kernel_key([t[x][a] for x in range(n)] + [a]) for a in range(n)]
    l_keys = [_kernel_key([t[a][x] for x in range(n)] + [a]) for a in range(n)]
    return StarBundle(l_star=Equivalence.from_keys(n, l_keys),
                      r_star=Equivalence.from_keys(n, r_keys))


def _checked_u(s: FiniteSemigroup, u: Iterable[int]) -> tuple[int, ...]:
    """U's members in ascending order; each must be an element id e of S,
    an int but not a bool, with ee = e."""
    members = sorted(set(u))
    if not members:
        raise EmptyU("U must be a non-empty subset of E(S)")
    t = s.table
    for e in members:
        if (not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < s.order
                or t[e][e] != e):
            raise NotIdempotentMember(e)
    return tuple(members)


def tilde(s: FiniteSemigroup, u: Iterable[int]) -> TildeBundle:
    """Tilde relations relative to U <= E(S).

    a L~ b iff ae = a <=> be = b for every e in U; R~ is the dual.
    """
    members = _checked_u(s, u)
    n = s.order
    t = s.table
    l = Equivalence.from_keys(
        n, [tuple([t[a][e] == a for e in members]) for a in range(n)]
    )
    r = Equivalence.from_keys(
        n, [tuple([t[e][a] == a for e in members]) for a in range(n)]
    )
    return TildeBundle(l_tilde=l, r_tilde=r)


def bare_classes(
    rels: Iterable[tuple[Equivalence, str]], target: ElementSubset
) -> Iterator[dict]:
    """Witnesses {relation, element} for the classes, in order, that have
    no member in target; rels is a sequence of (Equivalence, name).  The
    abundance predicates ask that it yields nothing."""
    return (
        {"relation": name, "element": block[0]}
        for rel, name in rels
        for block in rel.classes
        if target.isdisjoint(block)
    )


def is_abundant(s: FiniteSemigroup, bundle: StarBundle) -> bool:
    """Every L*-class and every R*-class meets E(S); bundle is ``star(s)``."""
    rels = ((bundle.l_star, "L*"), (bundle.r_star, "R*"))
    return next(bare_classes(rels, idempotents(s)), None) is None

