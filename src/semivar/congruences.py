"""Congruences, quotients, homomorphisms, and isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    FiniteSemigroup,
    OrderTooLarge,
    SemigroupError,
    idempotents,
    translate_set,
)
from .relations import CarrierMismatch, Equivalence, join
from .variants import variant

#: all_congruences / is_fundamental refuse carriers larger than this by default
CONGRUENCE_ORDER_BOUND = 8

KIND_NONE = "none"
KIND_LEFT = "left"
KIND_RIGHT = "right"
KIND_TWO_SIDED = "two_sided"


class NotACongruence(SemigroupError):
    def __init__(self, kind: str) -> None:
        super().__init__(f"partition is not a two-sided congruence (kind: {kind})")
        self.kind = kind


@dataclass(frozen=True)
class Hom:
    """A multiplication-preserving map, validated on construction."""

    domain: FiniteSemigroup
    codomain: FiniteSemigroup
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.domain.order:
            raise ValueError("mapping must cover the domain")
        if any(not 0 <= v < self.codomain.order for v in self.mapping):
            raise ValueError("mapping values must be codomain ids")
        td, tc, f = self.domain.table, self.codomain.table, self.mapping
        for x in self.domain.elements:
            for y in self.domain.elements:
                if f[td[x][y]] != tc[f[x]][f[y]]:
                    raise ValueError(f"not a homomorphism at ({x},{y})")

    def kernel(self) -> Equivalence:
        """Partition of the domain by equal images."""
        return Equivalence.from_keys(self.domain.order, self.mapping)

    def image(self) -> frozenset:
        return frozenset(self.mapping)


def congruence_kind(s: FiniteSemigroup, p: Equivalence) -> str:
    """Strongest compatibility of p with translations: none / left / right / two_sided."""
    if p.n != s.order:
        raise CarrierMismatch(f"carriers differ: {p.n} vs {s.order}")
    t = s.table
    left = right = True
    for block in p.classes:
        for i, x in enumerate(block):
            for y in block[i + 1:]:
                for z in s.elements:
                    if left and not p.same(t[z][x], t[z][y]):
                        left = False
                    if right and not p.same(t[x][z], t[y][z]):
                        right = False
                    if not left and not right:
                        return KIND_NONE
    if left and right:
        return KIND_TWO_SIDED
    return KIND_LEFT if left else KIND_RIGHT


def principal_congruence(s: FiniteSemigroup, x: int, y: int) -> Equivalence:
    """Least two-sided congruence identifying x and y.

    Pair propagation: whenever two classes merge, all left and right
    translates of the merged pair are queued, until a fixpoint.
    """
    n = s.order
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("element ids out of range")
    t = s.table
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for z in range(n):
            stack.append((t[z][a], t[z][b]))
            stack.append((t[a][z], t[b][z]))
    return Equivalence.from_keys(n, [find(a) for a in range(n)])


def all_congruences(s: FiniteSemigroup) -> list[Equivalence]:
    """The full congruence lattice: join closure of the principal congruences.

    Sorted by class-index encoding; always contains the identity and the
    universal partition (orders >= 2).
    """
    n = s.order
    if n > CONGRUENCE_ORDER_BOUND:
        raise OrderTooLarge(n, CONGRUENCE_ORDER_BOUND)
    principals: dict[tuple[int, ...], Equivalence] = {}
    for x in range(n):
        for y in range(x + 1, n):
            p = principal_congruence(s, x, y)
            principals.setdefault(p.class_index, p)
    identity = Equivalence.identity(n)
    found = {identity.class_index: identity, **principals}
    work = list(principals.values())
    # every congruence is a join of principal ones, so joining each new
    # congruence with the principals alone closes the lattice (R. Freese,
    # "Computing congruences efficiently", Algebra Universalis 59, 2008)
    while work:
        p = work.pop()
        for q in principals.values():
            j = join(p, q)
            if j.class_index not in found:
                found[j.class_index] = j
                work.append(j)
    return [found[k] for k in sorted(found)]


def sandwich_lambda(s: FiniteSemigroup, u: int) -> Equivalence:
    """lambda^u: x ~ y iff ux = uy."""
    if not 0 <= u < s.order:
        raise ValueError(f"element id {u} out of range")
    return Equivalence.from_keys(s.order, s.table[u])


def sandwich_rho(s: FiniteSemigroup, u: int) -> Equivalence:
    """rho^u: x ~ y iff xu = yu."""
    if not 0 <= u < s.order:
        raise ValueError(f"element id {u} out of range")
    return Equivalence.from_keys(s.order, [s.table[x][u] for x in s.elements])


def quotient(s: FiniteSemigroup, p: Equivalence) -> FiniteSemigroup:
    """S/p with classes indexed by minimum representative; the projection
    S -> S/p is p.class_index."""
    kind = congruence_kind(s, p)
    if kind != KIND_TWO_SIDED:
        raise NotACongruence(kind)
    reps = [block[0] for block in p.classes]
    t = s.table
    rows = tuple(tuple(p.class_index[t[a][b]] for b in reps) for a in reps)
    return FiniteSemigroup(p.num_classes, rows)


def induced_subsemigroup(s: FiniteSemigroup, members: Iterable[int]) -> FiniteSemigroup:
    """Subsemigroup on a closed subset, re-indexed densely by ascending id:
    its element i is the i-th of sorted(set(members))."""
    old = sorted(set(members))
    index = {e: i for i, e in enumerate(old)}
    t = s.table
    rows = []
    for a in old:
        row = []
        for b in old:
            ab = t[a][b]
            if ab not in index:
                raise ValueError(f"subset not closed: {a}.{b} = {ab}")
            row.append(index[ab])
        rows.append(tuple(row))
    return FiniteSemigroup(len(old), tuple(rows))


def u_translate_hom(s: FiniteSemigroup, u: int) -> Hom:
    """x -> ux as a homomorphism from the variant S^u onto uS, whose
    elements are numbered by ascending id in S.  Its kernel is lambda^u."""
    image = sorted(translate_set(s, u))
    index = {e: i for i, e in enumerate(image)}
    mapping = tuple(index[ux] for ux in s.table[u])
    return Hom(domain=variant(s, u), codomain=induced_subsemigroup(s, image), mapping=mapping)


def are_isomorphic(s: FiniteSemigroup, t: FiniteSemigroup) -> tuple[int, ...] | None:
    """Lexicographically least isomorphism s -> t, or None.

    Backtracking over images in ascending order, pruning on idempotency
    and on partial products (including images forced for elements not
    yet assigned).
    """
    if s.order != t.order:
        return None
    n = s.order
    ts, tt = s.table, t.table
    if len(idempotents(s)) != len(idempotents(t)):
        return None
    f = [-1] * n
    used = [False] * n

    def consistent(k: int) -> bool:
        # sound pruning only: a False return means no completion exists,
        # but True does not yet promise one (unassigned products are
        # re-verified once the map is total)
        for j in range(k + 1):
            for x, y in ((k, j), (j, k)):
                p = ts[x][y]
                q = tt[f[x]][f[y]]
                if f[p] != -1:
                    if f[p] != q:
                        return False
                elif used[q]:
                    # q is already the image of an assigned element, but p
                    # is unassigned; injectivity makes f[p] = q impossible.
                    return False
        return True

    def extend(k: int) -> bool:
        if k == n:
            return all(
                f[ts[x][y]] == tt[f[x]][f[y]]
                for x in range(n)
                for y in range(n)
            )
        idem = ts[k][k] == k
        for c in range(n):
            if used[c] or (tt[c][c] == c) != idem:
                continue
            f[k] = c
            used[c] = True
            if consistent(k) and extend(k + 1):
                return True
            f[k] = -1
            used[c] = False
        return False

    return tuple(f) if extend(0) else None


def is_fundamental(s: FiniteSemigroup) -> bool:
    """No congruence other than the identity separates no idempotents.

    That is: every congruence whose restriction to E(S) is trivial is the
    identity congruence.
    """
    return fundamental_among(s, all_congruences(s))


def fundamental_among(s: FiniteSemigroup, congruences: Iterable[Equivalence]) -> bool:
    """is_fundamental's test applied to congruences, which should be
    all_congruences(s): for callers that already hold that list."""
    e_of_s = idempotents(s)
    identity = Equivalence.identity(s.order)
    for p in congruences:
        if p.class_index == identity.class_index:
            continue
        separates = all(
            sum(1 for x in block if x in e_of_s) <= 1 for block in p.classes
        )
        if separates:
            return False
    return True
