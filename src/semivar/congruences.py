"""Congruences, quotients, the u-translation map, and isomorphism search."""

from __future__ import annotations

from typing import Iterable

from .core import (
    FiniteSemigroup,
    OrderTooLarge,
    SemigroupError,
    check_element,
    idempotents,
    translate_set,
)
from .relations import CarrierMismatch, Equivalence, unite

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


def congruence_kind(s: FiniteSemigroup, p: Equivalence) -> str:
    """Strongest compatibility of p with translations: none / left / right / two_sided."""
    if p.n != s.order:
        raise CarrierMismatch(f"carriers differ: {p.n} vs {s.order}")
    # rows[x][z] is the class of xz, cols[x][z] the class of zx: p is a
    # right congruence when related x, y have equal rows, a left one when
    # they have equal columns, and it suffices to compare each member of a
    # class with its least
    ci = p.class_index
    rows = [[ci[v] for v in row] for row in s.table]
    cols = list(zip(*rows))
    right = all(rows[x] == rows[b[0]] for b in p.classes for x in b[1:])
    left = all(cols[x] == cols[b[0]] for b in p.classes for x in b[1:])
    if left and right:
        return KIND_TWO_SIDED
    if left:
        return KIND_LEFT
    return KIND_RIGHT if right else KIND_NONE


def principal_congruence(s: FiniteSemigroup, x: int, y: int) -> Equivalence:
    """Least two-sided congruence identifying x and y: relations.unite
    relates x and y, and the left and right translates of each pair it
    merges, until a fixpoint."""
    check_element(s, x)
    check_element(s, y)
    return Equivalence.from_keys(s.order, _principal(s, x, y))


def _principal(s: FiniteSemigroup, x: int, y: int) -> tuple[int, ...]:
    """principal_congruence(s, x, y) as a class index."""
    t, r = s.table, range(s.order)

    def translates(a: int, b: int) -> list[tuple[int, int]]:
        return [(t[z][a], t[z][b]) for z in r] + [(t[a][z], t[b][z]) for z in r]

    return unite(r, [(x, y)], translates)


def all_congruences(s: FiniteSemigroup) -> list[Equivalence]:
    """The full congruence lattice: join closure of the principal congruences.

    Sorted by class-index encoding; always contains the identity and the
    universal partition (orders >= 2).  The closure runs on class indices
    and builds an Equivalence only for the returned list.
    """
    n = s.order
    if n > CONGRUENCE_ORDER_BOUND:
        raise OrderTooLarge(n, CONGRUENCE_ORDER_BOUND)
    # each principal congruence once, with pairs (least member, member)
    # that relate its classes
    principals: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for x in range(n):
        for y in range(x + 1, n):
            ci = _principal(s, x, y)
            principals[ci] = [(ci.index(c), z) for z, c in enumerate(ci) if ci.index(c) != z]
    found = {tuple(range(n)), *principals}
    work = list(principals)
    # every congruence is a join of principal ones, so joining each new
    # congruence with the principals alone closes the lattice (R. Freese,
    # "Computing congruences efficiently", Algebra Universalis 59, 2008);
    # a join of congruences is a congruence, so unite needs no translates
    while work:
        c = work.pop()
        for pairs in principals.values():
            if all(c[a] == c[b] for a, b in pairs):  # the principal is below c
                continue
            j = unite(c, pairs)
            if j not in found:
                found.add(j)
                work.append(j)
    return [Equivalence.from_keys(n, ci) for ci in sorted(found)]


def sandwich_lambda(s: FiniteSemigroup, u: int) -> Equivalence:
    """lambda^u: x ~ y iff ux = uy."""
    check_element(s, u)
    return Equivalence.from_keys(s.order, s.table[u])


def sandwich_rho(s: FiniteSemigroup, u: int) -> Equivalence:
    """rho^u: x ~ y iff xu = yu."""
    check_element(s, u)
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


def u_translate_hom(s: FiniteSemigroup, u: int) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """(uS, f) for the map x -> ux from the variant S^u onto uS: uS is
    numbered by ascending id in S, and f[x] is the index of ux there.
    Unchecked; C-FHT tests that f is a homomorphism with kernel lambda^u."""
    image = sorted(translate_set(s, u))
    index = {e: i for i, e in enumerate(image)}
    return induced_subsemigroup(s, image), tuple(index[ux] for ux in s.table[u])


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
    return not any(
        p.num_classes < s.order and all(len(e_of_s.intersection(b)) <= 1 for b in p.classes)
        for p in congruences
    )
