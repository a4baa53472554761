"""The claim registry: executable statements about finite semigroups.

Each claim has a stable id, a class, an evaluator, and a witness
re-checker:

* hard claims are expected to hold on every instance; a FAILS result is
  an implementation bug or a disproof and aborts acceptance.
* observed claims record whatever the corpus shows; FAILS results are
  findings, not errors, and never abort a run.

``_claim`` builds a claim's evaluator from an instance domain and a
check.  The domain lists the claim's instances on one semigroup as params
dicts: ``_once`` (``[{}]``, a claim without parameters),
``_per_element("a")`` (or ``"u"``), ``_per_idempotent``, ``_per_u``
(subsets U of E(S) under the U-policy), and the products of three claims
(C-NONCONG, C-2.6, C-3.5).  ``check(s, opts, **params)`` returns ``_NA``
(not applicable), None (HOLDS) or a witness dict (FAILS).  The witness is
the first in the check's fixed scan order (``_first`` over a generator),
so reports are deterministic.  Checks decide on production objects alone
and reach no literal helper, so a production fault is a FAILS whose
witness the re-checker refuses, not a crash or a HOLDS.  The
differential claims C-1.2, C-1.3, C-3.1 and C-FUND compare production
with a definition by design.

``recheck_result`` reproduces a FAILS result from the serialized table,
params, and witness alone; an element id outside the table, or a bool
outside the flag fields, refutes the witness before its re-checker runs.
Re-checkers are definitional: they scan raw tables instead of calling
production code, except where the claim is about that code (C-1.2
``star``, C-3.1 ``all_congruences`` and ``quotient``, C-FUND
``is_fundamental``).  Literal helpers build tests, deriving S^1 once per
table: ``_related_lit(table, name, us)`` returns ``related(x, y)`` for L,
R, L*, R*, L~ or R~, ``_natural_leq_lit(table)`` returns ``leq(a, b)``.
A left-hand relation (L, L*, L~, P2) is the right-hand one on the
transposed table, the table of the dual semigroup.

U-policy: claims parameterized by a subset U of E(S) iterate all
non-empty subsets when |E(S)| <= 4, otherwise the singletons plus E(S)
itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from . import congruences, core, relations, variants, orders
from .congruences import (
    CONGRUENCE_ORDER_BOUND,
    KIND_LEFT,
    KIND_RIGHT,
    KIND_TWO_SIDED,
    NotACongruence,
    all_congruences,
    are_isomorphic,
    congruence_kind,
    fundamental_among,
    induced_subsemigroup,
    is_fundamental,
    quotient,
    sandwich_lambda,
    sandwich_rho,
    u_translate_hom,
)
from .core import FiniteSemigroup, OrderTooLarge, SemigroupError, idempotents
from .relations import Equivalence, bare_classes
from .report import (
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_NOT_APPLICABLE,
    ClaimResult,
)
from .sgt import inline_table, parse_inline

KIND_HARD = "hard"
KIND_OBSERVED = "observed"


class UnknownClaim(SemigroupError):
    def __init__(self, claim_id: str) -> None:
        super().__init__(f"unknown claim id: {claim_id}")
        self.claim_id = claim_id


@dataclass(frozen=True)
class Options:
    """Harness configuration that changes claim semantics."""

    #: weak U-abundance looks for idempotents in U itself instead of E(S)
    strict_u: bool = False


@dataclass(frozen=True)
class Claim:
    claim_id: str
    kind: str
    summary: str
    #: evaluate(s, opts, table=None); table is inline_table(s), built when omitted
    evaluate: Callable[..., list[ClaimResult]]
    recheck: Callable[[FiniteSemigroup, dict, dict, Options], bool]


# ---------------------------------------------------------------------------
# cached production accessors (claims share per-semigroup computations)

_green = lru_cache(maxsize=512)(relations.green)
_star = lru_cache(maxsize=512)(relations.star)
_idem = lru_cache(maxsize=512)(idempotents)
_natural = lru_cache(maxsize=512)(orders.natural_leq)


@lru_cache(maxsize=512)
def _abundant(s: FiniteSemigroup) -> bool:
    return relations.is_abundant(s, _star(s))


@lru_cache(maxsize=2048)
def _variant(s: FiniteSemigroup, a: int) -> FiniteSemigroup:
    return variants.variant(s, a)


# C-3.1 and C-FUND read it for the same table in one pass of the runner;
# a small cache keeps the lattices of few tables alive
@lru_cache(maxsize=32)
def _congruences(s: FiniteSemigroup) -> tuple[Equivalence, ...]:
    return tuple(congruences.all_congruences(s))


@lru_cache(maxsize=2048)
def _tilde(s: FiniteSemigroup, u: frozenset) -> relations.TildeBundle:
    return relations.tilde(s, u)


@lru_cache(maxsize=2048)
def _psets(s: FiniteSemigroup, a: int) -> variants.PSets:
    return variants.p_sets(s, a, _star(s))


def u_subsets(s: FiniteSemigroup) -> Iterator[tuple[int, ...]]:
    """The subsets of E(S) a U-parameterized claim ranges over."""
    es = sorted(_idem(s))
    if len(es) <= 4:
        for k in range(1, len(es) + 1):
            yield from itertools.combinations(es, k)
    else:
        for e in es:
            yield (e,)
        yield tuple(es)


U_POLICY = "all non-empty subsets of E(S) when |E(S)| <= 4, else singletons and E(S)"


# ---------------------------------------------------------------------------
# instance domains, the claim constructor, and the witness searches claims
# share

#: what a check returns for an instance the claim does not apply to
_NA = object()


def _once(s):
    return [{}]


def _per_element(name):
    """The instances {name: x}, one per element x of S."""
    return lambda s: [{name: x} for x in range(s.order)]


def _per_idempotent(s):
    return [{"e": e} for e in sorted(_idem(s))]


def _per_u(s):
    return [{"U": list(us)} for us in u_subsets(s)]


def _claim(cid, kind, summary, instances, check, recheck) -> Claim:
    """The claim whose evaluator gives one result per params dict of
    instances(s), from check(s, opts, **params): _NA, None (HOLDS) or a
    witness (FAILS)."""

    def evaluate(s, opts, table=None):
        # the runner passes the table key it already built for this table
        if table is None:
            table = inline_table(s)
        out = []
        for p in instances(s):
            w = check(s, opts, **p)
            status = STATUS_FAILS if w else STATUS_HOLDS
            if w is _NA:
                status, w = STATUS_NOT_APPLICABLE, None
            out.append(ClaimResult(cid, table, p, status, w))
        return out

    return Claim(cid, kind, summary, evaluate, recheck)


def _first(witnesses):
    """The first witness a generator yields, or None."""
    return next(witnesses, None)


def _diff_pairs(p: Equivalence, q: Equivalence):
    """The pairs x < y, in scan order, on which p and q disagree."""
    return (
        (x, y)
        for x in range(p.n)
        for y in range(x + 1, p.n)
        if p.same(x, y) != q.same(x, y)
    )


def _star_sides(st: relations.StarBundle, table):
    """(side, starred relation, table its literal check reads) for R, L."""
    return (("R", st.r_star, table), ("L", st.l_star, _dual(table)))


def _law_violation(rel: orders.OrderRelation):
    """The first partial-order law rel breaks, with its elements, or None."""
    x = rel.check_reflexive()
    if x is not None:
        return {"law": "reflexivity", "x": x}
    pair = rel.check_antisymmetric()
    if pair is not None:
        return {"law": "antisymmetry", "x": pair[0], "y": pair[1]}
    trio = rel.check_transitive()
    if trio is not None:
        return {"law": "transitivity", "x": trio[0], "y": trio[1], "z": trio[2]}
    return None


def _iso_witness(a, b, name_a, name_b):
    """Both tables, under the given names, when a and b are not isomorphic."""
    if are_isomorphic(a, b) is None:
        return {name_a: inline_table(a), name_b: inline_table(b)}
    return None


# ---------------------------------------------------------------------------
# definitional helpers used by the witness re-checkers.  These work on raw
# tables and spell the definitions out; they deliberately avoid the
# production partition machinery.


def _dual(table):
    """The table of the dual semigroup: x.y read as y.x."""
    return tuple(zip(*table))


def _side(table, name):
    """The table on which the right-hand helpers decide relation name:
    the table itself for R, R*, R~, and its dual for L, L*, L~."""
    if name[:1] not in ("L", "R"):  # a witness may name any side
        raise ValueError(f"unknown side {name!r}")
    return table if name[0] == "R" else _dual(table)


def _identity_lit(table):
    """The two-sided identity of the table, or None."""
    r = range(len(table))
    return next((e for e in r if all(table[e][x] == x == table[x][e] for x in r)), None)


def _s1_table(table):
    """(table, size) of S^1: S itself when an identity exists."""
    n = len(table)
    if _identity_lit(table) is not None:
        return table, n
    rows = [tuple(row) + (x,) for x, row in enumerate(table)]
    rows.append(tuple(range(n + 1)))
    return tuple(rows), n + 1


def _related_lit(table, name, us=()):
    """The test related(x, y) of L, R, L*, R* or L~, R~ relative to us."""
    t, kind = _side(table, name), name[1:]
    if kind == "":  # equal principal right ideals xS^1 = yS^1
        ideals = [frozenset(row) | {x} for x, row in enumerate(t)]
        return lambda x, y: ideals[x] == ideals[y]
    if kind == "*":  # xa = ya <=> xb = yb for all x, y in S^1
        t1, n1 = _s1_table(t)
        r = range(n1)
        return lambda a, b: all(
            (t1[x][a] == t1[y][a]) == (t1[x][b] == t1[y][b]) for x in r for y in r)
    if kind == "~":  # ex = x <=> ey = y for every e in us
        return lambda x, y: all((t[e][x] == x) == (t[e][y] == y) for e in us)
    raise ValueError(f"unknown relation {name!r}")


def _bare_class_lit(table, name, a, target, us=()):
    """True when the name-class of a has no member in target."""
    related = _related_lit(table, name, us)
    return not any(related(a, b) for b in target)


def _idems_lit(table):
    return [x for x in range(len(table)) if table[x][x] == x]


def _regular_lit(table, x):
    return any(table[table[x][y]][x] == x for y in range(len(table)))


def _all_regular_lit(table):
    return all(_regular_lit(table, x) for x in range(len(table)))


def _classes_meet_lit(table, names, target, us=()):
    """True when every class of each relation in names meets target:
    abundance for L*, R* and E(S); weak U-abundance for L~, R~."""
    return all(
        any(related(a, b) for b in target)
        for related in (_related_lit(table, name, us) for name in names)
        for a in range(len(table))
    )


def _abundant_lit(table):
    return _classes_meet_lit(table, ("L*", "R*"), set(_idems_lit(table)))


def _sandwich_table(table, a):
    n = len(table)
    return tuple(tuple(table[table[x][a]][y] for y in range(n)) for x in range(n))


def _natural_leq_lit(table):
    """The test leq(a, b): a = xb = by with xa = a for some x, y in S^1."""
    t1, n1 = _s1_table(table)
    r = range(n1)
    return lambda a, b: (any(t1[x][b] == a and t1[x][a] == a for x in r)
                         and any(t1[b][y] == a for y in r))


def _law_broken_lit(leq, w):
    """True when leq breaks the witness's partial-order law at its elements."""
    x = w["x"]
    if w["law"] == "reflexivity":
        return not leq(x, x)
    y = w["y"]
    if w["law"] == "antisymmetry":
        return x != y and leq(x, y) and leq(y, x)
    z = w["z"]
    return leq(x, y) and leq(y, z) and not leq(x, z)


def _is_congruence_lit(table, class_index):
    n = len(table)
    for x in range(n):
        for y in range(n):
            if class_index[x] != class_index[y]:
                continue
            for z in range(n):
                if class_index[table[z][x]] != class_index[table[z][y]]:
                    return False
                if class_index[table[x][z]] != class_index[table[y][z]]:
                    return False
    return True


def _separating_lit(class_index, es):
    """True when the canonical class_index is not the identity partition
    and no class holds two of the idempotents es."""
    return max(class_index) + 1 != len(class_index) and len({class_index[x] for x in es}) == len(es)


def _iso_exists_lit(ta, tb):
    """Exhaustive isomorphism test between two raw tables."""
    n = len(ta)
    return n == len(tb) and any(
        all(f[ta[x][y]] == tb[f[x]][f[y]] for x in range(n) for y in range(n))
        for f in itertools.permutations(range(n))
    )


def _lambda_classes_lit(table, u):
    """Class index of each x under lambda^u, classes ordered by the value ux."""
    values = sorted(set(table[u]))
    return [values.index(v) for v in table[u]]


def _lambda_quotient_lit(table, u):
    """Table of S^u / lambda^u built from scratch: classes by the value ux."""
    idx = _lambda_classes_lit(table, u)
    reps = [idx.index(c) for c in range(max(idx) + 1)]
    # product in the variant: a * b = a u b
    return tuple(tuple(idx[table[table[a][u]][b]] for b in reps) for a in reps)


def _usub_table_lit(table, u):
    """Table of uS with elements re-indexed by ascending original id."""
    members = sorted(set(table[u]))
    pos = {v: i for i, v in enumerate(members)}
    return tuple(tuple(pos[table[a][b]] for b in members) for a in members)


# ---------------------------------------------------------------------------
# C-1.1  regular semigroups are abundant (classical and starred classes
#        all meet E(S))


def _check_c11(s, opts):
    if not core.is_regular(s):
        return _NA
    g, st = _green(s), _star(s)
    rels = ((g.l, "L"), (g.r, "R"), (st.l_star, "L*"), (st.r_star, "R*"))
    return _first(bare_classes(rels, _idem(s)))


def _recheck_c11(s, params, w, opts):
    t = s.table
    return _all_regular_lit(t) and _bare_class_lit(t, w["relation"], w["element"], _idems_lit(t))


# C-1.2  the kernel-based starred relations agree with the literal
#        pairwise cancellation condition over S^1


def _check_c12(s, opts):
    n = s.order
    sides = [(side, rel, _related_lit(t, "R*")) for side, rel, t in _star_sides(_star(s), s.table)]
    return _first(
        {"side": side, "a": a, "b": b,
         "bundle": rel.same(a, b), "literal": not rel.same(a, b)}
        for a in range(n)
        for b in range(a + 1, n)
        for side, rel, related in sides
        if rel.same(a, b) != related(a, b)
    )


def _recheck_c12(s, params, w, opts):
    st = relations.star(s)
    rel = st.r_star if w["side"] == "R" else st.l_star
    related = _related_lit(s.table, w["side"] + "*")
    return rel.same(w["a"], w["b"]) != related(w["a"], w["b"])


# C-1.3  a R* e (e idempotent) iff ea = a and xa = ya implies xe = ye;
#        dually for L*


def _c13_lit(table):
    """The test rhs(a, e): ea = a, and xa = ya implies xe = ye over S^1."""
    t1, n1 = _s1_table(table)
    r = range(n1)
    return lambda a, e: table[e][a] == a and all(
        t1[x][a] != t1[y][a] or t1[x][e] == t1[y][e] for x in r for y in r)


def _check_c13(s, opts):
    es = sorted(_idem(s))
    sides = [(side, rel, _c13_lit(t)) for side, rel, t in _star_sides(_star(s), s.table)]
    return _first(
        {"side": side, "a": a, "e": e,
         "star": rel.same(a, e), "characterization": not rel.same(a, e)}
        for a in range(s.order)
        for e in es
        for side, rel, rhs in sides
        if rel.same(a, e) != rhs(a, e)
    )


def _recheck_c13(s, params, w, opts):
    t = _side(s.table, w["side"])
    related, rhs = _related_lit(t, "R*"), _c13_lit(t)
    a, e = w["a"], w["e"]
    return t[e][e] == e and related(a, e) != rhs(a, e)


# C-INCL  L refines L* refines L~ (dually for R); all three coincide on
#         regular semigroups when U = E(S)


def _check_cincl(s, opts, U):
    g, st, td = _green(s), _star(s), _tilde(s, frozenset(U))
    links = (
        ("L", "L*", g.l, st.l_star), ("L*", "L~", st.l_star, td.l_tilde),
        ("R", "R*", g.r, st.r_star), ("R*", "R~", st.r_star, td.r_tilde),
    )
    equal = set(U) == _idem(s) and core.is_regular(s)
    return _first(itertools.chain(
        ({"part": f"{m}<={k}", "x": x, "y": y}
         for m, k, p, q in links
         for x, y in _diff_pairs(p, q)
         if p.same(x, y)),
        ({"part": f"eq:{m}={k}", "x": x, "y": y}
         for m, k, p, q in (links if equal else ())
         for x, y in _diff_pairs(p, q)),
    ))


def _recheck_cincl(s, params, w, opts):
    t = s.table
    us = tuple(sorted(params["U"]))
    body = w["part"].split(":", 1)[-1]
    names = body.split("<=" if "<=" in body else "=")
    first, second = (_related_lit(t, name, us) for name in names)
    a, b = first(w["x"], w["y"]), second(w["x"], w["y"])
    if w["part"].startswith("eq:"):
        return _all_regular_lit(t) and set(us) == set(_idems_lit(t)) and a != b
    return a and not b


# C-1.4  on an abundant semigroup the tilde relations at U = E(S)
#        collapse to the starred ones, and S is weakly E(S)-abundant


def _check_c14(s, opts):
    if not _abundant(s):
        return _NA
    es = _idem(s)
    st, td = _star(s), _tilde(s, es)
    pairs = ((st.l_star, td.l_tilde, "L*=L~"), (st.r_star, td.r_tilde, "R*=R~"))
    tildes = ((td.l_tilde, "L~"), (td.r_tilde, "R~"))
    return _first(itertools.chain(
        ({"part": name, "x": x, "y": y}
         for p, q, name in pairs
         for x, y in _diff_pairs(p, q)),
        ({"part": "weakly-abundant", **w} for w in bare_classes(tildes, es)),
    ))


def _recheck_c14(s, params, w, opts):
    t = s.table
    if not _abundant_lit(t):
        return False
    us = tuple(_idems_lit(t))
    if w["part"] == "weakly-abundant":
        return _bare_class_lit(t, w["relation"], w["element"], set(us), us)
    first, second = (_related_lit(t, name, us) for name in w["part"].split("="))
    return first(w["x"], w["y"]) != second(w["x"], w["y"])


# C-NONCONG  is L~ a right congruence (R~ a left congruence)?  Observed:
#            expected to fail on some instances.


def _per_u_relation(s):
    return [{"U": list(us), "relation": r} for us in u_subsets(s) for r in ("L~", "R~")]


def _check_noncong(s, opts, U, relation):
    td = _tilde(s, frozenset(U))
    rel = td.l_tilde if relation == "L~" else td.r_tilde
    # L~ is tested on right translates x.z, R~ on left translates z.x
    t = s.table if relation == "L~" else _dual(s.table)
    return _first(
        {"x": x, "y": y, "z": z}
        for block in rel.classes
        for i, x in enumerate(block)
        for y in block[i + 1:]
        for z in range(s.order)
        if not rel.same(t[x][z], t[y][z])
    )


def _recheck_noncong(s, params, w, opts):
    t = s.table
    us = tuple(sorted(params["U"]))
    name = params["relation"]
    x, y, z = w["x"], w["y"], w["z"]
    m = t if name == "L~" else _dual(t)
    related = _related_lit(t, name, us)
    return related(x, y) and not related(m[x][z], m[y][z])


# C-2.1  the sandwich operation x * y = x a y is associative


def _check_c21(s, opts, a):
    vt = _variant(s, a).table
    return _first(
        {"x": x, "y": y, "z": z}
        for x, y, z in itertools.product(range(s.order), repeat=3)
        if vt[vt[x][y]][z] != vt[x][vt[y][z]]
    )


def _recheck_c21(s, params, w, opts):
    vt = _sandwich_table(s.table, params["a"])
    x, y, z = w["x"], w["y"], w["z"]
    return vt[vt[x][y]][z] != vt[x][vt[y][z]]


# C-2.2-quantifier  does quantifying the variant's cancellation condition
#                   over S^a only (no adjoined identity) give the same
#                   relations as quantifying over (S^a)^1?  Observed.


def _plain_r_star(vt):
    """R* of a table with its cancellation condition quantified over S only:
    ``star``'s column kernels without the adjoined identity's value."""
    return Equivalence.from_keys(len(vt), [relations._kernel_key(col) for col in zip(*vt)])


def _check_c22q(s, opts, a):
    v = _variant(s, a)
    return _first(
        {"side": side, "x": x, "y": y,
         "adjoined": rel.same(x, y), "plain": not rel.same(x, y)}
        for side, rel, t in _star_sides(_star(v), v.table)
        for x, y in _diff_pairs(rel, _plain_r_star(t))
    )


def _recheck_c22q(s, params, w, opts):
    vt = _side(_sandwich_table(s.table, params["a"]), w["side"])
    related = _related_lit(vt, "R*")
    x, y = w["x"], w["y"]
    r = range(len(vt))
    plain = all((vt[u][x] == vt[v][x]) == (vt[u][y] == vt[v][y]) for u in r for v in r)
    return related(x, y) != plain


# C-2.2-composition  is D* of the variant the relational composition
#                    R* o L* (= L* o R*)?  Observed.


def _check_c22c(s, opts, a):
    n = s.order
    st = _star(_variant(s, a))
    jp = relations.join(st.l_star, st.r_star).pairs()
    rl = relations.compose(st.r_star, st.l_star)
    lr = relations.compose(st.l_star, st.r_star)
    if rl == jp == lr:
        return None
    return _first(
        {"x": x, "y": y, "in_join": j, "in_rl": p, "in_lr": q}
        for x in range(n)
        for y in range(n)
        for j, p, q in [((x, y) in jp, (x, y) in rl, (x, y) in lr)]
        if len({j, p, q}) > 1
    )


def _recheck_c22c(s, params, w, opts):
    vt = _sandwich_table(s.table, params["a"])
    n = len(vt)

    def least_related(name):  # the least member of each element's class
        related = _related_lit(vt, name)
        return [next(b for b in range(n) if related(b, c)) for c in range(n)]

    lidx, ridx = least_related("L*"), least_related("R*")
    x, y = w["x"], w["y"]
    in_rl = any(ridx[x] == ridx[c] and lidx[c] == lidx[y] for c in range(n))
    in_lr = any(lidx[x] == lidx[c] and ridx[c] == ridx[y] for c in range(n))
    # D* = the join: everything reachable from x by L*- or R*-steps
    reach, todo = {x}, [x]
    while todo:
        c = todo.pop()
        for b in set(range(n)) - reach:
            if lidx[b] == lidx[c] or ridx[b] == ridx[c]:
                reach.add(b)
                todo.append(b)
    found = (y in reach, in_rl, in_lr)
    return found == (w["in_join"], w["in_rl"], w["in_lr"]) and len(set(found)) > 1


# C-2.3-restricted  on P1 the variant's R* agrees with the base's R*
#                   (dually P2 / L*).  Hard.
# C-2.3-literal     the unrestricted reading: for every x,
#                   R*^a-class(x) & P1 = R*-class(x).  Observed.


def _c23_sides(s, a):
    """(side, P-set, variant relation, base relation) for R/P1 and L/P2."""
    ps, bst = _psets(s, a), _star(s)
    vst = _star(_variant(s, a))
    return (
        ("R", ps.p1, vst.r_star, bst.r_star),
        ("L", ps.p2, vst.l_star, bst.l_star),
    )


def _check_c23r(s, opts, a):
    return _first(
        {"side": side, "x": x, "y": y,
         "variant_related": vrel.same(x, y), "base_related": not vrel.same(x, y)}
        for side, pset, vrel, brel in _c23_sides(s, a)
        for x, y in _diff_pairs(vrel, brel)
        if x in pset and y in pset
    )


def _recheck_c23r(s, params, w, opts):
    a = params["a"]
    t = _side(s.table, w["side"])
    base, variant = _related_lit(t, "R*"), _related_lit(_sandwich_table(t, a), "R*")
    x, y = w["x"], w["y"]
    # x is in P1 when ax R* x
    return base(t[a][x], x) and base(t[a][y], y) and variant(x, y) != base(x, y)


def _check_c23l(s, opts, a):
    for side, pset, vrel, brel in _c23_sides(s, a):
        for x in range(s.order):
            lhs = pset.intersection(vrel.class_of(x))
            rhs = set(brel.class_of(x))
            if lhs != rhs:
                y = min(lhs ^ rhs)
                return {"side": side, "x": x, "y": y,
                        "in_variant_cap_p": y in lhs, "in_base": y in rhs}
    return None


def _recheck_c23l(s, params, w, opts):
    a = params["a"]
    t = _side(s.table, w["side"])
    base, variant = _related_lit(t, "R*"), _related_lit(_sandwich_table(t, a), "R*")
    x, y = w["x"], w["y"]
    return (variant(x, y) and base(t[a][y], y)) != base(x, y)


# C-2.4  variants of an abundant monoid at invertible sandwich elements
#        are abundant


def _check_c24(s, opts, a):
    if not (s.identity is not None and _abundant(s) and core.is_invertible(s, a)):
        return _NA
    v = _variant(s, a)
    vst = _star(v)
    rels = ((vst.l_star, "L*"), (vst.r_star, "R*"))
    return _first(bare_classes(rels, _idem(v)))


def _recheck_c24(s, params, w, opts):
    t, n, a = s.table, s.order, params["a"]
    e = _identity_lit(t)
    if e is None or not _abundant_lit(t):
        return False
    if not any(t[a][b] == e == t[b][a] for b in range(n)):
        return False
    vt = _sandwich_table(t, a)
    return _bare_class_lit(vt, w["relation"], w["element"], _idems_lit(vt))


# C-2.5  an idempotent sandwich element is idempotent in its own variant


def _check_c25(s, opts, e):
    eee = _variant(s, e).table[e][e]
    return None if eee == e else {"e_star_e": eee}


def _recheck_c25(s, params, w, opts):
    t = s.table
    e = params["e"]
    eee = t[t[e][e]][e]
    return t[e][e] == e and eee != e and w["e_star_e"] == eee


# C-2.6  weak abundance passed to idempotent variants, under two readings
#        of the inherited idempotent set.  Observed.


def _per_u_idempotent(s):
    return [{"U": list(us), "e": e} for us in u_subsets(s) for e in us]


def _unabundant(v, us, opts):
    """The first L~/R~ class of v at U = us without a target idempotent."""
    td = _tilde(v, frozenset(us))
    target = frozenset(us) if opts.strict_u else _idem(v)
    rels = ((td.l_tilde, "L~"), (td.r_tilde, "R~"))
    return _first(bare_classes(rels, target))


def _check_c26(s, opts, U, e, reading):
    if _unabundant(s, U, opts) is not None:
        return _NA
    v = _variant(s, e)
    if v.table[e][e] != e:  # the premise that C-2.5 checks
        return _NA
    uprime = sorted(set(U) & _idem(v)) if reading == "inter" else [e]
    w = _unabundant(v, uprime, opts)
    return w and {"Uprime": uprime, **w}


def _recheck_c26(s, params, w, opts, reading):
    us = tuple(sorted(params["U"]))
    e = params["e"]
    target = set(us) if opts.strict_u else set(_idems_lit(s.table))
    if not _classes_meet_lit(s.table, ("L~", "R~"), target, us):
        return False
    vt = _sandwich_table(s.table, e)
    uprime = (e,)
    if reading == "inter":
        uprime = tuple(sorted(set(us) & set(_idems_lit(vt))))
    if tuple(sorted(w["Uprime"])) != uprime:
        return False
    target = set(uprime) if opts.strict_u else set(_idems_lit(vt))
    return _bare_class_lit(vt, w["relation"], w["element"], target, uprime)


# C-3.1  the congruence lattice: join-closure of principal congruences
#        equals the brute-force partition filter, and every quotient is
#        well defined


def _partitions_lit(n):
    """All partitions of 0..n-1 as canonical class-index tuples."""
    code: list[int] = []

    def rec(i, k):
        if i == n:
            yield tuple(code)
            return
        for c in range(k + 1):
            code.append(c)
            yield from rec(i + 1, k + 1 if c == k else k)
            code.pop()

    yield from rec(0, 0)


def _canonical_lit(ci, n):
    """True when ci lists n class numbers, each new one the count of those
    before it: a class index numbered by first occurrence."""
    return type(ci) is list and len(ci) == n and all(
        type(c) is int and (c in ci[:i] or c == len(set(ci[:i]))) for i, c in enumerate(ci))


@lru_cache(maxsize=512)
def _lit_congruences(s: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """The partitions passing the literal congruence test, in
    _partitions_lit order: the brute-force side of C-3.1 and C-FUND.
    Refuses carriers above CONGRUENCE_ORDER_BOUND, as all_congruences
    does: there are Bell(n) partitions."""
    if s.order > CONGRUENCE_ORDER_BOUND:
        raise OrderTooLarge(s.order, CONGRUENCE_ORDER_BOUND)
    partitions = _partitions_lit(s.order)
    return tuple(ci for ci in partitions if _is_congruence_lit(s.table, ci))


def _check_c31(s, opts):
    t, n = s.table, s.order
    if n > CONGRUENCE_ORDER_BOUND:  # no lattice is computed past the bound
        return _NA
    produced = _congruences(s)
    made = {p.class_index for p in produced}
    brute = set(_lit_congruences(s))
    if made != brute:
        return {"part": "lattice",
                "only_production": [list(k) for k in sorted(made - brute)[:1]],
                "only_bruteforce": [list(k) for k in sorted(brute - made)[:1]]}
    return _first(
        {"part": "refused", "partition": list(ci), "kind": kind} if q is None else
        {"part": "welldef", "partition": list(ci), "x": x, "y": y}
        for p in produced
        for ci, (q, kind) in [(p.class_index, _quotient(s, p))]
        for x in range(n)
        for y in range(n)
        if q is None or q.table[ci[x]][ci[y]] != ci[t[x][y]]
    )


def _recheck_c31(s, params, w, opts):
    t, n = s.table, s.order
    if w["part"] == "lattice":  # each partition listed is made and no congruence, or the reverse
        made = {p.class_index for p in all_congruences(s)}
        sides = {True: w["only_production"], False: w["only_bruteforce"]}
        return any(sides.values()) and all(
            _canonical_lit(ci, n) and (tuple(ci) in made) == produced != _is_congruence_lit(t, ci)
            for produced, listed in sides.items() for ci in listed)
    ci = w["partition"]
    if w["part"] == "refused":  # quotient refused what is literally no congruence
        return _canonical_lit(ci, n) and not _is_congruence_lit(t, ci)
    if not (_canonical_lit(ci, n) and _is_congruence_lit(t, ci)):
        return False
    q = quotient(s, Equivalence.from_keys(n, ci))
    x, y = w["x"], w["y"]
    return q.table[ci[x]][ci[y]] != ci[t[x][y]]


# C-3.2  lambda^u is a left congruence and rho^u a right congruence on
#        the variant S^u; lambda^u is in fact two-sided there


def _check_c32(s, opts, u):
    v = _variant(s, u)
    lam = congruence_kind(v, sandwich_lambda(s, u))
    if lam not in (KIND_LEFT, KIND_TWO_SIDED):
        return {"relation": "lambda", "requirement": "left", "kind": lam}
    rho = congruence_kind(v, sandwich_rho(s, u))
    if rho not in (KIND_RIGHT, KIND_TWO_SIDED):
        return {"relation": "rho", "requirement": "right", "kind": rho}
    if lam != KIND_TWO_SIDED:
        return {"relation": "lambda", "requirement": "right", "kind": lam}
    return None


def _recheck_c32(s, params, w, opts):
    """A literal scan of S^u for x, y related and z that the requirement's
    translation (x * z for right, z * x for left) separates."""
    t, u, r = s.table, params["u"], range(s.order)
    key = t[u] if w["relation"] == "lambda" else [row[u] for row in t]  # ux or xu
    vt = _sandwich_table(t, u)
    m = vt if w["requirement"] == "right" else _dual(vt)
    return any(key[x] == key[y] and key[m[x][z]] != key[m[y][z]] for x in r for y in r for z in r)


# C-3.4  S^u / lambda^u is isomorphic to uS


def _quotient(v, p):
    """(v / p, None), or (None, its congruence kind) when quotient refuses p."""
    try:
        return quotient(v, p), None
    except NotACongruence as err:
        return None, err.kind


def _check_c34(s, opts, u):
    q, kind = _quotient(_variant(s, u), sandwich_lambda(s, u))
    if q is None:
        return {"part": "lambda-not-congruence", "kind": kind}
    image = induced_subsemigroup(s, core.translate_set(s, u))
    return _iso_witness(q, image, "quotient", "image")


def _recheck_c34(s, params, w, opts):
    t = s.table
    u = params["u"]
    if w.get("part") == "hom":  # C-FHT: u(x.u.y) = (ux)(uy) in any semigroup
        x, y = w["x"], w["y"]
        return t[u][t[t[x][u]][y]] != t[t[u][x]][t[u][y]]
    if w.get("part") == "lambda-not-congruence":
        return not _is_congruence_lit(_sandwich_table(t, u), _lambda_classes_lit(t, u))
    return not _iso_exists_lit(_lambda_quotient_lit(t, u), _usub_table_lit(t, u))


# C-3.5  L-related sandwich elements give isomorphic quotients
#        S^a/lambda^a and S^b/lambda^b.  Observed.


def _per_l_pair(s):
    """The pairs a < b of L-related elements, class by class."""
    classes = _green(s).l.classes
    return [{"a": a, "b": b} for c in classes for i, a in enumerate(c) for b in c[i + 1:]]


def _check_c35(s, opts, a, b):
    qs = {at: _quotient(_variant(s, at), sandwich_lambda(s, at)) for at in (a, b)}
    for at, (q, kind) in qs.items():
        if q is None:
            return {"part": "lambda-not-congruence", "at": at, "kind": kind}
    return _iso_witness(qs[a][0], qs[b][0], "quotient_a", "quotient_b")


def _recheck_c35(s, params, w, opts):
    t, related = s.table, _related_lit(s.table, "L")
    a, b = params["a"], params["b"]
    if not related(a, b):
        return False
    if w.get("part") == "lambda-not-congruence":
        at = w["at"]  # as for C-3.4: lambda^at is literally no congruence on S^at
        vt = _sandwich_table(t, at)
        return at in (a, b) and not _is_congruence_lit(vt, _lambda_classes_lit(t, at))
    return not _iso_exists_lit(_lambda_quotient_lit(t, a), _lambda_quotient_lit(t, b))


# C-FHT  first isomorphism theorem for the u-translation homomorphism:
#        domain / kernel is isomorphic to the image


def _check_cfht(s, opts, u):
    image, f = u_translate_hom(s, u)
    v, it = _variant(s, u), image.table
    broken = _first(
        {"part": "hom", "x": x, "y": y}
        for x in s.elements
        for y in s.elements
        if f[v.table[x][y]] != it[f[x]][f[y]]
    )
    if broken:
        return broken
    q, kind = _quotient(v, Equivalence.from_keys(s.order, f))
    if q is None:  # the kernel of x -> ux is lambda^u, as _recheck_c34 reads it
        return {"part": "lambda-not-congruence", "kind": kind}
    return _iso_witness(q, image, "quotient", "image")


# C-FUND  the no-nontrivial-idempotent-separating-congruence predicate
#         agrees with a brute-force scan over all partitions


def _check_cfund(s, opts):
    if s.order > CONGRUENCE_ORDER_BOUND:  # no lattice is computed past the bound
        return _NA
    es = _idems_lit(s.table)
    found = _first(list(ci) for ci in _lit_congruences(s) if _separating_lit(ci, es))
    production, brute = fundamental_among(s, _congruences(s)), found is None
    if production == brute:
        return None
    return {"production": production, "bruteforce": brute,
            "witness_partition": found}


def _recheck_cfund(s, params, w, opts):
    production = is_fundamental(s)  # raises OrderTooLarge above the bound
    t, n, ci = s.table, s.order, w["witness_partition"]
    # production calls S fundamental exactly when brute force names a partition
    named = ci is not None
    if not (production is named is w["production"] and w["bruteforce"] is not named):
        return False
    es = _idems_lit(t)
    if ci is None:  # then the literal scan of all partitions finds none
        return not any(_separating_lit(p, es) and _is_congruence_lit(t, p)
                       for p in _partitions_lit(n))
    return _canonical_lit(ci, n) and _separating_lit(ci, es) and _is_congruence_lit(t, ci)


# C-4.0  the natural order restricted to idempotents is the usual
#        idempotent order ef = fe = e


def _check_c40(s, opts):
    t, leq = s.table, _natural(s).leq
    es = sorted(_idem(s))
    return _first(
        {"e": e, "f": f, "natural": leq[e][f], "usual": not leq[e][f]}
        for e in es
        for f in es
        if leq[e][f] != (t[e][f] == e and t[f][e] == e)
    )


def _recheck_c40(s, params, w, opts):
    t, leq = s.table, _natural_leq_lit(s.table)
    e, f = w["e"], w["f"]
    if t[e][e] != e or t[f][f] != f:
        return False
    usual = t[e][f] == e and t[f][e] == e
    return leq(e, f) != usual


# C-4.1  E(S^e) versus {f in E(S) : f <= e}: the forward inclusion is
#        hard, the reverse is observed (counterexamples expected)


def _check_c41f(s, opts, e):
    t = s.table
    vt = _variant(s, e).table
    return _first(
        {"f": f, "f_star_f": vt[f][f]}
        for f in sorted(_idem(s))
        if t[f][e] == f and t[e][f] == f and vt[f][f] != f
    )


def _recheck_c41f(s, params, w, opts):
    t = s.table
    e, f = params["e"], w["f"]
    if t[e][e] != e or t[f][f] != f:
        return False
    fef = t[t[f][e]][f]
    return t[f][e] == f and t[e][f] == f and fef != f and w["f_star_f"] == fef


def _check_c41r(s, opts, e):
    t = s.table
    vt = _variant(s, e).table
    return _first(
        {"f": f, "ff": t[f][f], "fe": t[f][e], "ef": t[e][f]}
        for f in s.elements
        if vt[f][f] == f
        and not (t[f][f] == f and t[f][e] == f and t[e][f] == f)
    )


def _recheck_c41r(s, params, w, opts):
    t = s.table
    e, f = params["e"], w["f"]
    if t[e][e] != e or (w["ff"], w["fe"], w["ef"]) != (t[f][f], t[f][e], t[e][f]):
        return False
    in_variant = t[t[f][e]][f] == f
    below = t[f][f] == f and t[f][e] == f and t[e][f] == f
    return in_variant and not below


# C-4.2  <=_e is a partial order on E(S^e)


def _check_c42(s, opts, e):
    return _law_violation(orders.variant_idempotent_leq(s, e))


def _recheck_c42(s, params, w, opts):
    vt = _sandwich_table(s.table, params["e"])

    def leq(a, b):
        return vt[a][a] == a and vt[b][b] == b and vt[a][b] == a and vt[b][a] == a

    x = w["x"]
    return vt[x][x] == x and _law_broken_lit(leq, w)


# C-4.3  a <=_e b in the variant implies a <= b in the base


def _check_c43(s, opts, e):
    leq, vleq = _natural(s).leq, _natural(_variant(s, e)).leq
    return _first(
        {"a": a, "b": b}
        for a in s.elements
        for b in s.elements
        if vleq[a][b] and not leq[a][b]
    )


def _recheck_c43(s, params, w, opts):
    leq, vleq = _natural_leq_lit(s.table), _natural_leq_lit(_sandwich_table(s.table, params["e"]))
    a, b = w["a"], w["b"]
    return vleq(a, b) and not leq(a, b)


# C-4.4  below an idempotent of the variant everything is idempotent
#        there (a); below a regular element everything is regular (b)


def _check_c44a(s, opts, e):
    vt, leq = _variant(s, e).table, _natural(_variant(s, e)).leq
    return _first(
        {"a": a, "f": f}
        for f in s.elements
        if vt[f][f] == f
        for a in s.elements
        if leq[a][f] and vt[a][a] != a
    )


def _recheck_c44a(s, params, w, opts):
    vt = _sandwich_table(s.table, params["e"])
    leq = _natural_leq_lit(vt)
    a, f = w["a"], w["f"]
    return vt[f][f] == f and leq(a, f) and vt[a][a] != a


def _check_c44b(s, opts, e):
    v, leq = _variant(s, e), _natural(_variant(s, e)).leq
    regular = [core.is_regular_element(v, x) for x in s.elements]
    return _first(
        {"a": a, "b": b}
        for a in s.elements
        for b in s.elements
        if leq[a][b] and regular[b] and not regular[a]
    )


def _recheck_c44b(s, params, w, opts):
    vt = _sandwich_table(s.table, params["e"])
    leq = _natural_leq_lit(vt)
    a, b = w["a"], w["b"]
    return leq(a, b) and _regular_lit(vt, b) and not _regular_lit(vt, a)


# C-NAT-PO  is the natural order actually a partial order?  Measured.


def _check_cnatpo(s, opts):
    return _law_violation(_natural(s))


def _recheck_cnatpo(s, params, w, opts):
    return _law_broken_lit(_natural_leq_lit(s.table), w)


# ---------------------------------------------------------------------------
# registry: id, class, summary, instance domain, check, re-checker


REGISTRY: dict[str, Claim] = {
    c.claim_id: c
    for c in [
        _claim("C-1.1", KIND_HARD,
               "in a regular semigroup, every L/R and L*/R* class contains an idempotent",
               _once, _check_c11, _recheck_c11),
        _claim("C-1.2", KIND_HARD,
               "kernel-computed starred relations match the literal cancellation condition over S^1",
               _once, _check_c12, _recheck_c12),
        _claim("C-1.3", KIND_HARD,
               "for idempotent e: a R* e iff ea = a and xa = ya implies xe = ye (dually for L*)",
               _once, _check_c13, _recheck_c13),
        _claim("C-INCL", KIND_HARD,
               "L refines L* refines L~ (dually R), with equality on regular semigroups at U = E(S)",
               _per_u, _check_cincl, _recheck_cincl),
        _claim("C-1.4", KIND_HARD,
               "on abundant semigroups the U = E(S) tilde relations equal the starred ones and S is weakly E(S)-abundant",
               _once, _check_c14, _recheck_c14),
        _claim("C-NONCONG", KIND_OBSERVED,
               "is L~ a right congruence (R~ a left congruence)?  fails on some instances by design",
               _per_u_relation, _check_noncong, _recheck_noncong),
        _claim("C-2.1", KIND_HARD,
               "the sandwich operation x * y = x.a.y is associative for every a",
               _per_element("a"), _check_c21, _recheck_c21),
        _claim("C-2.2-quantifier", KIND_OBSERVED,
               "variant starred relations: quantifying over S^a only versus over (S^a)^1",
               _per_element("a"), _check_c22q, _recheck_c22q),
        _claim("C-2.2-composition", KIND_OBSERVED,
               "is D* of the variant the relational composition R* o L* = L* o R*?",
               _per_element("a"), _check_c22c, _recheck_c22c),
        _claim("C-2.3-restricted", KIND_HARD,
               "restricted to P1, the variant's R* agrees with the base's R* (dually P2/L*)",
               _per_element("a"), _check_c23r, _recheck_c23r),
        _claim("C-2.3-literal", KIND_OBSERVED,
               "unrestricted reading: R*^a-class(x) intersected with P1 equals R*-class(x) for every x",
               _per_element("a"), _check_c23l, _recheck_c23l),
        _claim("C-2.4", KIND_HARD,
               "variants of an abundant monoid at invertible elements are abundant",
               _per_element("a"), _check_c24, _recheck_c24),
        _claim("C-2.5", KIND_HARD,
               "an idempotent sandwich element is idempotent in its own variant",
               _per_idempotent, _check_c25, _recheck_c25),
        _claim("C-2.6-inter", KIND_OBSERVED,
               "weak U-abundance passes to idempotent variants with U' = U intersect E(S^e)",
               _per_u_idempotent, partial(_check_c26, reading="inter"),
               partial(_recheck_c26, reading="inter")),
        _claim("C-2.6-sandwich", KIND_OBSERVED,
               "weak U-abundance passes to idempotent variants with U' = {e}",
               _per_u_idempotent, partial(_check_c26, reading="sandwich"),
               partial(_recheck_c26, reading="sandwich")),
        _claim("C-3.1", KIND_HARD,
               "the congruence lattice matches a brute-force partition filter and quotients are well defined",
               _once, _check_c31, _recheck_c31),
        _claim("C-3.2", KIND_HARD,
               "lambda^u (rho^u) is a left (right) congruence on S^u; lambda^u is two-sided there",
               _per_element("u"), _check_c32, _recheck_c32),
        _claim("C-3.4", KIND_HARD,
               "S^u / lambda^u is isomorphic to uS",
               _per_element("u"), _check_c34, _recheck_c34),
        _claim("C-3.5", KIND_OBSERVED,
               "L-related sandwich elements give isomorphic quotients S^a/lambda^a and S^b/lambda^b",
               _per_l_pair, _check_c35, _recheck_c35),
        _claim("C-FHT", KIND_HARD,
               "domain/kernel of the u-translation homomorphism is isomorphic to its image",
               _per_element("u"), _check_cfht, _recheck_c34),
        _claim("C-FUND", KIND_HARD,
               "the fundamentality predicate agrees with a brute-force scan over all partitions",
               _once, _check_cfund, _recheck_cfund),
        _claim("C-4.0", KIND_HARD,
               "the natural order restricted to E(S) is the usual idempotent order",
               _once, _check_c40, _recheck_c40),
        _claim("C-4.1-forward", KIND_HARD,
               "every idempotent below e lies in E(S^e)",
               _per_idempotent, _check_c41f, _recheck_c41f),
        _claim("C-4.1-reverse", KIND_OBSERVED,
               "is every member of E(S^e) an idempotent of S below e?  counterexamples expected",
               _per_idempotent, _check_c41r, _recheck_c41r),
        _claim("C-4.2", KIND_HARD,
               "<=_e is a partial order on E(S^e)",
               _per_idempotent, _check_c42, _recheck_c42),
        _claim("C-4.3", KIND_HARD,
               "a <=_e b in the variant implies a <= b in the base",
               _per_idempotent, _check_c43, _recheck_c43),
        _claim("C-4.4a", KIND_HARD,
               "anything <=_e-below an idempotent of S^e is idempotent in S^e",
               _per_idempotent, _check_c44a, _recheck_c44a),
        _claim("C-4.4b", KIND_HARD,
               "anything <=_e-below a regular element of S^e is regular in S^e",
               _per_idempotent, _check_c44b, _recheck_c44b),
        _claim("C-NAT-PO", KIND_OBSERVED,
               "is the natural order reflexive, antisymmetric, and transitive?  measured",
               _once, _check_cnatpo, _recheck_cnatpo),
    ]
}

HARD_CLAIM_IDS = frozenset(
    cid for cid, c in REGISTRY.items() if c.kind == KIND_HARD
)


def evaluate_claim(
    claim_id: str,
    s: FiniteSemigroup,
    params: dict | None = None,
    options: Options | None = None,
) -> list[ClaimResult]:
    """All results of one claim on one semigroup, optionally filtered to
    the instances matching params."""
    claim = REGISTRY.get(claim_id)
    if claim is None:
        raise UnknownClaim(claim_id)
    results = claim.evaluate(s, options or Options())
    if params:
        results = [
            r for r in results
            if all(r.params.get(k) == v for k, v in params.items())
        ]
    return results


# A report's records of one claim arrive in table order, so the witnesses
# on one table form a run and its key is parsed once per run.  Each distinct
# key still goes through the validating parse_inline, and a key that fails
# to parse is not cached.
@lru_cache(maxsize=1)
def _parse_witness_table(key: str) -> FiniteSemigroup:
    return parse_inline(key)


#: the witness fields the evaluators write as JSON booleans
_FLAG_FIELDS = frozenset({
    "bundle", "literal", "star", "characterization", "adjoined", "plain",
    "in_join", "in_rl", "in_lr", "variant_related", "base_related",
    "in_variant_cap_p", "in_base", "natural", "usual", "production", "bruteforce",
})


def _out_of_range(fields, n: int) -> bool:
    """True when a (name, value) field holds an int outside 0..n-1,
    directly or in a list at any depth, or a bool outside _FLAG_FIELDS.
    Every other int in params and witnesses is an element id or a class
    index, both below n; a negative one would index a row from its end,
    and True would pass for id 1."""
    for name, v in fields:
        if type(v) is list:
            if _out_of_range(((name, x) for x in v), n):
                return True
        elif type(v) is bool:
            if name not in _FLAG_FIELDS:
                return True
        elif type(v) is int and not 0 <= v < n:
            return True
    return False


def recheck_result(result: ClaimResult, options: Options | None = None) -> bool:
    """Reproduce a FAILS result from its serialized table, params, and
    witness alone.  True means the failure is confirmed; params or a
    witness holding an element id outside the table, or a bool where an
    id belongs, never are."""
    claim = REGISTRY.get(result.claim_id)
    if claim is None:
        raise UnknownClaim(result.claim_id)
    if result.status != STATUS_FAILS or result.witness is None:
        return False
    s = _parse_witness_table(result.table)
    if _out_of_range([*result.params.items(), *result.witness.items()], s.order):
        return False
    return claim.recheck(s, result.params, result.witness, options or Options())
