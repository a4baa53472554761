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

Each claim's re-checker, and the literal tests the differential claims
read, are in ``literal``, the definitional side.  The cached accessors
here, the literal builders there and the parse of a witness's key hold
one table.  ``_hold`` empties them all when given a table key other than
the one they hold; the evaluator ``_claim`` builds enters it, and so does
``recheck_result``.  So each object is built once per table, however
many instances or witnesses read it: C-2.6's premise once per U, and S^e
with E(S^e) once per e.

U-policy: claims parameterized by a subset U of E(S) iterate all
non-empty subsets when |E(S)| <= 4, otherwise the singletons plus E(S)
itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator

from . import congruences, core, relations, variants, orders
from .congruences import (
    CONGRUENCE_ORDER_BOUND, KIND_LEFT, KIND_RIGHT, KIND_TWO_SIDED, NotACongruence,
    are_isomorphic, congruence_kind, fundamental_among, quotient, sandwich_lambda,
    sandwich_rho, u_translate_hom,
)
from .core import FiniteSemigroup, OrderTooLarge, SemigroupError, idempotents
from .enumeration import ENUMERATION_CLASSES_CAP
from .literal import (
    _INCL_LINKS, _TILDES, _c13_lit, _idems_lit, _lit_congruences, _recheck_c11,
    _recheck_c12, _recheck_c13, _recheck_c14, _recheck_c21, _recheck_c22c, _recheck_c22q,
    _recheck_c23l, _recheck_c23r, _recheck_c24, _recheck_c25, _recheck_c26, _recheck_c31,
    _recheck_c32, _recheck_c34, _recheck_c35, _recheck_c40, _recheck_c41f, _recheck_c41r,
    _recheck_c42, _recheck_c43, _recheck_c44a, _recheck_c44b, _recheck_cfund, _recheck_cincl,
    _recheck_cnatpo, _recheck_noncong, _related_lit, _sandwich_lit, _separating_lit,
    _u_abundant_lit, _well_formed,
)
from .relations import Equivalence, NotIdempotentMember, bare_classes
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

_green = cache(relations.green)
_star = cache(relations.star)
_idem = cache(idempotents)
_natural = cache(orders.natural_leq)


@cache
def _abundant(s: FiniteSemigroup) -> bool:
    return relations.is_abundant(s, _star(s))


@cache
def _variant(s: FiniteSemigroup, a: int) -> FiniteSemigroup:
    return variants.variant(s, a)


@cache
def _congruences(s: FiniteSemigroup) -> tuple[Equivalence, ...]:
    return tuple(congruences.all_congruences(s))


@cache
def _tilde(s: FiniteSemigroup, u: frozenset):
    """(tilde(s, u), None), or (None, the member of u that tilde refuses)."""
    try:
        return relations.tilde(s, u), None
    except NotIdempotentMember as err:
        return None, err.element


@cache
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
        _hold(table)
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
    a, b, n = p.class_index, q.class_index, p.n
    if a == b:  # equal class indices, equal partitions
        return iter(())
    return (
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if (a[x] == a[y]) != (b[x] == b[y])
    )


def _star_sides(st: relations.StarBundle, table):
    """(side, starred relation, table its literal check reads) for R, L."""
    return (("R", st.r_star, table), ("L", st.l_star, tuple(zip(*table))))


def _law_violation(rel: orders.OrderRelation):
    """The first partial-order law rel breaks, with its elements, or None:
    reflexivity, then antisymmetry, then transitivity."""
    le, ids, r = rel.leq, rel.elements, range(len(rel.elements))
    return _first(itertools.chain(
        ({"law": "reflexivity", "x": ids[i]} for i in r if not le[i][i]),
        ({"law": "antisymmetry", "x": ids[i], "y": ids[j]}
         for i in r for j in r if i != j and le[i][j] and le[j][i]),
        ({"law": "transitivity", "x": ids[i], "y": ids[j], "z": ids[k]}
         for i in r for j in r if le[i][j] for k in r if le[j][k] and not le[i][k]),
    ))


@cache
def _isomorphism(a, b):
    """The map are_isomorphic(a, b) returns when it is a bijective
    homomorphism a -> b, else None."""
    f, r, ta, tb = are_isomorphic(a, b), range(a.order), a.table, b.table
    ok = (f is not None and a.order == b.order and sorted(f) == list(r)
          and all(f[ta[x][y]] == tb[f[x]][f[y]] for x in r for y in r))
    return f if ok else None


def _iso_witness(a, b, name_a, name_b):
    """Both tables, under the given names, unless _isomorphism finds one."""
    if _isomorphism(a, b) is None:
        return {name_a: inline_table(a), name_b: inline_table(b)}
    return None


# ---------------------------------------------------------------------------
# C-1.1  regular semigroups are abundant (classical and starred classes
#        all meet E(S))


def _check_c11(s, opts):
    if not core.is_regular(s):
        return _NA
    g, st = _green(s), _star(s)
    rels = ((g.l, "L"), (g.r, "R"), (st.l_star, "L*"), (st.r_star, "R*"))
    return _first(bare_classes(rels, _idem(s)))


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


# C-1.3  a R* e (e idempotent) iff ea = a and xa = ya implies xe = ye;
#        dually for L*


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


# C-INCL  L refines L* refines L~ (dually for R); all three coincide on
#         regular semigroups when U = E(S)


def _check_cincl(s, opts, U):
    td, bad = _tilde(s, frozenset(U))
    if td is None:
        return {"part": "refused", "element": bad}
    g, st = _green(s), _star(s)
    rels = {"L": g.l, "L*": st.l_star, "L~": td.l_tilde,
            "R": g.r, "R*": st.r_star, "R~": td.r_tilde}
    links = [(m, k, rels[m], rels[k]) for m, k in _INCL_LINKS]
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


# C-1.4  on an abundant semigroup the tilde relations at U = E(S)
#        collapse to the starred ones, and S is weakly E(S)-abundant


def _check_c14(s, opts):
    if not _abundant(s):
        return _NA
    es = _idem(s)
    td, bad = _tilde(s, es)
    if td is None:
        return {"part": "refused", "element": bad}
    st = _star(s)
    pairs = ((st.l_star, td.l_tilde, "L*=L~"), (st.r_star, td.r_tilde, "R*=R~"))
    bare = _unabundant(s, es, opts)  # at U = E(S) both U-policies look for E(S)
    return _first(itertools.chain(
        ({"part": name, "x": x, "y": y}
         for p, q, name in pairs
         for x, y in _diff_pairs(p, q)),
        [{"part": "weakly-abundant", **bare}] if bare else [],
    ))


# C-NONCONG  is L~ a right congruence (R~ a left congruence)?  Observed:
#            expected to fail on some instances.


def _per_u_relation(s):
    return [{"U": list(us), "relation": r} for us in u_subsets(s) for r in _TILDES]


def _check_noncong(s, opts, U, relation):
    td, _ = _tilde(s, frozenset(U))
    if td is None:  # C-INCL reports a refused U
        return _NA
    rel = td.l_tilde if relation == "L~" else td.r_tilde
    # L~ is tested on right translates x.z, R~ on left translates z.x;
    # rows[x][z] is the class of that translate
    t = s.table if relation == "L~" else zip(*s.table)
    ci, r = rel.class_index, range(s.order)
    rows = [[ci[v] for v in row] for row in t]
    return _first(
        {"x": x, "y": y, "z": next(z for z in r if rows[x][z] != rows[y][z])}
        for block in rel.classes
        for i, x in enumerate(block)
        for y in block[i + 1:]
        if rows[x] != rows[y]
    )


# C-2.1  the sandwich operation x * y = x a y is associative


def _check_c21(s, opts, a):
    vt = _variant(s, a).table
    return _first(
        {"x": x, "y": y, "z": z}
        for x, y, z in itertools.product(range(s.order), repeat=3)
        if vt[vt[x][y]][z] != vt[x][vt[y][z]]
    )


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


# C-2.4  variants of an abundant monoid at invertible sandwich elements
#        are abundant


def _check_c24(s, opts, a):
    if not (s.identity is not None and _abundant(s) and core.is_invertible(s, a)):
        return _NA
    v = _variant(s, a)
    vst = _star(v)
    rels = ((vst.l_star, "L*"), (vst.r_star, "R*"))
    return _first(bare_classes(rels, _idem(v)))


# C-2.5  an idempotent sandwich element is idempotent in its own variant


def _check_c25(s, opts, e):
    eee = _variant(s, e).table[e][e]
    return None if eee == e else {"e_star_e": eee}


# C-2.6  weak abundance passed to idempotent variants, under two readings
#        of the inherited idempotent set.  Observed.


def _per_u_idempotent(s):
    return [{"U": list(us), "e": e} for us in u_subsets(s) for e in us]


@cache
def _unabundant(v, us: frozenset, opts):
    """The first L~/R~ class of v at U = us without a target idempotent (None
    when v is weakly U-abundant), or _NA when tilde refuses a member of us."""
    td, _ = _tilde(v, us)
    if td is None:
        return _NA
    target = us if opts.strict_u else _idem(v)
    rels = ((td.l_tilde, "L~"), (td.r_tilde, "R~"))
    return _first(bare_classes(rels, target))


def _check_c26(s, opts, U, e, reading):
    v = _variant(s, e)
    # the premises: S weakly U-abundant, and e idempotent in S^e (C-2.5's)
    if _unabundant(s, frozenset(U), opts) is not None or v.table[e][e] != e:
        return _NA
    uprime = sorted(set(U) & _idem(v)) if reading == "inter" else [e]
    w = _unabundant(v, frozenset(uprime), opts)
    return w if w is None or w is _NA else {"Uprime": uprime, **w}


# C-3.1  the congruence lattice: join-closure of principal congruences
#        equals the brute-force partition filter, and every quotient is
#        well defined


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


# C-3.4  S^u / lambda^u is isomorphic to uS


@cache
def _quotient(v, p):
    """(v / p, None), or (None, its congruence kind) when quotient refuses p."""
    try:
        return quotient(v, p), None
    except NotACongruence as err:
        return None, err.kind


@cache
def _translation(s, u):
    """(uS, x -> ux): C-3.4 reads uS and C-FHT both."""
    return u_translate_hom(s, u)


def _check_c34(s, opts, u):
    q, kind = _quotient(_variant(s, u), sandwich_lambda(s, u))
    if q is None:
        return {"part": "lambda-not-congruence", "kind": kind}
    return _iso_witness(q, _translation(s, u)[0], "quotient", "image")


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


# C-FHT  first isomorphism theorem for the u-translation homomorphism:
#        domain / kernel is isomorphic to the image


def _check_cfht(s, opts, u):
    image, f = _translation(s, u)
    v, it, r = _variant(s, u), image.table, range(s.order)
    vt = v.table
    broken = _first(
        {"part": "hom", "x": x, "y": y}
        for x in r
        for y in r
        if f[vt[x][y]] != it[f[x]][f[y]]
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


# C-4.0  the natural order restricted to idempotents is the usual
#        idempotent order ef = fe = e


def _check_c40(s, opts):
    leq, usual = _natural(s).leq, orders.idempotent_order(s)
    ids = usual.elements
    return _first(
        {"e": e, "f": f, "natural": leq[e][f], "usual": not leq[e][f]}
        for e, row in zip(ids, usual.leq)
        for f, holds in zip(ids, row)
        if leq[e][f] != holds
    )


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


def _check_c41r(s, opts, e):
    t = s.table
    vt = _variant(s, e).table
    return _first(
        {"f": f, "ff": t[f][f], "fe": t[f][e], "ef": t[e][f]}
        for f in range(s.order)
        if vt[f][f] == f
        and not (t[f][f] == f and t[f][e] == f and t[e][f] == f)
    )


# C-4.2  <=_e is a partial order on E(S^e)


def _check_c42(s, opts, e):
    return _law_violation(orders.idempotent_order(_variant(s, e)))


# C-4.3  a <=_e b in the variant implies a <= b in the base


def _check_c43(s, opts, e):
    leq, vleq, r = _natural(s).leq, _natural(_variant(s, e)).leq, range(s.order)
    return _first(
        {"a": a, "b": b}
        for a in r
        for b in r
        if vleq[a][b] and not leq[a][b]
    )


# C-4.4  below an idempotent of the variant everything is idempotent
#        there (a); below a regular element everything is regular (b)


def _check_c44a(s, opts, e):
    vt, leq, r = _variant(s, e).table, _natural(_variant(s, e)).leq, range(s.order)
    return _first(
        {"a": a, "f": f}
        for f in r
        if vt[f][f] == f
        for a in r
        if leq[a][f] and vt[a][a] != a
    )


def _check_c44b(s, opts, e):
    v, leq, r = _variant(s, e), _natural(_variant(s, e)).leq, range(s.order)
    regular = [core.is_regular_element(v, x) for x in r]
    return _first(
        {"a": a, "b": b}
        for a in r
        for b in r
        if leq[a][b] and regular[b] and not regular[a]
    )


# C-NAT-PO  is the natural order actually a partial order?  Measured.


def _check_cnatpo(s, opts):
    return _law_violation(_natural(s))


# ---------------------------------------------------------------------------
# the caches' scope: one table


@cache
def _witness_table(key: str) -> FiniteSemigroup:
    """The table of a witness's key, parsed once per run of equal keys.  A key
    of an order check never writes raises OrderTooLarge before its cubic parse."""
    order = key.partition(";")[0].lstrip("0")
    cap = str(ENUMERATION_CLASSES_CAP)
    # compared as numerals, length first: int() refuses more than 4,300 digits
    if order.isascii() and order.isdigit() and (len(order), order) > (len(cap), cap):
        raise OrderTooLarge(order, ENUMERATION_CLASSES_CAP)
    return parse_inline(key)


#: the cached accessors above and literal's cached builders, taken at import:
#: perfbench rebinds some of the names to tracing wrappers that have no
#: cache_clear
_CACHES = (
    _green, _star, _idem, _natural, _abundant, _variant, _congruences, _tilde,
    _psets, _isomorphism, _unabundant, _lit_congruences, _quotient, _translation,
    _related_lit, _u_abundant_lit, _sandwich_lit, _witness_table,
)
#: [the key of the table whose derived objects _CACHES hold], a list so that
#: no name of the module is rebound during a run
_held: list = [None]


def _hold(key: str) -> None:
    """Empty _CACHES unless they hold the derived objects of the table key."""
    if key != _held[0]:
        for c in _CACHES:
            c.cache_clear()
        _held[0] = key


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


#: the options of a recheck that is given none
_DEFAULT_OPTIONS = Options()


def recheck_result(result: ClaimResult, options: Options | None = None) -> bool:
    """Reproduce a FAILS result from its serialized table, params, and
    witness alone.  True means the failure is confirmed; a record that
    literal._FIELDS refuses, lacks a field its re-checker reads, holds a
    params or witness field it does not read or names a relation its
    claim never writes never is.  A key of too large an order raises
    OrderTooLarge (see _witness_table)."""
    claim = REGISTRY.get(result.claim_id)
    if claim is None:
        raise UnknownClaim(result.claim_id)
    if result.status != STATUS_FAILS or result.witness is None:
        return False
    _hold(result.table)
    s = _witness_table(result.table)
    params, witness = dict(result.params), dict(result.witness)  # the re-checker pops both
    try:
        return (_well_formed(s.table, params, witness)
                and claim.recheck(s, params, witness, options or _DEFAULT_OPTIONS)
                and not params and not witness)
    except KeyError:  # a field the re-checker reads, or a name it looks up, is missing
        return False
