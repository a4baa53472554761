"""The definitional side: the witness re-checkers and the literal tests
they build.

``claims.recheck_result`` reproduces a FAILS result from its serialized
table, params and witness alone.  A record with a field ``_FIELDS`` does
not list, or a value not of its field's kind, is refused before its
re-checker runs, and one with a params or witness field its re-checker
does not read after it: the re-checker pops each field it reads from
copies of both, which must end empty.  ``_well_formed`` checks the fields
in one pass, testing the common kinds (an id, a flag, a name, a list of
idempotents) in its loop; a name field admits only the names the
evaluators write, a table field only a key as reports spell it.  The
re-checker checks the names, flags, congruence kinds and table keys a
claim writes, numbering classes by least member as production does
(``_classes_lit``).
Re-checkers are definitional: they scan raw tables instead of calling
production code, except where the claim is about that code (C-1.2
``star``, C-3.1 ``all_congruences`` and ``quotient``, C-FUND
``is_fundamental``), and this module imports nothing else of semivar.
Literal helpers build tests, each deriving S^1 once:
``_related_lit(table, name, us)`` returns ``related(x, y)`` for L, R, L*,
R*, L~ or R~, ``_natural_leq_lit(table)`` returns ``leq(a, b)``.  A
left-hand relation (L, L*, L~, P2), or compatibility with left
translations, is the right-hand one on the transposed table, the table
of the dual semigroup.
"""

from __future__ import annotations

import itertools
from functools import cache

from .congruences import CONGRUENCE_ORDER_BOUND, all_congruences, is_fundamental, quotient
from .core import OrderTooLarge
from .relations import Equivalence, star

#: the relations of weak U-abundance: the only names C-1.4's
#: weakly-abundant part, C-NONCONG and C-2.6 write
_TILDES = ("L~", "R~")
#: the sides a witness names
_SIDES = ("L", "R")
#: the relations C-2.4 writes, and with L and R those C-1.1 writes
_STARS = ("L*", "R*")
#: the inclusions C-INCL checks, as (finer, coarser) relation names
_INCL_LINKS = (("L", "L*"), ("L*", "L~"), ("R", "R*"), ("R*", "R~"))


# ---------------------------------------------------------------------------
# literal helpers: raw tables, with the definitions spelled out


def _dual(table):
    """The table of the dual semigroup: x.y read as y.x."""
    return tuple(zip(*table))


def _side(table, name):
    """The table on which the right-hand helpers decide relation name:
    the table itself for R, R*, R~, and its dual for L, L*, L~."""
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


@cache
def _related_lit(table, name, us=()):
    """The test related(x, y) of L, R, L*, R* or L~, R~ relative to the
    tuple us."""
    t, kind = _side(table, name), name[1:]
    if kind == "":  # equal principal right ideals xS^1 = yS^1
        ideals = [frozenset(row) | {x} for x, row in enumerate(t)]
        return lambda x, y: ideals[x] == ideals[y]
    if kind == "*":  # xa = ya <=> xb = yb for all x, y in S^1
        t1, n1 = _s1_table(t)
        r = range(n1)
        return lambda a, b: all(
            (t1[x][a] == t1[y][a]) == (t1[x][b] == t1[y][b]) for x in r for y in r)
    fixed = _fixed_lit(t, us)  # ~: ex = x <=> ey = y for every e in us
    return lambda x, y: fixed[x] == fixed[y]


def _fixed_lit(t, us):
    """For each x, the vector (ex = x for e in us) on the side table t: x
    R~ y relative to us when their vectors are equal (L~ on the dual)."""
    return [tuple([t[e][x] == x for e in us]) for x in range(len(t))]


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


def _abundant_lit(table):
    """True when every L*- and every R*-class meets E(S)."""
    es = _idems_lit(table)
    return not any(_bare_class_lit(table, name, a, es)
                   for name in _STARS for a in range(len(table)))


def _sandwich_table(table, a):
    """The table of S^a: x * y = (xa)y, so row x is row xa of S."""
    return tuple(table[table[x][a]] for x in range(len(table)))


def _natural_leq_lit(table):
    """The test leq(a, b): a = xb = by with xa = a for some x, y in S^1."""
    t1, n1 = _s1_table(table)
    r = range(n1)
    return lambda a, b: (any(t1[x][b] == a and t1[x][a] == a for x in r)
                         and any(t1[b][y] == a for y in r))


def _law_broken_lit(leq, x, w):
    """True when leq breaks the witness's partial-order law at x and its elements."""
    law = w.pop("law")
    if law == "reflexivity":
        return not leq(x, x)
    y = w.pop("y")
    if law == "antisymmetry":
        return x != y and leq(x, y) and leq(y, x)
    z = w.pop("z")
    return law == "transitivity" and leq(x, y) and leq(y, z) and not leq(x, z)


def _compatible_lit(table, ci):
    """True when related x, y give related xz, yz for every z: the class
    index ci is right compatible on table (left compatible on its dual)."""
    r = range(len(table))
    return all(ci[table[x][z]] == ci[table[y][z]]
               for x in r for y in r if ci[x] == ci[y] for z in r)


def _is_congruence_lit(table, ci):
    return _compatible_lit(table, ci) and _compatible_lit(_dual(table), ci)


def _kind_lit(table, ci):
    """The compatibility of ci with translations, as congruence_kind names it."""
    left, right = _compatible_lit(_dual(table), ci), _compatible_lit(table, ci)
    return "two_sided" if left and right else "left" if left else "right" if right else "none"


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


def _classes_lit(keys):
    """The class index of the partition by equal keys, numbered by least member."""
    number: dict = {}
    return [number.setdefault(k, len(number)) for k in keys]


def _lambda_quotient_lit(table, u):
    """Table of S^u / lambda^u built from scratch: classes by least member."""
    ci = _classes_lit(table[u])
    reps = [ci.index(c) for c in range(max(ci) + 1)]
    # product in the variant: a * b = a u b
    return tuple(tuple(ci[table[table[a][u]][b]] for b in reps) for a in reps)


def _usub_table_lit(table, u):
    """Table of uS with elements re-indexed by ascending original id."""
    members = sorted(set(table[u]))
    pos = {v: i for i, v in enumerate(members)}
    return tuple(tuple(pos[table[a][b]] for b in members) for a in members)


def _key_lit(table):
    """The table's key as reports write it: the order and the rows, ';'-joined."""
    return ";".join([str(len(table)), *(" ".join(map(str, row)) for row in table)])


def _c13_lit(table):
    """The test rhs(a, e): ea = a, and xa = ya implies xe = ye over S^1."""
    t1, n1 = _s1_table(table)
    r = range(n1)
    return lambda a, e: table[e][a] == a and all(
        t1[x][a] != t1[y][a] or t1[x][e] == t1[y][e] for x in r for y in r)


@cache
def _u_abundant_lit(s, us, strict):
    """True when S is weakly U-abundant at U = us: every L~- and R~-class,
    the elements with one vector of fixed points, holds a member of us
    (strict) or of E(S)."""
    target = us if strict else _idems_lit(s.table)
    return all({*fixed} <= {fixed[b] for b in target}
               for fixed in (_fixed_lit(_side(s.table, name), us) for name in _TILDES))


@cache
def _sandwich_lit(s, e):
    """(table, idempotents) of the variant S^e."""
    vt = _sandwich_table(s.table, e)
    return vt, frozenset(_idems_lit(vt))


def _partitions_lit(n):
    """All partitions of 0..n-1 as canonical class-index tuples, in
    lexicographic order: each element joins a class before it or the next."""
    codes = [()]
    for _ in range(n):
        codes = [c + (k,) for c in codes for k in range(max(c, default=-1) + 2)]
    return codes


def _canonical_lit(ci, t):
    """True when ci lists a class number per element of table t, each new
    one the count of those before it: a class index numbered by first use."""
    return (type(ci) is list and len(ci) == len(t) and all(type(c) is int for c in ci)
            and _classes_lit(ci) == ci)


@cache
def _lit_congruences(s) -> tuple[tuple[int, ...], ...]:
    """The partitions passing the literal congruence test, in
    _partitions_lit order: the brute-force side of C-3.1 and C-FUND.
    Refuses carriers above CONGRUENCE_ORDER_BOUND, as all_congruences
    does: there are Bell(n) partitions."""
    if s.order > CONGRUENCE_ORDER_BOUND:
        raise OrderTooLarge(s.order, CONGRUENCE_ORDER_BOUND)
    partitions = _partitions_lit(s.order)
    return tuple(ci for ci in partitions if _is_congruence_lit(s.table, ci))


# ---------------------------------------------------------------------------
# the witness fields: what recheck_result lets through to a re-checker


def _id(v, t):
    """An element id: an int in 0..len(t)-1.  A negative id would index a
    row from its end, True would pass for id 1 and 0.0 compare equal to 0."""
    return type(v) is int and 0 <= v < len(t)


def _idempotents(v, t):
    """A non-empty list of idempotents of table t, strictly ascending."""
    return (type(v) is list and v != [] and all(_id(x, t) and t[x][x] == x for x in v)
            and v == sorted(set(v)))


def _flag(v, t):
    return type(v) is bool


class _OneOf(frozenset):
    """The test of a name field: a str among the names the evaluators write."""

    def __call__(self, v, t):
        return type(v) is str and v in self


def _key(v, t):
    """A str spelled as a report writes a table key: the order n, then n
    rows of n ids, each without a leading zero, ';'-joined."""
    if type(v) is not str:
        return False
    order, *rows = v.split(";")
    n = len(rows)
    ids = {str(x) for x in range(n)}
    return n > 0 and order == str(n) and all(
        len(row := line.split(" ")) == n and ids.issuperset(row) for line in rows)


#: each field name an evaluator or an instance domain writes, with the
#: test its value passes on the table t: one kind per name
_FIELDS = {
    **dict.fromkeys(("a", "b", "u", "f", "x", "y", "z", "at", "element",
                     "e_star_e", "f_star_f", "ff", "fe", "ef"), _id),
    "e": lambda v, t: _id(v, t) and t[v][v] == v,
    **dict.fromkeys(("U", "Uprime"), _idempotents),
    **dict.fromkeys(("bundle", "literal", "star", "characterization", "adjoined", "plain",
                     "in_join", "in_rl", "in_lr", "variant_related", "base_related",
                     "in_variant_cap_p", "in_base", "natural", "usual", "production",
                     "bruteforce"), _flag),
    "relation": _OneOf((*_SIDES, *_STARS, *_TILDES, "lambda", "rho")),
    "part": _OneOf(("refused", "weakly-abundant", "L*=L~", "R*=R~", "lattice", "welldef",
                    "lambda-not-congruence", "hom",
                    *(f"{m}<={k}" for m, k in _INCL_LINKS),
                    *(f"eq:{m}={k}" for m, k in _INCL_LINKS))),
    "kind": _OneOf(("none", "left", "right", "two_sided")),
    "law": _OneOf(("reflexivity", "antisymmetry", "transitivity")),
    "side": _OneOf(_SIDES),
    "requirement": _OneOf(("left", "right")),
    **dict.fromkeys(("quotient", "image", "quotient_a", "quotient_b"), _key),
    "partition": _canonical_lit,
    "witness_partition": lambda v, t: v is None or _canonical_lit(v, t),
    **dict.fromkeys(("only_production", "only_bruteforce"),
                    lambda v, t: type(v) is list and all(_canonical_lit(c, t) for c in v)),
}


def _well_formed(t, *dicts: dict) -> bool:
    """True when each field of the params or witness dicts is in _FIELDS
    and its value passes the field's test on the table t.  One pass over
    the fields: an id, a list of idempotents, a name or a flag is tested
    here as its _FIELDS test tests it, any other field by that test."""
    n = len(t)
    for fields in dicts:
        for name, v in fields.items():
            try:
                test = _FIELDS[name]
            except KeyError:  # a field no evaluator writes
                return False
            if test is _id:
                if type(v) is not int or not 0 <= v < n:
                    return False
            elif test is _idempotents:
                if type(v) is not list or not v:
                    return False
                last = -1
                for x in v:  # strictly ascending ids of idempotents
                    if type(x) is not int or not last < x < n or t[x][x] != x:
                        return False
                    last = x
            elif type(test) is _OneOf:
                if type(v) is not str or v not in test:
                    return False
            elif test is _flag:
                if type(v) is not bool:
                    return False
            elif not test(v, t):
                return False
    return True


# ---------------------------------------------------------------------------
# the re-checkers, in registry order: each takes (s, params, w, opts) of a
# well-formed record, pops each field it reads from params and w, copies, and
# confirms its failure on the raw table


def _recheck_c11(s, params, w, opts):
    t, name = s.table, w.pop("relation")
    return (name in _SIDES + _STARS and _all_regular_lit(t)
            and _bare_class_lit(t, name, w.pop("element"), _idems_lit(t)))


def _recheck_c12(s, params, w, opts):
    st, side = star(s), w.pop("side")
    rel = st.r_star if side == "R" else st.l_star
    related = _related_lit(s.table, side + "*")
    a, b = w.pop("a"), w.pop("b")
    return w.pop("bundle") == rel.same(a, b) != related(a, b) == w.pop("literal")


def _recheck_c13(s, params, w, opts):
    t = _side(s.table, w.pop("side"))
    related, rhs = _related_lit(t, "R*"), _c13_lit(t)
    a, e = w.pop("a"), w.pop("e")
    return w.pop("star") == related(a, e) != rhs(a, e) == w.pop("characterization")


def _recheck_cincl(s, params, w, opts):
    t, us = s.table, tuple(params.pop("U"))
    part = w.pop("part")
    if part == "refused":  # tilde refused an idempotent in U
        return w.pop("element") in us
    eq = part.startswith("eq:")
    names = tuple(part.removeprefix("eq:").split("=" if eq else "<="))
    if names not in _INCL_LINKS:
        return False
    first, second = (_related_lit(t, name, us) for name in names)
    x, y = w.pop("x"), w.pop("y")
    a, b = first(x, y), second(x, y)
    if eq:
        return _all_regular_lit(t) and set(us) == set(_idems_lit(t)) and a != b
    return a and not b


def _recheck_c14(s, params, w, opts):
    t = s.table
    if not _abundant_lit(t):
        return False
    us = tuple(_idems_lit(t))
    part = w.pop("part")
    if part == "refused":  # tilde refused an idempotent
        return w.pop("element") in us
    if part == "weakly-abundant":
        name = w.pop("relation")
        return name in _TILDES and _bare_class_lit(t, name, w.pop("element"), set(us), us)
    if part not in ("L*=L~", "R*=R~"):
        return False
    first, second = (_related_lit(t, name, us) for name in part.split("="))
    x, y = w.pop("x"), w.pop("y")
    return first(x, y) != second(x, y)


def _recheck_noncong(s, params, w, opts):
    t, name, us = s.table, params.pop("relation"), tuple(params.pop("U"))
    if name not in _TILDES:
        return False
    x, y, z = w.pop("x"), w.pop("y"), w.pop("z")
    m = t if name == "L~" else _dual(t)
    related = _related_lit(t, name, us)
    return related(x, y) and not related(m[x][z], m[y][z])


def _recheck_c21(s, params, w, opts):
    vt = _sandwich_table(s.table, params.pop("a"))
    x, y, z = w.pop("x"), w.pop("y"), w.pop("z")
    return vt[vt[x][y]][z] != vt[x][vt[y][z]]


def _recheck_c22q(s, params, w, opts):
    vt = _side(_sandwich_table(s.table, params.pop("a")), w.pop("side"))
    related = _related_lit(vt, "R*")
    x, y = w.pop("x"), w.pop("y")
    r = range(len(vt))
    plain = all((vt[u][x] == vt[v][x]) == (vt[u][y] == vt[v][y]) for u in r for v in r)
    return w.pop("adjoined") == related(x, y) != plain == w.pop("plain")


def _recheck_c22c(s, params, w, opts):
    vt = _sandwich_table(s.table, params.pop("a"))
    l_star, r_star, r = _related_lit(vt, "L*"), _related_lit(vt, "R*"), range(len(vt))
    x, y = w.pop("x"), w.pop("y")
    in_rl = any(r_star(x, c) and l_star(c, y) for c in r)
    in_lr = any(l_star(x, c) and r_star(c, y) for c in r)
    # D* = the join: everything reachable from x by L*- or R*-steps
    reach = {x}
    while step := {b for b in set(r) - reach if any(l_star(b, c) or r_star(b, c) for c in reach)}:
        reach |= step
    found = (y in reach, in_rl, in_lr)
    return found == (w.pop("in_join"), w.pop("in_rl"), w.pop("in_lr")) and len(set(found)) > 1


def _recheck_c23r(s, params, w, opts):
    a, t = params.pop("a"), _side(s.table, w.pop("side"))
    base, variant = _related_lit(t, "R*"), _related_lit(_sandwich_table(t, a), "R*")
    x, y = w.pop("x"), w.pop("y")
    # x is in P1 when ax R* x
    return (base(t[a][x], x) and base(t[a][y], y)
            and w.pop("variant_related") == variant(x, y) != base(x, y) == w.pop("base_related"))


def _recheck_c23l(s, params, w, opts):
    a, t = params.pop("a"), _side(s.table, w.pop("side"))
    base, variant = _related_lit(t, "R*"), _related_lit(_sandwich_table(t, a), "R*")
    x, y = w.pop("x"), w.pop("y")
    in_cap = variant(x, y) and base(t[a][y], y)  # y in x's variant class and in P1
    return w.pop("in_variant_cap_p") == in_cap != base(x, y) == w.pop("in_base")


def _recheck_c24(s, params, w, opts):
    t, n, a = s.table, s.order, params.pop("a")
    e, name = _identity_lit(t), w.pop("relation")
    if (e is None or not _abundant_lit(t) or name not in _STARS
            or not any(t[a][b] == e == t[b][a] for b in range(n))):
        return False
    vt = _sandwich_table(t, a)
    return _bare_class_lit(vt, name, w.pop("element"), _idems_lit(vt))


def _recheck_c25(s, params, w, opts):
    t, e = s.table, params.pop("e")
    eee = t[t[e][e]][e]
    return eee != e and w.pop("e_star_e") == eee


def _recheck_c26(s, params, w, opts, reading):
    us, e = tuple(params.pop("U")), params.pop("e")
    if e not in us or not _u_abundant_lit(s, us, opts.strict_u):
        return False
    vt, ves = _sandwich_lit(s, e)
    uprime = tuple(sorted(ves.intersection(us))) if reading == "inter" else (e,)
    name = w.pop("relation")
    if tuple(w.pop("Uprime")) != uprime or name not in _TILDES:
        return False
    target = set(uprime) if opts.strict_u else ves
    return _bare_class_lit(vt, name, w.pop("element"), target, uprime)


def _recheck_c31(s, params, w, opts):
    t, n, part = s.table, s.order, w.pop("part")
    if part == "lattice":  # each partition listed is made and no congruence, or the reverse
        made = {p.class_index for p in all_congruences(s)}
        sides = {True: w.pop("only_production"), False: w.pop("only_bruteforce")}
        return any(sides.values()) and all(
            (tuple(ci) in made) == produced != _is_congruence_lit(t, ci)
            for produced, listed in sides.items() for ci in listed)
    ci = w.pop("partition")
    if part == "refused":  # quotient refused what is literally no congruence
        return w.pop("kind") == _kind_lit(t, ci) != "two_sided"
    if part != "welldef" or not _is_congruence_lit(t, ci):
        return False
    q = quotient(s, Equivalence.from_keys(n, ci))
    x, y = w.pop("x"), w.pop("y")
    return q.table[ci[x]][ci[y]] != ci[t[x][y]]


def _recheck_c32(s, params, w, opts):
    """lambda^u (ux = uy) or rho^u (xu = yu) on S^u lacks the requirement's compatibility."""
    t, u = s.table, params.pop("u")
    keys = {"lambda": t[u], "rho": [row[u] for row in t]}  # another name: KeyError, refused
    kind = _kind_lit(_sandwich_table(t, u), _classes_lit(keys[w.pop("relation")]))
    return w.pop("kind") == kind not in (w.pop("requirement"), "two_sided")


def _lambda_refused_lit(t, u, w):
    """C-3.4's part lambda-not-congruence: lambda^u is no congruence on S^u, of w's kind."""
    return w.pop("kind") == _kind_lit(_sandwich_table(t, u), _classes_lit(t[u])) != "two_sided"


def _recheck_c34(s, params, w, opts):
    t, u, part = s.table, params.pop("u"), w.pop("part", None)
    if part == "hom":  # C-FHT: u(x.u.y) = (ux)(uy) in any semigroup
        x, y = w.pop("x"), w.pop("y")
        return t[u][t[t[x][u]][y]] != t[t[u][x]][t[u][y]]
    if part == "lambda-not-congruence":
        return _lambda_refused_lit(t, u, w)
    if part is not None:  # only a record without part is a quotient witness
        return False
    q, image = _lambda_quotient_lit(t, u), _usub_table_lit(t, u)
    return ((w.pop("quotient"), w.pop("image")) == (_key_lit(q), _key_lit(image))
            and not _iso_exists_lit(q, image))


def _recheck_c35(s, params, w, opts):
    t, related = s.table, _related_lit(s.table, "L")
    a, b = params.pop("a"), params.pop("b")
    if not related(a, b):
        return False
    part = w.pop("part", None)
    if part == "lambda-not-congruence":  # as C-3.4 confirms it, at a or b
        return (at := w.pop("at")) in (a, b) and _lambda_refused_lit(t, at, w)
    if part is not None:
        return False
    qa, qb = _lambda_quotient_lit(t, a), _lambda_quotient_lit(t, b)
    return ((w.pop("quotient_a"), w.pop("quotient_b")) == (_key_lit(qa), _key_lit(qb))
            and not _iso_exists_lit(qa, qb))


def _recheck_cfund(s, params, w, opts):
    production = is_fundamental(s)  # raises OrderTooLarge above the bound
    ci = w.pop("witness_partition")
    # production calls S fundamental exactly when brute force names a partition
    named = ci is not None
    if not (production is named is w.pop("production") and w.pop("bruteforce") is not named):
        return False
    # the first literal congruence separating idempotents, as C-FUND names it
    es = _idems_lit(s.table)
    return ci == next((list(p) for p in _lit_congruences(s) if _separating_lit(p, es)), None)


def _recheck_c40(s, params, w, opts):
    t, leq = s.table, _natural_leq_lit(s.table)
    e, f = w.pop("e"), w.pop("f")
    usual = t[e][f] == e and t[f][e] == e
    return t[f][f] == f and w.pop("natural") == leq(e, f) != usual == w.pop("usual")


def _recheck_c41f(s, params, w, opts):
    t, e, f = s.table, params.pop("e"), w.pop("f")
    fef = t[t[f][e]][f]
    return (t[f][f] == f and t[f][e] == f and t[e][f] == f
            and fef != f and w.pop("f_star_f") == fef)


def _recheck_c41r(s, params, w, opts):
    t, e, f = s.table, params.pop("e"), w.pop("f")
    if (w.pop("ff"), w.pop("fe"), w.pop("ef")) != (t[f][f], t[f][e], t[e][f]):
        return False
    in_variant = t[t[f][e]][f] == f
    below = t[f][f] == f and t[f][e] == f and t[e][f] == f
    return in_variant and not below


def _recheck_c42(s, params, w, opts):
    vt = _sandwich_table(s.table, params.pop("e"))

    def leq(a, b):
        return vt[a][a] == a and vt[b][b] == b and vt[a][b] == a and vt[b][a] == a

    x = w.pop("x")
    return vt[x][x] == x and _law_broken_lit(leq, x, w)


def _recheck_c43(s, params, w, opts):
    leq, vleq = _natural_leq_lit(s.table), _natural_leq_lit(_sandwich_table(s.table, params.pop("e")))
    a, b = w.pop("a"), w.pop("b")
    return vleq(a, b) and not leq(a, b)


def _recheck_c44a(s, params, w, opts):
    vt = _sandwich_table(s.table, params.pop("e"))
    leq = _natural_leq_lit(vt)
    a, f = w.pop("a"), w.pop("f")
    return vt[f][f] == f and leq(a, f) and vt[a][a] != a


def _recheck_c44b(s, params, w, opts):
    vt = _sandwich_table(s.table, params.pop("e"))
    leq = _natural_leq_lit(vt)
    a, b = w.pop("a"), w.pop("b")
    return leq(a, b) and _regular_lit(vt, b) and not _regular_lit(vt, a)


def _recheck_cnatpo(s, params, w, opts):
    return _law_broken_lit(_natural_leq_lit(s.table), w.pop("x"), w)
