"""The claim registry: evaluation, witnesses, and independent re-checking."""

import ast
import builtins
import dataclasses
import inspect
import itertools
import re
import sys
import textwrap
import time

import pytest

from semivar import (
    FiniteSemigroup, NotAssociative, OrderTooLarge, build_semigroup, claims, cli,
    congruences, orders, relations, variants,
)
from semivar.claims import (
    HARD_CLAIM_IDS,
    KIND_HARD,
    KIND_OBSERVED,
    REGISTRY,
    Options,
    UnknownClaim,
    evaluate_claim,
    recheck_result,
)
from semivar.relations import Equivalence
from semivar.report import (
    STATUS_FAILS, STATUS_HOLDS, STATUS_NOT_APPLICABLE, ClaimResult, Report,
)
from semivar.sgt import inline_table, parse_inline

from .conftest import full_corpus


EXPECTED_IDS = {
    "C-1.1", "C-1.2", "C-1.3", "C-1.4", "C-INCL", "C-NONCONG",
    "C-2.1", "C-2.2-quantifier", "C-2.2-composition",
    "C-2.3-restricted", "C-2.3-literal", "C-2.4", "C-2.5",
    "C-2.6-inter", "C-2.6-sandwich",
    "C-3.1", "C-3.2", "C-3.4", "C-3.5", "C-FHT", "C-FUND",
    "C-4.0", "C-4.1-forward", "C-4.1-reverse", "C-4.2", "C-4.3",
    "C-4.4a", "C-4.4b", "C-NAT-PO",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_IDS
    assert all(c.kind in (KIND_HARD, KIND_OBSERVED) for c in REGISTRY.values())
    assert "C-2.3-restricted" in HARD_CLAIM_IDS
    assert "C-4.1-reverse" not in HARD_CLAIM_IDS
    assert len(HARD_CLAIM_IDS) == 20
    assert len(REGISTRY) == 29
    observed = {cid for cid, c in REGISTRY.items() if c.kind == KIND_OBSERVED}
    assert set(SMALLEST_COUNTEREXAMPLES) == observed


def test_unknown_claim(z2):
    with pytest.raises(UnknownClaim):
        evaluate_claim("C-9.9", z2)


def test_params_filter(z2):
    everything = evaluate_claim("C-2.1", z2)
    assert len(everything) == 2
    only_one = evaluate_claim("C-2.1", z2, params={"a": 1})
    assert len(only_one) == 1
    assert only_one[0].params == {"a": 1}


def test_left_zero_reverse_counterexample(left_zero):
    # E(S^0) contains 1 even though 1 is not below 0: the classic order-2
    # counterexample to the reverse inclusion
    results = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})
    assert len(results) == 1
    r = results[0]
    assert r.status == STATUS_FAILS
    assert r.witness == {"f": 1, "ff": 1, "fe": 1, "ef": 0}
    assert recheck_result(r)


def test_forward_inclusion_holds_on_left_zero(left_zero):
    for r in evaluate_claim("C-4.1-forward", left_zero):
        assert r.status == STATUS_HOLDS


def test_variant_quotient_matches_translate_image(null2):
    for r in evaluate_claim("C-3.4", null2):
        assert r.status == STATUS_HOLDS


def test_abundance_transfer_applicability(z2, left_zero):
    # a group is an abundant monoid with every element invertible
    for r in evaluate_claim("C-2.4", z2):
        assert r.status == STATUS_HOLDS
    # a left-zero band is not a monoid, so nothing applies
    for r in evaluate_claim("C-2.4", left_zero):
        assert r.status == STATUS_NOT_APPLICABLE


def test_tilde_congruence_failure_has_witness():
    # at U = {2}, L~ glues 0 and 2, but multiplying by 1 on the right
    # separates them again
    from semivar import build_semigroup

    s = build_semigroup(3, [[0, 0, 0], [0, 0, 0], [0, 1, 2]])
    results = evaluate_claim("C-NONCONG", s)
    failing = [r for r in results if r.status == STATUS_FAILS]
    assert failing, "expected at least one tilde relation to fail closure"
    for r in failing:
        assert r.witness is not None
        assert recheck_result(r)


def test_recheck_rejects_fabricated_witness(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert r.status == STATUS_FAILS
    fake = dataclasses.replace(r, witness={"f": 0, "ff": 0, "fe": 0, "ef": 0})
    assert not recheck_result(fake)


def test_recheck_needs_a_failure(z2):
    r = evaluate_claim("C-2.5", z2)[0]
    assert r.status == STATUS_HOLDS
    assert not recheck_result(r)


def test_every_corpus_failure_survives_recheck(corpus3):
    checked = 0
    for s in corpus3:
        for cid in sorted(REGISTRY):
            for r in evaluate_claim(cid, s):
                if r.status == STATUS_FAILS:
                    assert r.witness is not None, (cid, r.table, r.params)
                    assert recheck_result(r), (cid, r.table, r.params, r.witness)
                    checked += 1
    assert checked > 1000  # the corpus is known to produce many findings


def test_recheck_validates_a_new_key_after_a_cached_one(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert recheck_result(r)
    bad = dataclasses.replace(r, table="2;1 0;0 0")  # (0.0).1 != 0.(0.1)
    for _ in range(2):  # a key that fails to parse is not remembered
        with pytest.raises(NotAssociative):
            recheck_result(bad)
    assert recheck_result(r)


def test_recheck_parses_each_run_of_equal_keys_once(cli_reports3):
    fails = [r for r in Report.loads(cli_reports3[False].read_text()).results
             if r.status == STATUS_FAILS]
    runs = sum(1 for _ in itertools.groupby(r.table for r in fails))
    claims._parse_witness_table.cache_clear()
    assert all(recheck_result(r) for r in fails)
    info = claims._parse_witness_table.cache_info()
    assert (info.misses, info.hits) == (runs, len(fails) - runs)
    assert len(fails) == 1436 and runs < len(fails) / 2


def _negated_ids(r):
    """Copies of r with one positive id v of its params or witness, or of
    a list there, replaced by v - n: both pick the same row of a table."""
    n = int(r.table.split(";")[0])
    for section in ("params", "witness"):
        fields = getattr(r, section)
        for key, value in fields.items():
            items = value if isinstance(value, list) else [value]
            for i, v in enumerate(items):
                if type(v) is int and v > 0:
                    bad = items[:i] + [v - n] + items[i + 1:]
                    bad = bad if isinstance(value, list) else bad[0]
                    yield dataclasses.replace(r, **{section: {**fields, key: bad}})


def test_recheck_refuses_bools_as_ids(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert r.witness == {"f": 1, "ff": 1, "fe": 1, "ef": 0}
    assert recheck_result(r)
    for name in ("f", "ff", "fe"):
        assert not recheck_result(dataclasses.replace(r, witness={**r.witness, name: True}))
    assert not recheck_result(dataclasses.replace(r, params={"e": False}))
    # a flag field holds a bool, and a list of ids no bool
    assert claims._out_of_range([("adjoined", True), ("x", [0, 1])], 2) is False
    assert claims._out_of_range([("x", [0, True])], 2) is True


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_ids_outside_the_table(cli_reports3, strict_u):
    opts = Options(strict_u=strict_u)
    tampered = 0
    for r in Report.loads(cli_reports3[strict_u].read_text()).results:
        if r.status == STATUS_FAILS:
            for bad in _negated_ids(r):
                assert not recheck_result(bad, opts), (bad, r.witness)
                tampered += 1
    assert tampered > 1000


def test_recheck_compares_the_witness_products(cli_reports3):
    # C-2.5, C-4.1-forward and C-4.1-reverse report products of the table;
    # any other value for one of them is not the failure the table shows
    fields = {"C-2.5": ("e_star_e",), "C-4.1-forward": ("f_star_f",),
              "C-4.1-reverse": ("ff", "fe", "ef")}
    tampered = 0
    for r in Report.loads(cli_reports3[False].read_text()).results:
        if r.status != STATUS_FAILS or r.claim_id not in fields:
            continue
        n = int(r.table.split(";")[0])
        for key in fields[r.claim_id]:
            for other in set(range(n)) - {r.witness[key]}:
                bad = dataclasses.replace(r, witness={**r.witness, key: other})
                assert not recheck_result(bad), bad
                tampered += 1
    assert tampered > 100


# The definitional helpers a re-checker may call, by name.
_HELPER = re.compile(r"_dual|_side|_sandwich_table|_s1_table|_c13_rhs|_\w+_lit")

# The production code a re-checker reads because its claim is about it.
_PRODUCTION_READ = {
    "C-1.2": {"relations.star", "rel.same"},
    "C-3.1": {"all_congruences", "quotient", "Equivalence.from_keys"},
    "C-FUND": {"is_fundamental"},
}


def _foreign_calls(fn):
    """The calls in fn's source that are not to a builtin, a builtin
    type's method, a definitional helper, itertools or a callable fn
    holds in a local name (a parameter, a closure, what a helper
    returned), written as in the source."""
    tree = ast.parse(inspect.getsource(fn)).body[0]
    local = {a.arg for a in ast.walk(tree.args) if isinstance(a, ast.arg)}
    local |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    local |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)} - {fn.__name__}
    # a local name that only aliases a global is not a closure
    local -= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
              and isinstance(n.value, (ast.Name, ast.Attribute))
              for t in n.targets if isinstance(t, ast.Name)}
    methods = {m for t in (str, list, tuple, dict, set, frozenset) for m in dir(t)}
    foreign = set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        f = call.func
        if isinstance(f, ast.Name):
            ok = (f.id in local or hasattr(builtins, f.id) or _HELPER.fullmatch(f.id))
        elif isinstance(f, ast.Attribute):
            base = f.value.id if isinstance(f.value, ast.Name) else None
            ok = base == "itertools" or (base not in vars(claims) and f.attr in methods)
        else:
            ok = False
        if not ok:
            foreign.add(ast.unparse(f))
    return foreign


def test_recheckers_call_only_definitional_code():
    helpers = [fn for name, fn in vars(claims).items()
               if _HELPER.fullmatch(name) and inspect.isfunction(fn)]
    assert len(helpers) > 20
    for fn in helpers:
        assert _foreign_calls(fn) == set(), fn.__name__
    for cid, claim in REGISTRY.items():
        fn = getattr(claim.recheck, "func", claim.recheck)  # C-2.6 binds a reading
        assert fn.__name__.startswith("_recheck_"), cid
        assert _foreign_calls(fn) == _PRODUCTION_READ.get(cid, set()), cid


# The claims that compare production with a definition by design.
_DIFFERENTIAL = {"C-1.2", "C-1.3", "C-3.1", "C-FUND"}


def _reached(fn):
    """The names of the claims-module functions fn names in its source,
    transitively, each mapped to its function (unwrapped from a cache)."""
    reached, todo = {}, [fn]
    while todo:
        tree = ast.parse(textwrap.dedent(inspect.getsource(todo.pop())))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in reached:
                g = inspect.unwrap(vars(claims).get(n.id))
                if inspect.isfunction(g) and g.__module__ == claims.__name__:
                    reached[n.id] = g
                    todo.append(g)
    return reached


def test_evaluators_reach_no_literal_helper():
    # production decides a claim and definitional code confirms its witness
    checks = {}
    for cid, claim in REGISTRY.items():
        check = inspect.getclosurevars(claim.evaluate).nonlocals["check"]
        checks[cid] = getattr(check, "func", check)  # C-2.6 binds a reading
    assert {fn.__name__ for fn in checks.values()} == {
        name for name in vars(claims) if name.startswith("_check_")}
    for cid, fn in checks.items():
        helpers = {name for name in _reached(fn) if _HELPER.fullmatch(name)} - {"_dual"}
        # the search sees the helpers a differential claim reaches
        assert bool(helpers) == (cid in _DIFFERENTIAL), (cid, helpers)


def test_a_refused_congruence_is_a_fails(monkeypatch, corpus3):
    # C-3.2 decides on congruence_kind alone, so a kind that refuses every
    # partition fails every instance, and no such witness is confirmed
    monkeypatch.setattr(claims, "congruence_kind", lambda s, p: congruences.KIND_NONE)
    results = [r for s in corpus3 for r in evaluate_claim("C-3.2", s)]
    assert {r.status for r in results} == {STATUS_FAILS}
    assert not any(recheck_result(r) for r in results)


def test_literal_builders_agree_with_production(corpus3, classes5):
    # C-1.2 compares R* and L*; this compares every relation test, at every
    # U a claim ranges over, and the natural order, on all pairs
    for s in itertools.chain(corpus3, classes5):
        t, r = s.table, range(s.order)
        g, st = relations.green(s), relations.star(s)
        cases = [("L", g.l, ()), ("R", g.r, ()), ("L*", st.l_star, ()), ("R*", st.r_star, ())]
        for us in claims.u_subsets(s):
            td = relations.tilde(s, frozenset(us))
            cases += [("L~", td.l_tilde, us), ("R~", td.r_tilde, us)]
        for name, rel, us in cases:
            related = claims._related_lit(t, name, us)
            assert all(related(x, y) == rel.same(x, y) for x in r for y in r), (t, name, us)
        leq, natural = claims._natural_leq_lit(t), orders.natural_leq(s).leq
        assert all(leq(a, b) == natural[a][b] for a in r for b in r), t


# The first FAILS of each observed claim in corpus order: the labeled
# tables of orders 1-4, then the order-5 classes.  (table, params, witness)
SMALLEST_COUNTEREXAMPLES = {
    "C-2.2-quantifier": ("2;0 0;0 0", {"a": 0},
                         {"side": "R", "x": 0, "y": 1, "adjoined": False, "plain": True}),
    "C-2.3-literal": ("2;0 0;0 0", {"a": 0},
                      {"side": "R", "x": 1, "y": 1, "in_variant_cap_p": False,
                       "in_base": True}),
    "C-2.6-inter": ("2;0 0;0 1", {"U": [0], "e": 0},
                    {"Uprime": [0], "relation": "L~", "element": 1}),
    "C-2.6-sandwich": ("2;0 0;0 1", {"U": [0], "e": 0},
                       {"Uprime": [0], "relation": "L~", "element": 1}),
    "C-4.1-reverse": ("2;0 0;1 1", {"e": 0}, {"f": 1, "ff": 1, "fe": 1, "ef": 0}),
    "C-NONCONG": ("3;0 0 0;0 0 0;0 0 1", {"U": [0], "relation": "L~"},
                  {"x": 1, "y": 2, "z": 2}),
    "C-2.2-composition": ("4;0 0 0 0;0 0 0 0;0 0 0 0;0 0 2 3", {"a": 3},
                          {"x": 1, "y": 3, "in_join": True, "in_rl": False,
                           "in_lr": True}),
    "C-3.5": ("5;0 0 0 0 0;0 0 0 0 2;0 0 0 2 2;0 1 2 3 3;0 1 2 4 4", {"a": 3, "b": 4},
              {"quotient_a": "4;0 0 0 0;0 0 0 0;0 0 0 2;0 1 2 3",
               "quotient_b": "4;0 0 0 0;0 0 0 2;0 0 0 2;0 1 2 3"}),
    "C-NAT-PO": None,  # no FAILS through the order-5 classes
}


@pytest.mark.parametrize("cid", sorted(SMALLEST_COUNTEREXAMPLES))
def test_smallest_counterexample(cid, corpus3, classes5):
    first = next(
        (r for s in itertools.chain(corpus3, full_corpus(4), classes5)
         for r in evaluate_claim(cid, s) if r.status == STATUS_FAILS),
        None,
    )
    expected = SMALLEST_COUNTEREXAMPLES[cid]
    if expected is None:
        assert first is None, (first.table, first.params)
        return
    assert (first.table, first.params, first.witness) == expected
    assert recheck_result(first)


def test_hard_claims_hold_on_corpus(corpus3):
    for s in corpus3:
        for cid in sorted(HARD_CLAIM_IDS):
            for r in evaluate_claim(cid, s):
                assert r.status != STATUS_FAILS, (cid, r.table, r.params, r.witness)


def _clear_claim_caches():
    for value in vars(claims).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_no_claim_builds_a_meet(monkeypatch, corpus3):
    # green and star build the one-sided relations only; no claim reads
    # H or H*, so no claim needs a meet
    def refuse(p, q):
        raise AssertionError("meet called")

    monkeypatch.setattr(relations, "meet", refuse)
    _clear_claim_caches()
    for options in (Options(), Options(strict_u=True)):
        for s in corpus3:
            for claim in REGISTRY.values():
                claim.evaluate(s, options)


def test_each_starred_bundle_is_built_once_a_table(corpus3):
    # all claims together call star at most once on S and on each distinct
    # variant S^a: p_sets and is_abundant take the cached bundle
    star_code = relations.star.__code__
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is star_code:
            built.append(frame.f_locals["s"])

    for s in corpus3:
        _clear_claim_caches()
        built.clear()
        sys.setprofile(profile)
        try:
            for claim in REGISTRY.values():
                claim.evaluate(s, Options())
        finally:
            sys.setprofile(None)
        assert set(built) <= {s} | {variants.variant(s, a) for a in s.elements}, s.table
        assert len(built) == len(set(built)), s.table


def _quotient_with_a_wrong_entry(s, p):
    q = congruences.quotient(s, p)
    rows = [list(row) for row in q.table]
    rows[0][0] = (rows[0][0] + 1) % q.order
    return FiniteSemigroup(q.order, tuple(map(tuple, rows)))


def test_c31_catches_a_quotient_that_is_not_well_defined(tmp_path, monkeypatch):
    # a quotient whose table breaks the projection must show up as C-3.1
    # welldef FAILS that the re-checker confirms, not as a crash
    monkeypatch.setattr(claims, "quotient", _quotient_with_a_wrong_entry)
    out = tmp_path / "r.jsonl"
    argv = ["check", "--orders", "2", "--claims", "C-3.1", "--out", str(out)]
    assert cli.main(argv) == 2
    fails = [r for r in Report.loads(out.read_text()).results if r.status == STATUS_FAILS]
    assert len(fails) == 8
    assert all(r.witness["part"] == "welldef" for r in fails)
    assert all(recheck_result(r) for r in fails)
    # against the real quotient the same witnesses do not recheck
    monkeypatch.undo()
    assert not any(recheck_result(r) for r in fails)


def _c31_failure(s, witness):
    return ClaimResult("C-3.1", inline_table(s), {}, STATUS_FAILS, witness)


def test_c31_confirms_a_wrong_lattice_and_refuses_forged_witnesses(corpus3, monkeypatch):
    s = parse_inline("3;0 0 0;0 0 0;0 0 1")
    assert {r.status for r in evaluate_claim("C-3.1", s)} == {STATUS_HOLDS}
    # [0, 1, 0] is no congruence, but production never made it; [1, 1, 0]
    # is a congruence production made, its classes renumbered
    for made, brute in (([[0, 1, 0]], []), ([], [[1, 1, 0]])):
        lattice = {"part": "lattice", "only_production": made, "only_bruteforce": brute}
        assert not recheck_result(_c31_failure(s, lattice))
    # a production lattice that drops the identity and adds [0, 1, 0]
    real = congruences.all_congruences

    def wrong(s):
        return real(s)[:-1] + [Equivalence.from_keys(3, [0, 1, 0])]

    monkeypatch.setattr(claims, "all_congruences", wrong)
    monkeypatch.setattr(claims, "_congruences", wrong)
    [r] = evaluate_claim("C-3.1", s)
    assert r.witness == {"part": "lattice", "only_production": [[0, 1, 0]],
                         "only_bruteforce": [[0, 1, 2]]}
    assert recheck_result(r)
    monkeypatch.undo()
    assert not recheck_result(r)
    # a welldef witness on a produced congruence with its classes
    # renumbered shows no fault of the quotient
    forged = 0
    for s in corpus3:
        t = s.table
        for p in real(s):
            ci = [p.num_classes - 1 - c for c in p.class_index]
            q = congruences.quotient(s, p)
            for x, y in itertools.product(s.elements, repeat=2):
                if q.table[ci[x]][ci[y]] != ci[t[x][y]]:
                    welldef = {"part": "welldef", "partition": ci, "x": x, "y": y}
                    assert not recheck_result(_c31_failure(s, welldef))
                    forged += 1
    assert forged > 100


def test_cfund_confirms_forced_failures_and_refuses_forged_witnesses(monkeypatch):
    corpus = full_corpus(2, 3)
    real = congruences.fundamental_among
    for module in (congruences, claims):
        monkeypatch.setattr(module, "fundamental_among", lambda s, cs: not real(s, cs))
    fails = [r for s in corpus for r in evaluate_claim("C-FUND", s)]
    assert len(fails) == 121 and {r.status for r in fails} == {STATUS_FAILS}
    assert all(recheck_result(r) for r in fails)
    monkeypatch.undo()
    assert not any(recheck_result(r) for r in fails)
    # on a fundamental table, no witness that production calls it not
    # fundamental confirms: neither a null partition with bruteforce false
    # nor the identity partition with one entry too many
    fundamental = [s for s in corpus if congruences.is_fundamental(s)]
    assert len(fundamental) == 39
    for s in fundamental:
        for ci in (None, [*s.elements, 0]):
            forged = {"production": True, "bruteforce": False, "witness_partition": ci}
            r = ClaimResult("C-FUND", inline_table(s), {}, STATUS_FAILS, forged)
            assert not recheck_result(r), (r.table, ci)


def test_strict_u_changes_applicability(min2):
    # U = {0} is weakly abundant only in the lax reading, so the strict
    # run marks the C-2.6 instances not-applicable
    lax = evaluate_claim("C-2.6-inter", min2, params={"U": [0], "e": 0})
    strict = evaluate_claim(
        "C-2.6-inter", min2, params={"U": [0], "e": 0},
        options=Options(strict_u=True),
    )
    assert lax[0].status != STATUS_NOT_APPLICABLE
    assert strict[0].status == STATUS_NOT_APPLICABLE


def full_transformation_monoid(k):
    """T_k: all maps of 0..k-1 into itself, f.g = apply f, then g."""
    maps = list(itertools.product(range(k), repeat=k))
    index = {f: i for i, f in enumerate(maps)}
    return build_semigroup(len(maps), [
        [index[tuple(g[f[i]] for i in range(k))] for g in maps] for f in maps
    ])


def test_every_claim_finishes_beyond_the_enumerable_orders():
    # T_3 has 27 elements, far past CONGRUENCE_ORDER_BOUND: the lattice
    # claims must say NOT_APPLICABLE instead of raising or scanning
    # Bell(27) partitions
    t3 = full_transformation_monoid(3)
    t0 = time.time()
    results = {cid: claim.evaluate(t3, Options()) for cid, claim in REGISTRY.items()}
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"29 claims on T_3 took {elapsed:.1f}s"
    assert all(results.values())
    for cid in ("C-3.1", "C-FUND"):
        assert [r.status for r in results[cid]] == [STATUS_NOT_APPLICABLE]
    with pytest.raises(OrderTooLarge):
        claims._lit_congruences(t3)
    fails = [r for rs in results.values() for r in rs if r.status == STATUS_FAILS]
    assert fails and all(recheck_result(r) for r in fails)
