"""The claim registry: evaluation, witnesses, and independent re-checking."""

import ast
import builtins
import dataclasses
import inspect
import itertools
import json
import sys
import textwrap
import time

import pytest

from semivar import (
    FiniteSemigroup, NotAssociative, OrderTooLarge, build_semigroup, claims, cli,
    congruences, idempotents, literal, orders, relations, variants,
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

from .conftest import NULL2, full_corpus


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


#: the order-5 table of C-3.5's first counterexample
_C35_TABLE = "5;0 0 0 0 0;0 0 0 0 2;0 0 0 2 2;0 1 2 3 3;0 1 2 4 4"

#: forged FAILS records.  The first three name a class without its
#: target, or a pair a translate separates, but under L or L* where the
#: claim speaks of L~; the next six name a relation or side no claim
#: writes, on a table whose recheckers reach the name (the sixth is
#: genuine under side R); the last is a genuine witness with a key no
#: claim writes
_FORGED_RELATIONS = [
    ("C-NONCONG", "3;0 0 0;0 0 1;0 0 2", {"U": [0], "relation": "L*"},
     {"x": 1, "y": 2, "z": 1}),
    ("C-2.6-inter", "3;0 0 0;0 0 1;0 1 2", {"U": [0, 2], "e": 2},
     {"Uprime": [0, 2], "relation": "L", "element": 1}),
    ("C-1.4", "4;0 0 0 0;0 0 0 1;0 1 2 0;0 0 0 3", {},
     {"part": "weakly-abundant", "relation": "L", "element": 1}),
    ("C-2.4", "1;0", {"a": 0}, {"relation": "P1", "element": 0}),
    ("C-1.1", "1;0", {}, {"relation": "X", "element": 0}),
    ("C-INCL", "1;0", {"U": [0]}, {"part": "L<=Q", "x": 0, "y": 0}),
    ("C-1.4", "1;0", {}, {"part": "L*=Q", "x": 0, "y": 0}),
    ("C-1.2", "1;0", {}, {"side": "X", "a": 0, "b": 0, "bundle": True, "literal": False}),
    ("C-2.2-quantifier", "2;0 0;0 0", {"a": 0},
     {"side": "X", "x": 0, "y": 1, "adjoined": False, "plain": True}),
    ("C-4.1-reverse", "2;0 0;1 1", {"e": 0}, {"f": 1, "ff": 1, "fe": 1, "ef": 0, "zz": "junk"}),
    # genuine but for a U that is empty or lacks e, or holds no idempotent
    ("C-2.6-sandwich", "2;0 0;0 1", {"U": [], "e": 0},
     {"Uprime": [0], "relation": "L~", "element": 1}),
    ("C-2.6-sandwich", "2;0 0;0 1", {"U": [1], "e": 0},
     {"Uprime": [0], "relation": "L~", "element": 1}),
    ("C-NONCONG", "3;0 0 0;0 0 0;0 0 1", {"U": [1, 2], "relation": "R~"},
     {"x": 1, "y": 2, "z": 2}),
    # 1.0.1 = 0 != 1, but 1 is no idempotent, so C-2.5 is not about it
    ("C-2.5", "2;0 0;0 0", {"e": 1}, {"e_star_e": 0}),
    # C-3.5's first counterexample with junk tables or none, a C-3.2
    # relation no claim writes, and C-4.1-reverse's first counterexample
    # with a param its instance domain never writes
    ("C-3.5", _C35_TABLE, {"a": 3, "b": 4}, {"quotient_a": "junk", "quotient_b": "junk"}),
    ("C-3.5", _C35_TABLE, {"a": 3, "b": 4}, {}),
    ("C-3.2", "1;0", {"u": 0}, {"relation": "L", "requirement": "left", "kind": "none"}),
    ("C-4.1-reverse", "2;0 0;1 1", {"e": 0, "a": 1}, {"f": 1, "ff": 1, "fe": 1, "ef": 0}),
    ("C-4.1-reverse", "2;0 0;1 1", {"e": 0, "U": [0]}, {"f": 1, "ff": 1, "fe": 1, "ef": 0}),
]


def test_recheck_rejects_fabricated_witness(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert r.status == STATUS_FAILS
    fake = dataclasses.replace(r, witness={"f": 0, "ff": 0, "fe": 0, "ef": 0})
    assert not recheck_result(fake)
    for cid, table, params, witness in _FORGED_RELATIONS:
        assert not recheck_result(ClaimResult(cid, table, params, STATUS_FAILS, witness)), cid


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


def _cache_sizes():
    return [c.cache_info().currsize for c in claims._CACHES]


def _fresh_recheck(r, opts):
    """recheck_result(r, opts) with every cache emptied first."""
    for c in claims._CACHES:
        c.cache_clear()
    return recheck_result(r, opts)


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_verdicts_do_not_depend_on_order_or_scope(cli_reports3, strict_u):
    # the re-checkers' caches hold one table: whatever was rechecked
    # before, a witness gets the verdict a fresh recheck gives it
    fails = [r for r in Report.loads(cli_reports3[strict_u].read_text()).results
             if r.status == STATUS_FAILS]
    both = (Options(), Options(strict_u=True))
    fresh = {(i, opts): _fresh_recheck(r, opts) for i, r in enumerate(fails) for opts in both}
    own = Options(strict_u=strict_u)
    assert all(fresh[i, own] for i in range(len(fails)))
    assert any(fresh[i, both[0]] != fresh[i, both[1]] for i in range(len(fails)))
    # runs of one table, taken two at a time and alternately, each witness
    # under both options
    runs = [list(g) for _, g in itertools.groupby(range(len(fails)), lambda i: fails[i].table)]
    pairs = itertools.zip_longest(runs[::2], runs[1::2], fillvalue=())
    alternating = [(i, opts) for a, b in pairs for ab in itertools.zip_longest(a, b)
                   for i in ab if i is not None for opts in both]
    orders = {
        "file": [(i, own) for i in range(len(fails))],
        "reversed": [(i, own) for i in reversed(range(len(fails)))],
        "alternating": alternating,
    }
    for name, order in orders.items():
        assert sorted({i for i, _ in order}) == list(range(len(fails))), name
        for i, opts in order:
            assert recheck_result(fails[i], opts) == fresh[i, opts], (name, fails[i], opts)
        # the caches hold what the last table's own witnesses built
        last = fails[order[-1][0]].table
        tail = list(itertools.takewhile(lambda io: fails[io[0]].table == last, order[::-1]))
        sizes = _cache_sizes()
        for c in claims._CACHES:
            c.cache_clear()
        for i, opts in tail[::-1]:
            recheck_result(fails[i], opts)
        assert _cache_sizes() == sizes, name


def test_recheck_parses_each_run_of_equal_keys_once(cli_reports3):
    # the parse is a cache of the one scope: a new key empties it, and the
    # later witnesses of the run read the table parsed for the first
    fails = [r for r in Report.loads(cli_reports3[False].read_text()).results
             if r.status == STATUS_FAILS]
    runs = [list(g) for _, g in itertools.groupby(fails, lambda r: r.table)]
    for run in runs:
        for k, r in enumerate(run):
            assert recheck_result(r)
            info = claims._witness_table.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, k, 1), r
    assert len(fails) == 1436 and len(runs) < len(fails) / 2


def test_a_key_that_fails_to_parse_caches_nothing(cli_reports3):
    fails = [r for r in Report.loads(cli_reports3[False].read_text()).results
             if r.status == STATUS_FAILS]
    bad = dataclasses.replace(fails[0], table="2;1 0;0 0")  # (0.0).1 != 0.(0.1)
    both = (Options(), Options(strict_u=True))
    verdicts = []
    for r in fails[::7]:
        for opts in both:  # the strict reading refuses some of them
            verdicts.append(recheck_result(r, opts))
            with pytest.raises(NotAssociative):
                recheck_result(bad, opts)
            assert _cache_sizes() == [0] * len(claims._CACHES)
    fresh = [_fresh_recheck(r, opts) for r in fails[::7] for opts in both]
    assert verdicts == fresh and False in fresh


def _evaluate_all(s):
    """The cache_info of each of _CACHES after every claim evaluates s."""
    for claim in REGISTRY.values():
        claim.evaluate(s, Options())
    return [c.cache_info() for c in claims._CACHES]


def test_equal_tables_built_apart_share_one_scope():
    # the scope is the table key: evaluating an equal table clears nothing
    # (a clear would reset the counts), and the second pass builds nothing
    first, second = build_semigroup(2, NULL2), build_semigroup(2, NULL2)
    assert first is not second
    built, again = _evaluate_all(first), _evaluate_all(second)
    assert [i.misses for i in again] == [i.misses for i in built]
    assert sum(i.hits for i in again) > sum(i.hits for i in built)
    assert sum(i.misses for i in built) > 0


def _changed_ids(r, change, least=0):
    """Copies of r with one id v >= least of its params or witness, or of
    a list there, replaced by change(v, n)."""
    n = int(r.table.split(";")[0])
    for section in ("params", "witness"):
        fields = getattr(r, section)
        for key, value in fields.items():
            items = value if isinstance(value, list) else [value]
            for i, v in enumerate(items):
                if type(v) is int and v >= least:
                    bad = items[:i] + [change(v, n)] + items[i + 1:]
                    bad = bad if isinstance(value, list) else bad[0]
                    yield dataclasses.replace(r, **{section: {**fields, key: bad}})


def test_recheck_refuses_bools_as_ids(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert r.witness == {"f": 1, "ff": 1, "fe": 1, "ef": 0}
    assert recheck_result(r)
    for name in ("f", "ff", "fe"):
        assert not recheck_result(dataclasses.replace(r, witness={**r.witness, name: True}))
    assert not recheck_result(dataclasses.replace(r, params={"e": False}))


def _other_kinds(value, n):
    """A value of each JSON kind other than value's: a string, null, an
    object, a list, a float, a bool and an int outside 0..n-1.  A list of
    ints also gets a copy with a bool for its first element."""
    kinds = {str: "junk", type(None): None, dict: {}, list: [None], float: 0.0, bool: True}
    out = [v for kind, v in kinds.items() if type(value) is not kind] + [n]
    if type(value) is list and value and type(value[0]) is int:
        out.append([True, *value[1:]])
    return out


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_every_field_of_another_kind(cli_reports3, strict_u):
    # each params and witness field set, one at a time, to a value of
    # another JSON kind: the record is refused, and recheck_result raises
    # nothing.  A flag field holds a bool in the genuine records
    opts = Options(strict_u=strict_u)
    fails = [r for r in Report.loads(cli_reports3[strict_u].read_text()).results
             if r.status == STATUS_FAILS]
    tampered, flags = 0, set()
    for r in fails:
        assert recheck_result(r, opts)
        n = int(r.table.split(";")[0])
        for section in ("params", "witness"):
            fields = getattr(r, section)
            flags |= {key for key, v in fields.items() if type(v) is bool}
            for key, value in fields.items():
                for bad in _other_kinds(value, n):
                    forged = dataclasses.replace(r, **{section: {**fields, key: bad}})
                    assert recheck_result(forged, opts) is False, (forged, value)
                    tampered += 1
    assert tampered > 10000
    assert flags == {"adjoined", "plain", "in_variant_cap_p", "in_base"}


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_a_record_without_one_of_its_fields(cli_reports3, strict_u):
    # each params and witness field deleted, one at a time: the re-checker
    # reads every field of these claims, so the copy is refused, and
    # recheck_result raises nothing
    opts = Options(strict_u=strict_u)
    fails = [r for r in Report.loads(cli_reports3[strict_u].read_text()).results
             if r.status == STATUS_FAILS]
    deleted = 0
    for r in fails:
        for section in ("params", "witness"):
            fields = getattr(r, section)
            for key in fields:
                rest = {k: v for k, v in fields.items() if k != key}
                forged = dataclasses.replace(r, **{section: rest})
                assert recheck_result(forged, opts) is False, (forged, key)
                deleted += 1
    assert deleted > 5000
    # a C-4.2 witness of transitivity without its y is refused, not a KeyError
    r = ClaimResult("C-4.2", "2;0 0;0 1", {"e": 1}, STATUS_FAILS,
                    {"law": "transitivity", "x": 0})
    assert recheck_result(r) is False


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_a_param_its_instance_domain_never_writes(cli_reports3, strict_u):
    # each params name some domain writes, added with a value of its kind
    # to a record whose domain does not write it: the copy is refused
    opts = Options(strict_u=strict_u)
    added = 0
    for r in Report.loads(cli_reports3[strict_u].read_text()).results:
        if r.status == STATUS_FAILS:
            e = min(idempotents(parse_inline(r.table)))
            others = {"a": 0, "b": 0, "u": 0, "e": e, "U": [e], "relation": "L~"}
            for name, value in others.items():
                if name not in r.params:
                    forged = dataclasses.replace(r, params={**r.params, name: value})
                    assert recheck_result(forged, opts) is False, forged
                    added += 1
    assert added > 5000


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_a_witness_field_its_re_checker_never_reads(cli_reports3, strict_u):
    # a field of a valid kind, added to a FAILS record whose re-checker
    # confirms the record without reading that field: the copy is refused
    opts = Options(strict_u=strict_u)
    others = {"x": 0, "element": 0, "natural": True, "kind": "junk", "part": "hom", "side": "L"}
    added = 0
    for r in Report.loads(cli_reports3[strict_u].read_text()).results:
        if r.status == STATUS_FAILS:
            w = literal._Read(r.witness)
            assert REGISTRY[r.claim_id].recheck(parse_inline(r.table), r.params, w, opts)
            for name, value in others.items():
                if name not in w.read:
                    forged = dataclasses.replace(r, witness={**r.witness, name: value})
                    assert recheck_result(forged, opts) is False, forged
                    added += 1
    assert added > 4000


def test_recheck_refuses_a_key_above_the_checked_orders_before_parsing_it(monkeypatch):
    # check writes no table above order 6, and parsing a key is cubic in
    # its order: recheck_result raises OrderTooLarge without parsing, also
    # for an order of more digits than int() converts
    def refuse(key):
        raise AssertionError("parsed")

    monkeypatch.setattr(claims, "parse_inline", refuse)
    left_zero7 = ";".join(["7"] + [" ".join([str(x)] * 7) for x in range(7)])
    for key in (left_zero7, "9" * 5000 + ";0"):
        r = ClaimResult("C-4.1-reverse", key, {"e": 0}, STATUS_FAILS,
                        {"f": 1, "ff": 1, "fe": 1, "ef": 0})
        order = key.partition(";")[0]
        with pytest.raises(OrderTooLarge, match=f"^order {order} exceeds the configured bound 6$"):
            recheck_result(r)


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_ids_outside_the_table(cli_reports3, strict_u):
    opts = Options(strict_u=strict_u)
    tampered = 0
    for r in Report.loads(cli_reports3[strict_u].read_text()).results:
        if r.status == STATUS_FAILS:
            # v - n picks the same row of a table as v
            for bad in _changed_ids(r, lambda v, n: v - n, least=1):
                assert not recheck_result(bad, opts), (bad, r.witness)
                tampered += 1
    assert tampered > 1000


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_refuses_float_ids(cli_reports3, strict_u):
    # no evaluator writes a float; 0.0 == 0 would pass for id 0, and a
    # float index would raise TypeError in the re-checker
    text = cli_reports3[strict_u].read_text()
    floats = []
    for line in text.splitlines():
        json.loads(line, parse_float=floats.append)
    assert floats == []
    opts = Options(strict_u=strict_u)
    tampered = 0
    for r in Report.loads(text).results:
        if r.status == STATUS_FAILS:
            for bad in _changed_ids(r, lambda v, n: float(v)):
                assert recheck_result(bad, opts) is False, (bad, r.witness)
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


# The production code a function of semivar.literal calls because its
# claim is about that code, and the error _lit_congruences raises.
_PRODUCTION_READ = {
    "_recheck_c12": {"star", "rel.same"},
    "_recheck_c31": {"all_congruences", "quotient", "Equivalence.from_keys"},
    "_recheck_cfund": {"is_fundamental"},
    "_lit_congruences": {"OrderTooLarge"},
}


def _is_literal(obj):
    """True when obj, unwrapped from a cache, is a function that
    semivar.literal defines."""
    fn = inspect.unwrap(obj)
    return inspect.isfunction(fn) and fn.__module__ == literal.__name__


def _foreign_calls(tree):
    """The calls in the source tree (a function's definition, or the rest
    of the module) that are not to a builtin, a builtin type's method, a
    function of semivar.literal, a table of them, itertools or a callable
    the function holds in a local name (a parameter, a closure, what a
    helper returned), written as in the source."""
    local = set()
    if isinstance(tree, ast.FunctionDef):
        local = {a.arg for a in ast.walk(tree.args) if isinstance(a, ast.arg)}
    local |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    local |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)} - {
        getattr(tree, "name", None)}
    # a local name that only aliases a global is not a closure
    local -= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
              and isinstance(n.value, (ast.Name, ast.Attribute))
              for t in n.targets if isinstance(t, ast.Name)}
    methods = {m for t in (str, list, tuple, dict, set, frozenset) for m in dir(t)}
    foreign = set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        f = call.func
        if isinstance(f, ast.Name):
            ok = f.id in local or hasattr(builtins, f.id) or _is_literal(vars(literal).get(f.id))
        elif isinstance(f, ast.Attribute):
            base = f.value.id if isinstance(f.value, ast.Name) else None
            ok = base == "itertools" or (base not in vars(literal) and f.attr in methods)
        elif isinstance(f, ast.Subscript) and isinstance(f.value, ast.Name):
            table = vars(literal).get(f.value.id)
            ok = isinstance(table, dict) and all(map(_is_literal, table.values()))
        else:
            ok = False
        if not ok:
            foreign.add(ast.unparse(f))
    return foreign


def test_recheckers_call_only_definitional_code():
    # every function of semivar.literal, and its module-level code, calls
    # only definitional code, but for what _PRODUCTION_READ names
    tree = ast.parse(inspect.getsource(literal))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert {name for name, fn in vars(literal).items() if _is_literal(fn)} == set(defs)
    assert len(defs) >= 52  # the helpers and re-checkers that left claims
    for name, node in defs.items():
        assert _foreign_calls(node) == _PRODUCTION_READ.get(name, set()), name
    rest = ast.Module([n for n in tree.body if not isinstance(n, ast.FunctionDef)], [])
    assert _foreign_calls(rest) == set()
    for cid, claim in REGISTRY.items():
        fn = getattr(claim.recheck, "func", claim.recheck)  # C-2.6 binds a reading
        assert _is_literal(fn) and fn.__name__.startswith("_recheck_"), cid


def test_literal_imports_only_what_its_claims_are_about():
    # the definitional side imports the stdlib and the production names
    # its differential re-checkers read, and never claims
    absolute, relative = set(), set()
    for n in ast.walk(ast.parse(inspect.getsource(literal))):
        if isinstance(n, ast.ImportFrom) and n.level:
            relative |= {(n.level, n.module, a.name) for a in n.names}
        elif isinstance(n, ast.ImportFrom):
            absolute.add(n.module)
        elif isinstance(n, ast.Import):
            absolute |= {a.name for a in n.names}
    assert absolute == {"__future__", "itertools", "functools"}
    assert relative == {
        (1, "congruences", "CONGRUENCE_ORDER_BOUND"), (1, "congruences", "all_congruences"),
        (1, "congruences", "is_fundamental"), (1, "congruences", "quotient"),
        (1, "core", "OrderTooLarge"), (1, "relations", "Equivalence"), (1, "relations", "star"),
    }


# The claims that compare production with a definition by design.
_DIFFERENTIAL = {"C-1.2", "C-1.3", "C-3.1", "C-FUND"}


def _reached(fn):
    """The names of the claims and literal functions fn names in its
    source, transitively through the claims functions, each mapped to its
    function (unwrapped from a cache)."""
    reached, todo = {}, [fn]
    while todo:
        tree = ast.parse(textwrap.dedent(inspect.getsource(todo.pop())))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in reached:
                g = inspect.unwrap(vars(claims).get(n.id))
                if inspect.isfunction(g) and g.__module__ == claims.__name__:
                    reached[n.id] = g
                    todo.append(g)
                elif _is_literal(g):
                    reached[n.id] = g
    return reached


def _checks():
    """{claim id: (check, instance domain)}, unbound from a C-2.6 reading."""
    out = {}
    for cid, claim in REGISTRY.items():
        nonlocals = inspect.getclosurevars(claim.evaluate).nonlocals
        check = nonlocals["check"]
        out[cid] = getattr(check, "func", check), nonlocals["instances"]
    return out


def test_evaluators_reach_no_literal_helper():
    # production decides a claim and definitional code confirms its witness
    checks = {cid: check for cid, (check, _) in _checks().items()}
    assert {fn.__name__ for fn in checks.values()} == {
        name for name in vars(claims) if name.startswith("_check_")}
    for cid, fn in checks.items():
        helpers = {name for name, g in _reached(fn).items() if _is_literal(g)}
        # the search sees the helpers a differential claim reaches
        assert bool(helpers) == (cid in _DIFFERENTIAL), (cid, helpers)


def _written_keys(fn):
    """The string keys of fn's dict displays, but for one assigned to a
    local name, and the string arguments of its _iso_witness calls."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    local = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Assign)}
    keys = {k.value for d in ast.walk(tree) if isinstance(d, ast.Dict) and id(d) not in local
            for k in d.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return keys | {a.value for c in ast.walk(tree) if isinstance(c, ast.Call)
                   and ast.unparse(c.func) == "_iso_witness"
                   for a in c.args if isinstance(a, ast.Constant) and isinstance(a.value, str)}


def test_the_field_table_gives_e_and_u_their_kinds():
    # e is an idempotent of the table, U and Uprime non-empty, strictly
    # ascending lists of idempotents; 1 is the one non-idempotent here
    t = ((0, 0, 0), (0, 0, 0), (0, 0, 2))
    kinds = literal._FIELDS
    assert [kinds["e"](v, t) for v in (0, 1, 2, 3, True)] == [True, False, True, False, False]
    for name in ("U", "Uprime"):
        ok = [[0], [2], [0, 2]]
        bad = [[], [1], [0, 1], [2, 0], [0, 0], [0, True], [0, 3], (0,), 0]
        assert all(kinds[name](v, t) for v in ok), name
        assert not any(kinds[name](v, t) for v in bad), name


def test_the_field_table_lists_exactly_the_fields_claims_write():
    # so a genuine witness of a hard claim, which the corpus never writes,
    # has no field the table refuses
    written = _written_keys(relations.bare_classes)
    for check, instances in _checks().values():
        if instances.__name__ == "<lambda>":  # _per_element(name): {name: x}
            written.add(inspect.getclosurevars(instances).nonlocals["name"])
        for fn in (check, instances):
            reached = [g for g in _reached(fn).values() if g.__module__ == claims.__name__]
            for g in (fn, *reached):
                written |= _written_keys(g)
    assert set(literal._FIELDS) == written
    assert {"a", "u", "law", "quotient_a", "witness_partition", "only_bruteforce"} <= written


def test_a_refused_congruence_is_a_fails(monkeypatch, corpus3):
    # C-3.2 decides on congruence_kind alone, so a kind that refuses every
    # partition fails every instance, and no such witness is confirmed
    monkeypatch.setattr(claims, "congruence_kind", lambda s, p: congruences.KIND_NONE)
    results = [r for s in corpus3 for r in evaluate_claim("C-3.2", s)]
    assert {r.status for r in results} == {STATUS_FAILS}
    assert not any(recheck_result(r) for r in results)


def test_the_literal_kind_is_the_production_kind():
    # the two _compatible_lit sides name every partition of every labeled
    # table of orders 1-4 as congruence_kind names it
    pairs = 0
    for s in full_corpus(1, 2, 3, 4):
        for ci in literal._partitions_lit(s.order):
            kind = congruences.congruence_kind(s, Equivalence.from_keys(s.order, ci))
            assert literal._kind_lit(s.table, ci) == kind, (s.table, ci)
            pairs += 1
    assert pairs == 52962


def test_literal_builders_agree_with_production(corpus3, classes5):
    # C-1.2 compares R* and L*; this compares every relation test, at every
    # U a claim ranges over, weak U-abundance under both U-policies as
    # C-1.4 and C-2.6 decide it, and the natural order, on all pairs
    for s in itertools.chain(corpus3, classes5):
        claims._hold(inline_table(s))
        t, r = s.table, range(s.order)
        g, st = relations.green(s), relations.star(s)
        cases = [("L", g.l, ()), ("R", g.r, ()), ("L*", st.l_star, ()), ("R*", st.r_star, ())]
        for us in claims.u_subsets(s):
            td = relations.tilde(s, frozenset(us))
            cases += [("L~", td.l_tilde, us), ("R~", td.r_tilde, us)]
            for strict in (False, True):
                bare = claims._unabundant(s, frozenset(us), Options(strict_u=strict))
                assert literal._u_abundant_lit(s, us, strict) == (bare is None), (t, us, strict)
        for name, rel, us in cases:
            related = literal._related_lit(t, name, us)
            assert all(related(x, y) == rel.same(x, y) for x in r for y in r), (t, name, us)
        leq, natural = literal._natural_leq_lit(t), orders.natural_leq(s).leq
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
    "C-3.5": (_C35_TABLE, {"a": 3, "b": 4},
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


def test_no_claim_builds_a_meet(monkeypatch, corpus3):
    # green and star build the one-sided relations only; no claim reads
    # H or H*, so no claim needs a meet
    def refuse(p, q):
        raise AssertionError("meet called")

    monkeypatch.setattr(relations, "meet", refuse)
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

    for s in corpus3:  # each new table empties the claims' caches
        built.clear()
        sys.setprofile(profile)
        try:
            for claim in REGISTRY.values():
                claim.evaluate(s, Options())
        finally:
            sys.setprofile(None)
        assert set(built) <= {s} | {variants.variant(s, a) for a in s.elements}, s.table
        assert len(built) == len(set(built)), s.table


def test_each_derived_object_is_built_once_a_table(monkeypatch, corpus3):
    # C-3.4 builds each S^u/lambda^u and its isomorphism with uS; C-3.5 and
    # C-FHT read them, C-4.2 reads the S^e that C-2.1 built, and C-2.6
    # evaluates its premise once per U.  On the order-6 null semigroup all
    # 203 partitions are congruences, and C-3.4's S^u/lambda^u is C-3.1's
    # S/universal
    null6 = build_semigroup(6, [[0] * 6] * 6)
    built, claim = [], [None]

    def counted(name, build):
        def wrapper(*args):
            built.append((name, claim[0], args))
            return build(*args)
        return wrapper

    monkeypatch.setattr(claims, "quotient", counted("quotient", congruences.quotient))
    monkeypatch.setattr(claims, "are_isomorphic", counted("iso", congruences.are_isomorphic))
    monkeypatch.setattr(variants, "variant", counted("variant", variants.variant))
    premise_code = inspect.unwrap(claims._unabundant).__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is premise_code:
            args = frame.f_locals
            built.append(("unabundant", claim[0],
                          (args["v"], frozenset(args["us"]), args["opts"].strict_u)))

    def builders(name):
        return {cid for n, cid, _ in built if n == name}

    for opts in (Options(), Options(strict_u=True)):
        for s in (*corpus3, null6):  # each new table empties the claims' caches
            built.clear()
            sys.setprofile(profile)
            try:
                for claim[0], c in REGISTRY.items():
                    c.evaluate(s, opts)
            finally:
                sys.setprofile(None)
            keys = [(name, key) for name, _, key in built]
            assert len(keys) == len(set(keys)), s.table
            assert builders("quotient") <= {"C-3.1", "C-3.4"}, s.table
            assert builders("iso") <= {"C-3.4", "C-3.5"}, s.table
            assert builders("variant") == {"C-2.1"}, s.table
            premises = {(s, frozenset(us), opts.strict_u) for us in claims.u_subsets(s)}
            assert premises <= {key for name, key in keys if name == "unabundant"}, s.table
            if s is null6:
                assert sum(name == "quotient" for name, _ in keys) == 203


def test_every_claims_cache_is_unbounded_and_scoped():
    # no cache size to tune: each cache of either side holds the one table
    # being evaluated or rechecked, the recheck's parse of its key too
    caches = {name: v for module in (claims, literal) for name, v in vars(module).items()
              if hasattr(v, "cache_parameters")}
    assert all(c.cache_parameters()["maxsize"] is None for c in caches.values())
    assert sorted(map(id, caches.values())) == sorted(map(id, claims._CACHES))


def test_a_new_table_empties_the_caches(null2, z2):
    for claim in REGISTRY.values():
        claim.evaluate(null2, Options())
    assert claims._quotient.cache_info().currsize > 0
    evaluate_claim("C-2.5", z2)  # reads no quotient
    assert claims._quotient.cache_info().currsize == 0
    assert claims._variant.cache_info().currsize == 1  # S^0 of z2
    evaluate_claim("C-2.5", z2)  # the same table keeps its objects
    assert claims._variant.cache_info().hits == 1


def _quotient_with_a_wrong_entry(s, p):
    q = congruences.quotient(s, p)
    rows = [list(row) for row in q.table]
    rows[0][0] = (rows[0][0] + 1) % q.order
    return FiniteSemigroup(q.order, tuple(map(tuple, rows)))


def test_c31_catches_a_quotient_that_is_not_well_defined(tmp_path, monkeypatch):
    # a quotient whose table breaks the projection must show up as C-3.1
    # welldef FAILS that the re-checker confirms, not as a crash
    for module in (claims, literal):
        monkeypatch.setattr(module, "quotient", _quotient_with_a_wrong_entry)
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

    monkeypatch.setattr(literal, "all_congruences", wrong)
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


def test_c31_confirms_a_refused_partition_with_its_own_kind(corpus3):
    # a refused record is confirmed exactly when its partition is literally
    # no congruence and its kind is the one congruence_kind names
    kinds = (congruences.KIND_NONE, congruences.KIND_LEFT, congruences.KIND_RIGHT,
             congruences.KIND_TWO_SIDED)
    seen = set()
    for s in corpus3:
        for ci in literal._partitions_lit(s.order):
            kind = congruences.congruence_kind(s, Equivalence.from_keys(s.order, ci))
            seen.add(kind)
            for named in kinds:
                r = _c31_failure(s, {"part": "refused", "partition": list(ci), "kind": named})
                assert recheck_result(r) == (named == kind != kinds[-1]), (r, kind)
    assert seen == set(kinds)


def test_the_quotient_recheckers_confirm_the_tables_production_built(monkeypatch, corpus3):
    # with no isomorphism found on either side, every instance of C-3.4,
    # C-3.5 and C-FHT fails with the tables production built; the literal
    # side numbers them alike, so each record is confirmed, and refused
    # with its two tables swapped or one of them junk
    monkeypatch.setattr(claims, "are_isomorphic", lambda a, b: None)
    monkeypatch.setattr(literal, "_iso_exists_lit", lambda ta, tb: False)
    names = {"C-3.4": ("quotient", "image"), "C-3.5": ("quotient_a", "quotient_b"),
             "C-FHT": ("quotient", "image")}
    confirmed = refused = 0
    for s in corpus3:
        for cid, (a, b) in names.items():
            for r in evaluate_claim(cid, s):
                w = r.witness
                assert r.status == STATUS_FAILS and set(w) == {a, b}, r
                assert recheck_result(r), r
                confirmed += 1
                for forged in ({a: w[b], b: w[a]}, {a: w[a], b: "junk"}, {a: "junk", b: w[b]}):
                    if forged != w:
                        assert not recheck_result(dataclasses.replace(r, witness=forged)), r
                        refused += 1
    assert confirmed > 500 and refused > 1000


def test_cfund_confirms_forced_failures_and_refuses_forged_witnesses(monkeypatch):
    corpus = full_corpus(2, 3)
    real = congruences.fundamental_among
    for module in (congruences, claims):
        monkeypatch.setattr(module, "fundamental_among", lambda s, cs: not real(s, cs))
    fails = [r for s in corpus for r in evaluate_claim("C-FUND", s)]
    assert len(fails) == 121 and {r.status for r in fails} == {STATUS_FAILS}
    assert all(recheck_result(r) for r in fails)
    # the partition named is the first separating literal congruence, as
    # the evaluator names it, so a later one is refused
    later = 0
    for r in fails:
        s, named = parse_inline(r.table), r.witness["witness_partition"]
        es = literal._idems_lit(s.table)
        for p in map(list, literal._lit_congruences(s)):
            if named is not None and p != named and literal._separating_lit(p, es):
                forged = {**r.witness, "witness_partition": p}
                assert not recheck_result(dataclasses.replace(r, witness=forged)), (r.table, p)
                later += 1
    assert later > 0
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
        literal._lit_congruences(t3)
    fails = [r for rs in results.values() for r in rs if r.status == STATUS_FAILS]
    # the re-checkers confirm them; recheck_result refuses a key of an
    # order check never writes before it parses the key
    assert fails and all(REGISTRY[r.claim_id].recheck(t3, r.params, r.witness, Options())
                         for r in fails)
    with pytest.raises(OrderTooLarge, match="order 27 exceeds the configured bound 6"):
        recheck_result(fails[0])
