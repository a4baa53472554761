"""The acceptance gate: one test per shipping criterion.

Each test prints a single ``[acceptance] criterion N: PASS`` line on
success (visible with ``pytest -s`` or in verbose test listings), and
the suite fails loudly if any criterion regresses.
"""

import json
import time

from semivar.claims import HARD_CLAIM_IDS, evaluate_claim, recheck_result
from semivar.cli import main
from semivar.core import build_semigroup, is_regular
from semivar.enumeration import CorpusSpec, enumerate_semigroups, iter_corpus
from semivar.relations import green, star
from semivar.report import STATUS_FAILS
from semivar.runner import run_corpus
from semivar.sgt import parse_table, serialize_table
from semivar.variants import variant
from semivar.congruences import all_congruences, quotient

from .oracles import naive_tables, recount_labeled

HARD_SUITE = sorted(HARD_CLAIM_IDS)

OBSERVED_SUITE = ["C-2.3-literal", "C-2.6-inter", "C-2.6-sandwich", "C-3.5"]


def _announce(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n}: PASS ({text})")


def test_criterion_1_enumeration_counts():
    expected = {1: 1, 2: 8, 3: 113}
    t0 = time.time()
    for n, count in expected.items():
        got = []
        assert enumerate_semigroups(n, got.append) == count
        assert got == list(naive_tables(n))
    small_elapsed = time.time() - t0
    assert small_elapsed < 1.0, f"orders <= 3 took {small_elapsed:.2f}s"

    t0 = time.time()
    produced = enumerate_semigroups(4, lambda t: None)
    elapsed = time.time() - t0
    assert produced == recount_labeled(4) == 3492
    assert elapsed < 60.0, f"order 4 took {elapsed:.1f}s"
    _announce(1, f"counts 1/8/113/3492, order 4 in {elapsed:.2f}s")


def test_criterion_2_hard_claims_are_clean():
    report = run_corpus(CorpusSpec(orders=(1, 2, 3)), HARD_SUITE)
    assert sum(report.corpus["tables"].values()) == 122
    bad = [r for r in report.results if r.status == STATUS_FAILS]
    assert bad == [], bad[:3]

    t0 = time.time()
    report4 = run_corpus(CorpusSpec(orders=(4,)), HARD_SUITE)
    elapsed = time.time() - t0
    bad4 = [r for r in report4.results if r.status == STATUS_FAILS]
    assert bad4 == [], bad4[:3]
    assert elapsed < 600.0, f"order 4 suite took {elapsed:.0f}s"
    _announce(
        2, f"all {len(HARD_SUITE)} hard claims clean through order 4 in {elapsed:.1f}s"
    )


def test_criterion_2_hard_claims_are_clean_on_order5_classes(classes5):
    # one table per isomorphism class suffices: tests/test_invariance.py
    # checks that every claim's statuses survive relabeling
    t0 = time.time()
    results = [r for s in classes5 for cid in HARD_SUITE for r in evaluate_claim(cid, s)]
    elapsed = time.time() - t0
    assert len(classes5) == 1915
    assert len(results) == 123639
    bad = [r for r in results if r.status == STATUS_FAILS]
    assert bad == [], bad[:3]
    _announce(
        2, f"all {len(HARD_SUITE)} hard claims clean on the 1915 order-5 classes"
        f" in {elapsed:.1f}s"
    )


def test_criterion_3_reverse_inclusion_counterexample():
    report = run_corpus(CorpusSpec(orders=(2,)), ["C-4.1-reverse"])
    fails = [r for r in report.results if r.status == STATUS_FAILS]
    assert fails
    left_zero = [
        r for r in fails
        if r.table == "2;0 0;1 1" and r.params == {"e": 0}
    ]
    assert len(left_zero) == 1
    assert left_zero[0].witness["f"] == 1
    _announce(3, f"{len(fails)} order-2 counterexamples incl. left-zero f=1")


def test_criterion_4_observed_witnesses_recheck():
    report = run_corpus(CorpusSpec(orders=(1, 2, 3)), OBSERVED_SUITE)
    fails = [r for r in report.results if r.status == STATUS_FAILS]
    for r in fails:
        assert r.witness is not None, (r.claim_id, r.table, r.params)
        assert recheck_result(r), (r.claim_id, r.table, r.params, r.witness)
    _announce(4, f"{len(fails)} observed failures, all witnesses confirmed")


def test_criterion_5_star_collapses_on_regular_tables():
    regular_count = 0
    for s in iter_corpus(CorpusSpec(orders=(1, 2, 3))):
        if is_regular(s):
            regular_count += 1
            g = green(s)
            st = star(s)
            assert g.l == st.l_star, s.table
            assert g.r == st.r_star, s.table
        for r in evaluate_claim("C-1.3", s):
            assert r.status != STATUS_FAILS, (s.table, r.witness)
    assert regular_count == 57
    _announce(5, f"{regular_count} regular tables, characterizations agree")


def test_criterion_6_reports_are_deterministic(capsys):
    def one_run():
        assert main(["check", "--orders", "2,3", "--claims", "all"]) == 0
        out = capsys.readouterr().out
        lines = out.split("\n")
        summary = json.loads(lines[-2])
        del summary["timestamp"]
        return lines[:-2], json.dumps(summary, sort_keys=True)

    assert one_run() == one_run()
    _announce(6, "byte-identical reports modulo timestamp")


def test_criterion_7_round_trips():
    seen = 0
    for s in iter_corpus(CorpusSpec(orders=(1, 2, 3), limit=100)):
        seen += 1
        assert parse_table(serialize_table(s)) == s
        # variant and quotient outputs go back through full validation
        rebuilt = build_semigroup(s.order, variant(s, 0).table)
        assert rebuilt.table == variant(s, 0).table
        congruences = all_congruences(s)
        q = quotient(s, congruences[0])
        assert build_semigroup(q.order, q.table) == q
    assert seen == 100
    _announce(7, "100 tables round-trip and re-validate")
