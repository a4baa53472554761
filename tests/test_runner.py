"""The corpus runner: claim selection, result ordering, exit codes."""

import hashlib

import pytest

import semivar
from semivar.claims import REGISTRY, Options, UnknownClaim
from semivar.enumeration import CorpusSpec
from semivar.report import STATUS_FAILS
from semivar.runner import (
    exit_code_for,
    hard_failures,
    resolve_claim_ids,
    run_corpus,
)


def test_resolve_claim_ids():
    assert resolve_claim_ids("all") == sorted(REGISTRY)
    assert resolve_claim_ids("C-2.5") == ["C-2.5"]
    assert resolve_claim_ids(["C-2.5", "C-1.1", "C-2.5"]) == ["C-1.1", "C-2.5"]
    with pytest.raises(UnknownClaim):
        resolve_claim_ids(["C-2.5", "nope"])


def test_run_corpus_counts_and_sorting():
    report = run_corpus(CorpusSpec(orders=(2,)), ["C-2.5", "C-2.1"])
    assert report.corpus["tables"] == {"2": 8}
    assert report.config["claims"] == ["C-2.1", "C-2.5"]
    assert report.version == semivar.__version__
    keys = [r.sort_key() for r in report.results]
    assert keys == sorted(keys)
    # 8 tables x 2 sandwich elements for C-2.1, plus one C-2.5 result
    # per idempotent
    assert sum(1 for r in report.results if r.claim_id == "C-2.1") == 16


def test_exit_codes_reflect_hard_failures():
    # observed failures alone keep the exit code at zero
    report = run_corpus(CorpusSpec(orders=(2,)), ["C-4.1-reverse"])
    assert any(r.status == STATUS_FAILS for r in report.results)
    assert hard_failures(report) == []
    assert exit_code_for(report) == 0

    clean = run_corpus(CorpusSpec(orders=(2,)), ["C-2.5"])
    assert exit_code_for(clean) == 0


def test_run_corpus_respects_limit():
    report = run_corpus(CorpusSpec(orders=(2,), limit=3), ["C-2.5"])
    assert report.corpus["tables"] == {"2": 3}
    assert report.corpus["limit"] == 3


# sha256 of the orders 1-3 report over all claims, timestamp blanked.
# Each run has 8,693 records; FAILS number 1,436 (lax) and 1,088 (strict).
GOLDEN_REPORTS = {
    False: "ef66f92e0c507ab357734122a342dd4991996843c72492093648595e4308df25",
    True: "b6702c9ffb0602bd2b9377b312d56933180b9f09efaee6aab1175a87f2ff424e",
}


@pytest.mark.parametrize("strict_u", [False, True])
def test_report_matches_golden_digest(strict_u):
    # pins every claim's statuses and witnesses, not just run-to-run
    # determinism: an evaluator rewrite must reproduce these bytes
    report = run_corpus(
        CorpusSpec(orders=(1, 2, 3)), "all", Options(strict_u=strict_u)
    )
    report.timestamp = ""
    digest = hashlib.sha256(report.dumps().encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[strict_u]
