"""The corpus runner: claim selection, result ordering, hard failures,
and the streaming report writer behind ``semivar check``."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import semivar
from semivar import cli, runner
from semivar.claims import HARD_CLAIM_IDS, REGISTRY, Options, UnknownClaim
from semivar.enumeration import CorpusSpec
from semivar.report import STATUS_FAILS, Report
from semivar.runner import resolve_claim_ids, run_corpus

SRC = Path(semivar.__file__).resolve().parent.parent


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


def test_run_corpus_respects_limit():
    report = run_corpus(CorpusSpec(orders=(2,), limit=3), ["C-2.5"])
    assert report.corpus["tables"] == {"2": 3}
    assert report.corpus["limit"] == 3


def test_run_corpus_orders_are_sorted():
    # the limit counts from the smallest order, whatever order is asked first
    report = run_corpus(CorpusSpec(orders=(3, 2), limit=10), ["C-2.5"])
    assert report.corpus["orders"] == [2, 3]
    assert report.corpus["tables"] == {"2": 8, "3": 2}


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


def _check(tmp_path, *argv):
    """(exit code, report text) of semivar check --out; text is None when
    no report was written."""
    out = tmp_path / "report.jsonl"
    out.unlink(missing_ok=True)
    code = cli.main(["check", *argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def _blank_timestamp(text):
    lines = text.split("\n")
    summary = json.loads(lines[-2])
    summary["timestamp"] = ""
    lines[-2] = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines)


@pytest.mark.parametrize("strict_u", [False, True])
def test_cli_report_matches_golden_digest(tmp_path, strict_u):
    argv = ["--orders", "1,2,3", "--claims", "all"] + ["--strict-u"] * strict_u
    code, text = _check(tmp_path, *argv)
    assert code == 0
    digest = hashlib.sha256(_blank_timestamp(text).encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[strict_u]


def test_report_order_is_independent_of_arrival_order(tmp_path):
    reports = {}
    for orders in ("2,3", "3,2", "2,2", "2"):
        code, text = _check(tmp_path, "--orders", orders, "--claims", "all")
        assert code == 0
        reports[orders] = _blank_timestamp(text)
    assert reports["3,2"] == reports["2,3"]
    # a repeated order is dropped: the same corpus, summary included
    assert reports["2,2"] == reports["2"]


def test_tables_out_of_report_order_are_refused(tmp_path, capsys, monkeypatch):
    tables = list(runner.iter_corpus(CorpusSpec(orders=(2,))))
    monkeypatch.setattr(runner, "iter_corpus", lambda spec: reversed(tables))
    code, text = _check(tmp_path, "--orders", "2", "--claims", "C-2.5")
    assert code == 1
    assert text is None
    assert capsys.readouterr().err.startswith("error: ")


def _forced_to_fail(claim):
    def evaluate(s, opts, table=None):
        return [dataclasses.replace(r, status=STATUS_FAILS, witness={"forced": 1})
                for r in claim.evaluate(s, opts, table)]
    return dataclasses.replace(claim, evaluate=evaluate)


def test_hard_failures_are_reported_in_report_order(tmp_path, capsys, monkeypatch):
    for cid in ("C-2.5", "C-1.1"):
        monkeypatch.setitem(REGISTRY, cid, _forced_to_fail(REGISTRY[cid]))
    # asked for first, order 3 still arrives and reports after order 2
    code, text = _check(tmp_path, "--orders", "3,2", "--claims", "C-2.5,C-1.1,C-4.1-reverse")
    assert code == 2
    failures = [r for r in Report.loads(text).results
                if r.status == STATUS_FAILS and r.claim_id in HARD_CLAIM_IDS]
    assert len(failures) > 10
    expected = [f"hard claim {r.claim_id} FAILS on {r.table} params={r.params}"
                for r in failures[:10]]
    expected.append(f"{len(failures)} hard-claim failure(s)")
    assert capsys.readouterr().err.splitlines() == expected


def test_a_raising_claim_leaves_no_report(tmp_path, monkeypatch):
    claim = REGISTRY["C-2.5"]

    def evaluate(s, opts, table=None):
        if s.order == 3:
            raise RuntimeError("claim broke")
        return claim.evaluate(s, opts, table)

    monkeypatch.setitem(REGISTRY, "C-2.5", dataclasses.replace(claim, evaluate=evaluate))
    with pytest.raises(RuntimeError):
        _check(tmp_path, "--orders", "2,3", "--claims", "C-2.1,C-2.5")
    assert not (tmp_path / "report.jsonl").exists()


def test_an_unwritable_out_path_is_refused_before_evaluation(tmp_path, capsys, monkeypatch):
    calls = []

    def evaluate(s, opts, table=None):
        calls.append(s)
        raise RuntimeError("claim ran")

    claim = dataclasses.replace(REGISTRY["C-2.5"], evaluate=evaluate)
    monkeypatch.setitem(REGISTRY, "C-2.5", claim)
    for out in (tmp_path / "missing" / "r.jsonl", tmp_path):
        argv = ["check", "--orders", "2", "--claims", "C-2.5", "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_check_memory_is_flat_in_corpus_size(tmp_path):
    argv = ["check", "--orders", "4", "--claims", "C-2.5", "--out", str(tmp_path / "r")]

    def peak(*limit):
        tracemalloc.start()
        try:
            assert cli.main(argv + list(limit)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first = peak("--limit", "600")
    every = peak()
    # what may grow is the enumerator's list of the order's tables:
    # under 1 KB a table.  Held records take about 2 KB a table here.
    assert every <= first + 1000 * (3492 - 600), (first, every)


def _check_in_child(tmp_path, timeout, *argv):
    """(peak RSS in MB, report path) of semivar check --out, run by
    a fresh interpreter whose only child is the check, so that
    RUSAGE_CHILDREN is the check's own peak."""
    measure = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    out = tmp_path / "report.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", measure, sys.executable, "-m", "semivar.cli", "check",
         *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024, out


@pytest.mark.slow
def test_order5_classes_run_in_flat_memory(tmp_path):
    peak_mb, out = _check_in_child(
        tmp_path, 900, "--orders", "5", "--dedup", "--claims", "all")
    with out.open() as lines:
        for records, last in enumerate(lines):  # records: the lines before the summary
            pass
    tallies = json.loads(last)["tallies"]
    assert records == sum(sum(t.values()) for t in tallies.values()) == 253185
    assert sum(t["fails"] for cid, t in tallies.items() if cid in HARD_CLAIM_IDS) == 0
    assert peak_mb < 100, peak_mb


@pytest.mark.slow
def test_order6_classes_hold_the_hard_claims(tmp_path):
    # 28,634 classes (A027851), the largest corpus the class cap admits
    peak_mb, out = _check_in_child(
        tmp_path, 1800, "--orders", "6", "--dedup", "--claims", ",".join(sorted(HARD_CLAIM_IDS)))
    with out.open() as lines:
        for last in lines:
            pass
    summary = json.loads(last)
    assert summary["corpus"]["tables"] == {"6": 28634}
    assert sum(t["fails"] for t in summary["tallies"].values()) == 0
    assert peak_mb < 100, peak_mb
