"""The corpus runner: claim selection, result ordering, hard failures,
and the streaming report writer behind ``semivar check``, in one process
and in a pool of workers.  The worker count is the number of CPUs in the
affinity mask, so the tests set it by patching os.sched_getaffinity."""

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import semivar
from semivar import cli, runner
from semivar.claims import HARD_CLAIM_IDS, REGISTRY, Options, UnknownClaim
from semivar.core import OrderTooLarge
from semivar.enumeration import CorpusSpec
from semivar.report import STATUS_FAILS, Report
from semivar.runner import resolve_claim_ids, run_corpus

SRC = Path(semivar.__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


#: the affinity masks of a run in one process and of a pool of two workers
CPU_SETS = ({0}, {0, 1})


def _cpus(monkeypatch, cpus):
    """Make the runner see cpus as this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


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
def test_report_matches_golden_digest(monkeypatch, strict_u):
    # pins every claim's statuses and witnesses, not just run-to-run
    # determinism: an evaluator rewrite must reproduce these bytes
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        report = run_corpus(CorpusSpec(orders=(1, 2, 3)), "all", Options(strict_u=strict_u))
        report.timestamp = ""
        digest = hashlib.sha256(report.dumps().encode()).hexdigest()
        assert digest == GOLDEN_REPORTS[strict_u], cpus


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check(tmp_path, *argv):
    """(exit code, report text) of semivar check --out; text is None when
    no report was written.  A run that hangs, say on a worker's result,
    fails after two minutes."""
    out = tmp_path / "report.jsonl"
    out.unlink(missing_ok=True)
    with _deadline(120):
        code = cli.main(["check", *argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def _blank_timestamp(text):
    lines = text.split("\n")
    summary = json.loads(lines[-2])
    summary["timestamp"] = ""
    lines[-2] = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines)


def _digest(path):
    """sha256 of the report at path with its timestamp blanked, read a line
    at a time."""
    digest = hashlib.sha256()
    with path.open() as lines:
        last = next(lines)
        for line in lines:
            digest.update(last.encode())
            last = line
    digest.update(_blank_timestamp(last).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("strict_u", [False, True])
def test_cli_report_matches_golden_digest(tmp_path, monkeypatch, strict_u):
    argv = ["--orders", "1,2,3", "--claims", "all"] + ["--strict-u"] * strict_u
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        code, text = _check(tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(_blank_timestamp(text).encode()).hexdigest()
        assert digest == GOLDEN_REPORTS[strict_u], cpus


@pytest.mark.parametrize("argv, chunk_tables", [
    (["--orders", "4", "--claims", "C-2.6-inter,C-4.1-reverse"], runner.CHUNK_TABLES),
    (["--orders", "5", "--dedup", "--claims", "C-2.5"], runner.CHUNK_TABLES),
    # 8 tables a chunk, so that the 50 tables make 7 chunks, the last cut short
    (["--orders", "3,4", "--limit", "50", "--claims", "all"], 8),
])
def test_reports_are_the_same_at_every_job_count(tmp_path, monkeypatch, argv, chunk_tables):
    monkeypatch.setattr(runner, "CHUNK_TABLES", chunk_tables)
    reports = []
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        code, text = _check(tmp_path, *argv)
        assert code == 0
        reports.append(_blank_timestamp(text))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cpus, orders, pooled", [
    ({0}, "2,3", False),
    ({0, 1}, "2,3", True),   # 121 tables: 16 chunks of 8
    ({0, 1}, "2", False),    # 8 tables: one chunk
])
def test_a_pool_runs_only_on_several_cpus_and_chunks(tmp_path, monkeypatch,
                                                     cpus, orders, pooled):
    def refused(stack, workers):
        raise RuntimeError(f"a pool of {workers} workers")

    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(runner, "CHUNK_TABLES", 8)
    monkeypatch.setattr(runner, "_pool", refused)
    if pooled:
        with pytest.raises(RuntimeError, match="a pool of 2 workers"):
            _check(tmp_path, "--orders", orders, "--claims", "C-2.5")
    else:
        assert _check(tmp_path, "--orders", orders, "--claims", "C-2.5")[0] == 0


def test_the_parent_keys_no_table_when_a_pool_runs(tmp_path, monkeypatch):
    # the workers key, order-check and count their own chunks
    parent, key = os.getpid(), runner.inline_table

    def in_a_worker(s):
        assert os.getpid() != parent, "the parent keyed a table"
        return key(s)

    _cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(runner, "inline_table", in_a_worker)
    code, text = _check(tmp_path, "--orders", "2,3", "--claims", "C-2.5")
    assert code == 0
    assert json.loads(text.splitlines()[-1])["corpus"]["tables"] == {"2": 8, "3": 113}


def test_a_run_without_hard_failures_decodes_no_record(tmp_path, monkeypatch):
    def refused(lines):
        raise AssertionError("a record was decoded")

    monkeypatch.setattr(runner, "read_records", refused)
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        code, text = _check(tmp_path, "--orders", "1,2,3", "--claims", "all")
        assert code == 0
        digest = hashlib.sha256(_blank_timestamp(text).encode()).hexdigest()
        assert digest == GOLDEN_REPORTS[False], cpus


def test_importing_the_cli_starts_no_process_machinery():
    # the pool's imports wait for a run that uses one
    probe = ("import sys, semivar, semivar.cli\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
    tables = list(runner.iter_corpus(CorpusSpec(orders=(2, 3))))
    late = tables[:-2] + tables[:-3:-1]  # the last two swapped
    # 4 tables a chunk: the late swap is found while workers run
    monkeypatch.setattr(runner, "CHUNK_TABLES", 4)
    for arrival in (tables[::-1], late):
        monkeypatch.setattr(runner, "iter_corpus", lambda spec: iter(arrival))
        for cpus in CPU_SETS:
            _cpus(monkeypatch, cpus)
            code, text = _check(tmp_path, "--orders", "2,3", "--claims", "C-2.5")
            assert code == 1
            assert text is None
            assert capsys.readouterr().err.startswith("error: table ")


def _forced_to_fail(claim):
    def evaluate(s, opts, table=None):
        return [dataclasses.replace(r, status=STATUS_FAILS, witness={"forced": 1})
                for r in claim.evaluate(s, opts, table)]
    return dataclasses.replace(claim, evaluate=evaluate)


def test_hard_failures_are_reported_in_report_order(tmp_path, capsys, monkeypatch):
    for cid in ("C-2.5", "C-1.1"):
        monkeypatch.setitem(REGISTRY, cid, _forced_to_fail(REGISTRY[cid]))
    # 4 tables a chunk: the first ten failures come from several chunks
    monkeypatch.setattr(runner, "CHUNK_TABLES", 4)
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        # asked for first, order 3 still arrives and reports after order 2
        code, text = _check(tmp_path, "--orders", "3,2", "--claims",
                            "C-2.5,C-1.1,C-4.1-reverse")
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
    for cpus in CPU_SETS:
        _cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError):
            _check(tmp_path, "--orders", "2,3", "--claims", "C-2.1,C-2.5")
        assert not (tmp_path / "report.jsonl").exists()


def test_a_domain_error_in_a_worker_reaches_the_parent(tmp_path, capsys, monkeypatch):
    claim = REGISTRY["C-2.5"]
    parent = os.getpid()

    def evaluate(s, opts, table=None):
        if s.order == 3:
            assert os.getpid() != parent  # raised in a worker
            raise OrderTooLarge(7, 6)
        return claim.evaluate(s, opts, table)

    monkeypatch.setitem(REGISTRY, "C-2.5", dataclasses.replace(claim, evaluate=evaluate))
    _cpus(monkeypatch, {0, 1})
    code, text = _check(tmp_path, "--orders", "2,3", "--claims", "C-2.5")
    assert code == 1
    assert text is None
    assert capsys.readouterr().err == "error: order 7 exceeds the configured bound 6\n"
    assert multiprocessing.active_children() == []


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


def test_check_memory_is_flat_in_corpus_size(tmp_path, monkeypatch):
    # tracemalloc sees this process only, so it must be the one evaluating
    _cpus(monkeypatch, {0})
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


def _peak_rss_in_child(timeout, *argv):
    """(peak RSS in MB, output) of `semivar ARGV`, run by a fresh
    interpreter whose only child is the command.  RUSAGE_CHILDREN is the
    peak of the largest single waited-for descendant: the command, or one
    of its pool workers, whichever is larger.  The command must exit 0;
    its stdout and stderr are the output."""
    measure = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call(sys.argv[1:], stdout=sys.stderr)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", measure, sys.executable, "-m", "semivar", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024, proc.stderr


def _check_in_child(tmp_path, timeout, *argv):
    """(peak RSS in MB, report path) of semivar check --out in a child."""
    out = tmp_path / "report.jsonl"
    return _peak_rss_in_child(timeout, "check", *argv, "--out", str(out))[0], out


@pytest.mark.slow
def test_order5_classes_run_in_flat_memory(tmp_path):
    peak_mb, out = _check_in_child(
        tmp_path, 900, "--orders", "5", "--dedup", "--claims", "all")
    with out.open() as lines:
        for records, last in enumerate(lines):  # records: the lines before the summary
            pass
    tallies = json.loads(last)["tallies"]
    assert records == sum(sum(t.values()) for t in tallies.values()) == 253185
    assert _digest(out) == "2484606f83182520b899a1e81fe2bef780b646ffcd7417a2f01a39ad6e8e52bb"
    assert sum(t["fails"] for cid, t in tallies.items() if cid in HARD_CLAIM_IDS) == 0
    assert peak_mb < 100, peak_mb


# sha256 of the order-4 report over all claims, timestamp blanked
ORDER4_REPORTS = {
    False: "9156137d7fd5a47cb181b5c5daebe5f47ecb951d2dac7525c685cb1ae374376a",
    True: "e1f1fe0d2321762c177b023bba47453362788e2a426d94b4aa786ae093015bff",
}


@pytest.mark.slow
@pytest.mark.parametrize("strict_u", [False, True])
def test_order4_report_matches_golden_digest(tmp_path, strict_u):
    # the labeled order-4 corpus, 3,492 tables and 373,370 records a run
    argv = ["--orders", "4", "--claims", "all"] + ["--strict-u"] * strict_u
    _, out = _check_in_child(tmp_path, 600, *argv)
    assert _digest(out) == ORDER4_REPORTS[strict_u]


@pytest.mark.slow
def test_recheck_confirms_the_order5_classes_report_in_flat_memory(tmp_path):
    # the widest recheck: 69,436 FAILS witnesses of the 8 claims that fail at order 5
    _, out = _check_in_child(tmp_path, 900, "--orders", "5", "--dedup", "--claims", "all")
    peak_mb, output = _peak_rss_in_child(900, "recheck", str(out))
    assert output == "253185 records in order, 69436 FAILS witnesses confirmed, tallies match\n"
    assert peak_mb < 40, peak_mb


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


@pytest.mark.slow
def test_recheck_reads_the_order4_report_in_flat_memory(tmp_path):
    # the 7 claims with FAILS at order 4: 180,588 records, 27 MB of JSONL
    observed = ("C-2.2-composition", "C-2.2-quantifier", "C-2.3-literal", "C-2.6-inter",
                "C-2.6-sandwich", "C-4.1-reverse", "C-NONCONG")
    _, out = _check_in_child(tmp_path, 600, "--orders", "4", "--claims", ",".join(observed))
    assert out.stat().st_size > 25_000_000
    assert _peak_rss_in_child(600, "recheck", str(out))[0] < 40
