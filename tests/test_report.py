"""JSONL report serialization and tallies."""

import json

import pytest

from semivar.report import (
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_NOT_APPLICABLE,
    ClaimResult,
    Report,
)


def sample_report():
    results = [
        ClaimResult("C-2.4", "2;0 0;1 1", {"a": 0}, STATUS_NOT_APPLICABLE),
        ClaimResult("C-2.5", "2;0 0;1 1", {"e": 0}, STATUS_HOLDS),
        ClaimResult("C-2.5", "2;0 0;1 1", {"e": 1}, STATUS_HOLDS),
        ClaimResult(
            "C-4.1-reverse", "2;0 0;1 1", {"e": 0}, STATUS_FAILS,
            witness={"f": 1, "ff": 1, "fe": 1, "ef": 0},
        ),
    ]
    return Report(
        corpus={"orders": [2], "dedup": "none", "limit": None,
                "tables": {"2": 8}},
        config={"claims": ["C-2.4", "C-2.5", "C-4.1-reverse"],
                "strict_u": False, "u_policy": "test"},
        results=results,
        timestamp="2026-01-01T00:00:00Z",
    )


def test_dumps_is_one_json_object_per_line():
    text = sample_report().dumps()
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert len(lines) == 5  # 4 results + summary
    for line in lines:
        json.loads(line)
        assert '", "' not in line and '": ' not in line  # compact separators


def test_summary_line_carries_tallies():
    report = sample_report()
    summary = json.loads(report.dumps().strip().split("\n")[-1])
    assert summary["tallies"]["C-2.5"] == {
        "holds": 2, "fails": 0, "not_applicable": 0,
    }
    assert summary["tallies"]["C-4.1-reverse"]["fails"] == 1
    assert summary["corpus"]["tables"] == {"2": 8}
    assert summary["version"] == report.version
    assert summary["timestamp"] == "2026-01-01T00:00:00Z"


def test_round_trip():
    report = sample_report()
    again = Report.loads(report.dumps())
    assert again == report


def test_loads_refuses_an_empty_report():
    with pytest.raises(ValueError, match="empty report"):
        Report.loads("")


def test_loads_refuses_a_report_without_its_summary():
    # a report cut before its summary ends on a result record
    text = sample_report().dumps()
    cut = text[: text.rstrip("\n").rindex("\n") + 1]
    with pytest.raises(ValueError, match="missing its summary record"):
        Report.loads(cut)


def test_counterexamples_and_failed_ids():
    report = sample_report()
    assert report.failed_claim_ids() == ["C-4.1-reverse"]
    ces = report.counterexamples()
    assert len(ces) == 1
    assert ces[0].witness["f"] == 1


def test_result_record_round_trip():
    r = ClaimResult("C-1.1", "1;0", {}, STATUS_HOLDS)
    assert ClaimResult.from_record(r.to_record()) == r


def test_sort_key_orders_by_claim_then_table_then_params():
    a = ClaimResult("C-1.1", "1;0", {}, STATUS_HOLDS)
    b = ClaimResult("C-1.1", "2;0 0;1 1", {"a": 0}, STATUS_HOLDS)
    c = ClaimResult("C-1.1", "2;0 0;1 1", {"a": 1}, STATUS_HOLDS)
    d = ClaimResult("C-2.1", "1;0", {}, STATUS_HOLDS)
    assert sorted([d, c, b, a], key=lambda r: r.sort_key()) == [a, b, c, d]
