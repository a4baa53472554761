"""Output checks: digests of reports and listings against the seed's.

The expected values live in ``expected.json`` beside this file.  They
were recorded from the seed commit named there; every mismatch is
returned as a problem string and counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def report_facts(text: str) -> dict:
    """Order-insensitive facts about a JSONL report.

    The digest covers the sorted record lines and the summary record
    without its timestamp, so record order and run time do not matter.
    """
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValueError("empty report")
    records = lines[:-1]
    summary = json.loads(lines[-1])
    if not isinstance(summary, dict) or "tallies" not in summary:
        raise ValueError("the last line is not a summary record")
    summary.pop("timestamp", None)
    h = hashlib.sha256()
    for line in sorted(records):
        h.update(line.encode())
        h.update(b"\n")
    h.update(json.dumps(summary, sort_keys=True, separators=(",", ":")).encode())
    return {
        "records": len(records),
        "tables": sum(summary.get("corpus", {}).get("tables", {}).values()),
        "tallies": summary["tallies"],
        "digest": h.hexdigest(),
    }


def check_report(text: str, expected: dict) -> tuple[dict, list[str]]:
    """(facts, problems) of a report against an entry of expected.json."""
    try:
        facts = report_facts(text)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        return {"records": 0, "tables": 0}, [f"unreadable report: {err}"]
    return facts, [
        f"report {key} differs from the seed's"
        for key in ("records", "tables", "tallies", "digest")
        if facts[key] != expected[key]
    ]


def listing_facts(text: str) -> dict:
    """Line count and order-insensitive digest of a one-table-per-line listing."""
    lines = sorted(line for line in text.split("\n") if line)
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return {"lines": len(lines), "digest": h.hexdigest()}


def check_listing(text: str, expected: dict) -> tuple[dict, list[str]]:
    """(facts, problems) of a listing against an entry of expected.json."""
    facts = listing_facts(text)
    return facts, [
        f"listing {key} differs from the seed's"
        for key in ("lines", "digest")
        if facts[key] != expected[key]
    ]
