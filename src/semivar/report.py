"""Claim results and line-delimited report serialization.

A report is UTF-8 JSON lines: one record per claim result, with fields
claim_id / table / params / status / witness, followed by a single
summary record carrying tallies, corpus description, configuration,
tool version, and a timestamp.  Apart from the timestamp the output is a
pure function of the inputs.  Records are sorted by claim id, then table
key, then params (``ClaimResult.sort_key``).  ``record_line`` and
``summary_line`` are the one serialization of each line, and
``add_tallies`` the one count of statuses, shared by ``Report`` and the
streaming writer in ``runner``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import __version__

STATUS_HOLDS = "HOLDS"
STATUS_FAILS = "FAILS"
STATUS_NOT_APPLICABLE = "NOT_APPLICABLE"

#: the summary's tally field of each status
_TALLY_FIELDS = {
    STATUS_HOLDS: "holds",
    STATUS_FAILS: "fails",
    STATUS_NOT_APPLICABLE: "not_applicable",
}

#: compact JSON with sorted keys, the encoding of every report line
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class ClaimResult:
    claim_id: str
    table: str
    params: dict
    status: str
    witness: dict | None = None

    def sort_key(self) -> tuple[str, str, str]:
        return (self.claim_id, self.table, json.dumps(self.params, sort_keys=True))

    def to_record(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "table": self.table,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ClaimResult":
        return cls(
            claim_id=rec["claim_id"],
            table=rec["table"],
            params=rec["params"],
            status=rec["status"],
            witness=rec.get("witness"),
        )


def record_line(r: ClaimResult) -> str:
    """The report line of one result, without its newline."""
    return _encode(r.to_record())


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def add_tallies(tallies: dict, results) -> dict:
    """Count results by status into tallies[claim_id], which a claim gets
    the first time it has a result; returns tallies."""
    for r in results:
        if r.claim_id not in tallies:
            tallies[r.claim_id] = dict.fromkeys(_TALLY_FIELDS.values(), 0)
        tallies[r.claim_id][_TALLY_FIELDS[r.status]] += 1
    return tallies


def summary_line(tallies: dict, corpus: dict, config: dict,
                 version: str = __version__, timestamp: str | None = None) -> str:
    """The last record of a report, without its newline.  tallies holds
    the claims that have at least one result; timestamp defaults to now."""
    return _encode({
        "tallies": tallies,
        "corpus": corpus,
        "config": config,
        "version": version,
        "timestamp": _utcnow() if timestamp is None else timestamp,
    })


@dataclass
class Report:
    corpus: dict
    config: dict
    results: list[ClaimResult]
    version: str = __version__
    timestamp: str = field(default_factory=_utcnow)

    def tallies(self) -> dict:
        return add_tallies({}, self.results)

    def counterexamples(self) -> list[ClaimResult]:
        return [r for r in self.results if r.status == STATUS_FAILS]

    def failed_claim_ids(self) -> list[str]:
        return sorted({r.claim_id for r in self.counterexamples()})

    def dumps(self) -> str:
        lines = [record_line(r) for r in self.results]
        lines.append(summary_line(self.tallies(), self.corpus, self.config,
                                  self.version, self.timestamp))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Report":
        lines = [line for line in text.split("\n") if line]
        if not lines:
            raise ValueError("empty report")
        summary = json.loads(lines[-1])
        if "tallies" not in summary:
            raise ValueError("report is missing its summary record")
        results = [ClaimResult.from_record(json.loads(line)) for line in lines[:-1]]
        return cls(
            corpus=summary["corpus"],
            config=summary["config"],
            results=results,
            version=summary["version"],
            timestamp=summary["timestamp"],
        )
