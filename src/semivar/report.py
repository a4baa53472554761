"""Claim results and line-delimited report serialization.

A report is UTF-8 JSON lines: one record per claim result, with fields
claim_id / table / params / status / witness, followed by a single
summary record carrying tallies, corpus description, configuration,
tool version, and a timestamp.  Apart from the timestamp the output is a
pure function of the inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import __version__

STATUS_HOLDS = "HOLDS"
STATUS_FAILS = "FAILS"
STATUS_NOT_APPLICABLE = "NOT_APPLICABLE"


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


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class Report:
    corpus: dict
    config: dict
    results: list[ClaimResult]
    version: str = __version__
    timestamp: str = field(default_factory=_utcnow)

    def tallies(self) -> dict:
        out: dict[str, dict[str, int]] = {}
        key = {
            STATUS_HOLDS: "holds",
            STATUS_FAILS: "fails",
            STATUS_NOT_APPLICABLE: "not_applicable",
        }
        for r in self.results:
            t = out.setdefault(
                r.claim_id, {"holds": 0, "fails": 0, "not_applicable": 0}
            )
            t[key[r.status]] += 1
        return out

    def counterexamples(self) -> list[ClaimResult]:
        return [r for r in self.results if r.status == STATUS_FAILS]

    def failed_claim_ids(self) -> list[str]:
        return sorted({r.claim_id for r in self.counterexamples()})

    def dumps(self) -> str:
        lines = [
            json.dumps(r.to_record(), sort_keys=True, separators=(",", ":"))
            for r in self.results
        ]
        summary = {
            "tallies": self.tallies(),
            "corpus": self.corpus,
            "config": self.config,
            "version": self.version,
            "timestamp": self.timestamp,
        }
        lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
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
