"""Claim results and line-delimited report serialization.

A report is UTF-8 JSON lines: one record per claim result, with fields
claim_id / table / params / status / witness, followed by a single
summary record carrying tallies, corpus description, configuration,
tool version, and a timestamp.  Apart from the timestamp the output is a
pure function of the inputs.  Records are sorted by claim id, then table
key, then params (``ClaimResult.sort_key``).  ``record_line`` and
``summary_line`` are the one serialization of each line.  ``record_line``
writes the record's keys in sorted order around its JSON-escaped claim
id, status and table and its params and witness, which one encoder built
at import encodes, so a line is the bytes ``_encode`` gives the record.
``add_tallies`` is the one count of statuses, shared by ``Report.dumps``
and the streaming writer in ``runner``.  On the way in, ``read_summary``
checks the summary line and ``read_records`` is the one reader of record
lines, shared by ``Report.loads`` and ``semivar recheck``; both hold one
line at a time.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

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

#: the fields every record line carries, and their types
_RECORD_FIELDS = {"claim_id": str, "table": str, "params": dict, "status": str}

#: the fields of the summary line, and their types
_SUMMARY_FIELDS = {"tallies": dict, "corpus": dict, "config": dict,
                   "version": str, "timestamp": str}

#: compact JSON with sorted keys, the encoding of every report line
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _ENCODER.encode
#: _ENCODER's C encoder, built once: _ENCODER.encode builds a new one per
#: call.  It returns the chunks of its argument's encoding.  It keeps no
#: markers, so it does not look for cycles: a record is a tree.
_encode_chunks = c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)
#: the decoder's C scanner: (the value at a position, its end), or StopIteration
_scan_once = json.JSONDecoder().scan_once


@dataclass
class ClaimResult:
    claim_id: str
    table: str
    params: dict
    status: str
    witness: dict | None = None

    def sort_key(self) -> tuple[str, str, str]:
        """(claim id, table key, params encoded as the report line encodes
        them): the order the writer sorts its lines in."""
        return (self.claim_id, self.table, "".join(_encode_chunks(self.params, 0)))

    @classmethod
    def from_record(cls, rec: dict) -> "ClaimResult":
        """The result a decoded record line holds; ValueError when a field
        is missing or of the wrong type."""
        if type(rec) is dict:  # a decoded line: its values have exact types
            claim_id, table, params, status, witness = map(rec.get, (*_RECORD_FIELDS, "witness"))
            if (type(claim_id) is type(table) is type(status) is str and type(params) is dict
                    and status in _TALLY_FIELDS and (witness is None or type(witness) is dict)):
                return cls(claim_id, table, params, status, witness)
        if not isinstance(rec, dict):
            raise ValueError("a record must be a JSON object")
        for name, kind in _RECORD_FIELDS.items():
            if not isinstance(rec.get(name), kind):
                raise ValueError(f"record field {name!r} is missing or not a {kind.__name__}")
        if rec["status"] not in _TALLY_FIELDS:
            raise ValueError(f"unknown status {rec['status']!r}")
        witness = rec.get("witness")
        if witness is not None and not isinstance(witness, dict):
            raise ValueError("record field 'witness' is not an object")
        return cls(rec["claim_id"], rec["table"], rec["params"], rec["status"], witness)


def record_line(r: ClaimResult) -> str:
    """The report line of one result, without its newline:
    ``_encode(dataclasses.asdict(r))``, built from its parts."""
    return (f'{{"claim_id":{encode_basestring_ascii(r.claim_id)},'
            f'"params":{"".join(_encode_chunks(r.params, 0))},'
            f'"status":{encode_basestring_ascii(r.status)},'
            f'"table":{encode_basestring_ascii(r.table)},'
            f'"witness":{"".join(_encode_chunks(r.witness, 0))}}}')


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


def _decoded(line: str):
    """json.loads(line), by the C scanner alone where it decodes the whole line."""
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:  # leading whitespace, a byte order mark or no value
        return json.loads(line)
    return json.loads(line) if line[end:].strip(" \t\n\r") else value


def read_records(lines: Iterable[str]) -> Iterator[ClaimResult]:
    """The result of each record line of lines, numbered from 1.  Blank
    lines are skipped; a line that is not a record raises ValueError
    naming its number."""
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        try:
            result = ClaimResult.from_record(_decoded(line))
        except json.JSONDecodeError as err:  # its own line number is always 1
            raise ValueError(f"line {lineno}: not a report record: {err.msg} "
                             f"at column {err.pos + 1}") from None
        except (RecursionError, ValueError) as err:  # RecursionError: nested too deep
            raise ValueError(f"line {lineno}: not a report record: {err}") from None
        yield result


def read_summary(line: str, lineno: int) -> dict:
    """The summary record of a report from its last line, line lineno."""
    try:
        summary = json.loads(line)
    except (RecursionError, ValueError) as err:
        raise ValueError(f"line {lineno}: not a report record: {err}") from None
    if not isinstance(summary, dict) or "tallies" not in summary:
        raise ValueError("report is missing its summary record")
    for name, kind in _SUMMARY_FIELDS.items():
        if not isinstance(summary.get(name), kind):
            raise ValueError(f"summary field {name!r} is missing or not a {kind.__name__}")
    return summary


def _lines(text: str, stop: int) -> Iterator[str]:
    """The lines of text[:stop], sliced out one at a time."""
    start = 0
    while start < stop:
        end = text.find("\n", start, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        start = end + 1


class _Records:
    """The records of a report text, decoded afresh each time it is
    iterated; the text is shared, never copied."""

    __slots__ = ("_text", "_stop")

    def __init__(self, text: str, stop: int) -> None:
        self._text = text
        self._stop = stop

    def __iter__(self) -> Iterator[ClaimResult]:
        return read_records(_lines(self._text, self._stop))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _Records)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class Report:
    corpus: dict
    config: dict
    #: a list, or the view Report.loads gives, which decodes its records
    #: each time it is iterated
    results: Iterable[ClaimResult]
    version: str = __version__
    timestamp: str = field(default_factory=_utcnow)

    def dumps(self) -> str:
        lines = [record_line(r) for r in self.results]
        lines.append(summary_line(add_tallies({}, self.results), self.corpus, self.config,
                                  self.version, self.timestamp))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Report":
        """The report in text.  The summary (the last non-blank line) is
        decoded and checked here; the records are decoded, and a bad one
        raises, only when results is iterated."""
        end = len(text)
        while end and text[end - 1].isspace():
            end -= 1
        if not end:
            raise ValueError("empty report")
        start = text.rfind("\n", 0, end) + 1
        summary = read_summary(text[start:end], text.count("\n", 0, start) + 1)
        return cls(
            corpus=summary["corpus"],
            config=summary["config"],
            results=_Records(text, start),
            version=summary["version"],
            timestamp=summary["timestamp"],
        )
