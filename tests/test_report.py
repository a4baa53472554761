"""JSONL report serialization and tallies."""

import collections
import dataclasses
import itertools
import json
import tracemalloc

import pytest

from semivar.claims import REGISTRY, Options
from semivar.report import (
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_NOT_APPLICABLE,
    ClaimResult,
    Report,
    read_records,
    record_line,
)

from .conftest import full_corpus


def _dumped(r: ClaimResult) -> str:
    """The record line as json.dumps writes the record."""
    return json.dumps(dataclasses.asdict(r), sort_keys=True, separators=(",", ":"))


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
    # the FAILS records, with their claim ids and witnesses, survive a round trip
    report = Report.loads(sample_report().dumps())
    ces = [r for r in report.results if r.status == STATUS_FAILS]
    assert [r.claim_id for r in ces] == ["C-4.1-reverse"]
    assert ces[0].witness["f"] == 1


def test_result_record_round_trip():
    r = ClaimResult("C-1.1", "1;0", {}, STATUS_HOLDS)
    assert ClaimResult.from_record(dataclasses.asdict(r)) == r


def test_sort_key_orders_by_claim_then_table_then_params():
    a = ClaimResult("C-1.1", "1;0", {}, STATUS_HOLDS)
    b = ClaimResult("C-1.1", "2;0 0;1 1", {"a": 0}, STATUS_HOLDS)
    c = ClaimResult("C-1.1", "2;0 0;1 1", {"a": 1}, STATUS_HOLDS)
    d = ClaimResult("C-2.1", "1;0", {}, STATUS_HOLDS)
    assert sorted([d, c, b, a], key=lambda r: r.sort_key()) == [a, b, c, d]
    # the params as the report line encodes them
    assert b.sort_key()[2] == '{"a":0}'


def test_results_iterate_twice_with_equal_results():
    report = Report.loads(sample_report().dumps())
    first = list(report.results)
    assert first == list(report.results) == sample_report().results


def test_a_bad_record_raises_when_results_are_iterated():
    lines = sample_report().dumps().split("\n")
    lines[1] = lines[1][:20]  # a truncated record line
    report = Report.loads("\n".join(lines))  # the summary is still checked here
    assert report.corpus["tables"] == {"2": 8}
    with pytest.raises(ValueError, match="^line 2: not a report record"):
        list(report.results)


@pytest.mark.parametrize("name", ["claim_id", "table", "params", "status"])
def test_a_record_missing_a_field_names_its_line(name):
    lines = sample_report().dumps().split("\n")
    record = json.loads(lines[2])
    del record[name]
    lines[2] = json.dumps(record)
    report = Report.loads("\n".join(lines))
    with pytest.raises(ValueError, match=f"^line 3: .*'{name}' is missing"):
        list(report.results)


def test_from_record_refuses_a_field_of_another_type():
    rec = dataclasses.asdict(sample_report().results[3])
    for name, kind in (("claim_id", "str"), ("table", "str"), ("params", "dict"), ("status", "str")):
        for value in (None, True, 1, 1.5, [], "x" if kind == "dict" else {}):
            with pytest.raises(ValueError, match=f"^record field '{name}' is missing or not a {kind}$"):
                ClaimResult.from_record({**rec, name: value})
    for value in (True, 1, "x", []):
        with pytest.raises(ValueError, match="^record field 'witness' is not an object$"):
            ClaimResult.from_record({**rec, "witness": value})
    # a subclass of dict is a record too
    assert ClaimResult.from_record(collections.OrderedDict(rec)) == ClaimResult(**rec)


def test_a_record_with_an_unknown_status_names_its_line():
    text = sample_report().dumps().replace('"HOLDS"', '"MAYBE"', 1)
    with pytest.raises(ValueError, match="^line 2: .*unknown status 'MAYBE'"):
        list(Report.loads(text).results)


def test_loads_refuses_a_summary_without_its_fields():
    lines = sample_report().dumps().split("\n")
    summary = json.loads(lines[-2])
    del summary["version"]
    lines[-2] = json.dumps(summary)
    with pytest.raises(ValueError, match="'version' is missing"):
        Report.loads("\n".join(lines))


#: a JSON array nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def test_a_deeply_nested_line_names_its_line():
    lines = sample_report().dumps().split("\n")
    fails = lines[3].replace('"witness":{', f'"witness":{{"deep":{DEEP},')
    report = Report.loads("\n".join([*lines[:3], fails, *lines[4:]]))
    with pytest.raises(ValueError, match="^line 4: not a report record: maximum recursion"):
        list(report.results)
    lines[4] = lines[4].replace('"config":{', f'"config":{{"deep":{DEEP},')  # the summary
    with pytest.raises(ValueError, match="^line 5: not a report record: maximum recursion"):
        Report.loads("\n".join(lines))


def test_blank_lines_are_skipped_and_counted():
    text = "\n" + sample_report().dumps().replace("\n", "\n\n", 1) + "\n\n"
    report = Report.loads(text)
    assert report == sample_report()
    broken = text.replace('"C-2.5"', "C-2.5", 1)  # the record on line 4
    with pytest.raises(ValueError, match="^line 4: "):
        list(Report.loads(broken).results)


def test_loads_reads_a_large_text_in_place():
    # records are decoded one at a time from slices of the text: nothing
    # near the text's size is allocated, at loads or while iterating
    text = sample_report().dumps()
    cut = text.rindex("\n", 0, -1) + 1  # where the summary line starts
    text = text[:cut] * 5000 + text[cut:]
    tracemalloc.start()
    try:
        report = Report.loads(text)
        assert sum(1 for _ in report.results) == 4 * 5000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 100_000, peak


@pytest.mark.parametrize("strict_u", [False, True])
def test_record_line_is_the_dumped_record_on_every_result(strict_u):
    opts = Options(strict_u=strict_u)
    statuses = set()
    for s in full_corpus(1, 2, 3):
        for claim in REGISTRY.values():
            for r in claim.evaluate(s, opts):
                assert record_line(r) == _dumped(r)
                statuses.add(r.status)
    assert statuses == {STATUS_HOLDS, STATUS_FAILS, STATUS_NOT_APPLICABLE}


@pytest.mark.parametrize("result", [
    # nested lists, bools and None
    ClaimResult("C-3.1", "2;0 0;0 0", {"U": [0, 1]}, STATUS_FAILS,
                {"only_production": [[0, 1], []], "flag": True, "none": None,
                 "no": False, "nested": {"b": [None, [True]], "a": 1}}),
    # a string with a quote, a backslash, a control character and non-ASCII text
    ClaimResult('C-"x"\\y', "t\u0001ab\n", {"s": "é→\"\\\t"}, "S\u00ff",
                {"text": "ü ∀ \U0001f600 \x7f"}),
    # params whose keys were inserted out of order
    ClaimResult("C-2.6-inter", "1;0", {"e": 0, "U": [0], "b": 2, "a": 1}, STATUS_HOLDS),
    ClaimResult("C", "", {}, STATUS_NOT_APPLICABLE, {"z": 0, "Z": 1, "_": 2, "10": 3, "9": 4}),
])
def test_record_line_is_the_dumped_record_on_crafted_records(result):
    assert record_line(result) == _dumped(result)
    assert json.loads(record_line(result)) == dataclasses.asdict(result)


def test_record_line_refuses_an_unserializable_witness():
    for witness in ({"x": object()}, {"x": {1, 2}}, {"x": [b"bytes"]}):
        with pytest.raises(TypeError):
            record_line(ClaimResult("C-2.5", "1;0", {"e": 0}, STATUS_FAILS, witness))
    with pytest.raises(TypeError):
        record_line(ClaimResult("C-2.5", "1;0", {"e": object()}, STATUS_HOLDS))


def _read_by_json_loads(line: str) -> str:
    """What read_records gives for line as the one record of a report, as
    ClaimResult.from_record(json.loads(line)) decides it: the reference of
    its scanner path."""
    if not line or line.isspace():
        return "[]"
    try:
        return repr([ClaimResult.from_record(json.loads(line))])
    except json.JSONDecodeError as err:
        return f"line 1: not a report record: {err.msg} at column {err.pos + 1}"
    except (RecursionError, ValueError) as err:
        return f"line 1: not a report record: {err}"


def _read(line: str) -> str:
    try:
        return repr(list(read_records([line])))
    except ValueError as err:
        return str(err)


def _crafted_lines() -> list[str]:
    good = record_line(sample_report().results[3])
    rec = json.loads(good)
    lines = [
        good, good + "\n", good + "\r", good + "\r\n", " " + good, "\t" + good + " ",
        good + "\x0b", "\x0b" + good, good + "\u00a0", "\ufeff" + good,  # not JSON whitespace
        "", " ", "\r", "{}", "{}{}", good + good, good + " x", "[1]", "1", "NaN", "null", '"s"',
        good[:-5], good[:1], good.replace('"f":1', '"f":1,'),  # truncated, a stray comma
        good.replace('"C-4.1-reverse"', '"C-\\x"'),  # a bad escape
        good.replace('"f":1', '"f":NaN'), good.replace('"f":1', '"f":-Infinity'),
        good.replace('{"claim_id":', '{"claim_id":"C-2.5","claim_id":'),  # duplicate keys
        good.replace('"witness":{', '"witness":{"deep":' + DEEP + ","),
        "[" * 100_000,
    ]
    for name in ("claim_id", "table", "params", "status", "witness"):
        for value in (None, True, 1, 1.5, "x", [], {}, "HOLDS"):
            lines.append(json.dumps({**rec, name: value}))
        lines.append(json.dumps({k: v for k, v in rec.items() if k != name}))
    return lines


def test_read_records_decodes_a_line_as_json_loads_does():
    lines = _crafted_lines()
    for line in lines:
        assert _read(line) == _read_by_json_loads(line), line[:80]
    # results, skipped lines, decoder errors and field errors alike
    assert len({_read(line) for line in lines}) > 20


def test_read_records_reads_interleaved_lines_as_it_reads_each():
    # good lines and crafted ones in one input, so the typed path and the
    # path that names a fault take turns: the input yields what its lines
    # yield one at a time, and a line that is no record, put anywhere in
    # it, stops the read at that line's number
    good = [record_line(r) for r in sample_report().results]
    crafted = {line: _read(line) for line in _crafted_lines()}
    fine = [line for line, read in crafted.items() if not read.startswith("line 1: ")]
    bad = [line for line, read in crafted.items() if read.startswith("line 1: ")]
    lines = [line for pair in zip(itertools.cycle(good), fine) for line in pair]
    assert len(fine) > 10 and len(bad) > 40
    yielded = [r for line in lines for r in read_records([line])]
    assert list(read_records(lines)) == yielded
    for i, line in enumerate(bad):
        cut = i * 7 % (len(lines) + 1)
        got = []
        with pytest.raises(ValueError) as err:
            got.extend(read_records([*lines[:cut], line, *lines[cut:]]))
        assert got == [r for line in lines[:cut] for r in read_records([line])]
        assert str(err.value) == crafted[line].replace("line 1: ", f"line {cut + 1}: ", 1)
