"""The command line interface: exit codes, determinism, output shapes."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semivar
from semivar import FiniteSemigroup, claims, congruences, variants
from semivar.cli import main
from semivar.relations import Equivalence
from semivar.report import STATUS_FAILS, Report

SRC = Path(semivar.__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "2", "--count-only")
    assert code == 0
    assert out == "8\n"


def test_enumerate_lists_tables(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "2")
    lines = out.strip().split("\n")
    assert code == 0
    assert len(lines) == 8
    assert lines[0] == "2;0 0;0 0"


def test_enumerate_dedup(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--order", "2", "--dedup", "--count-only"
    )
    assert code == 0
    assert out == "5\n"


def test_enumerate_rejects_large_order(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "6", "--count-only")
    assert code == 1
    assert "error" in err


def test_enumerate_rejects_order_zero(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "0", "--count-only")
    assert code == 1
    assert err == "error: orders must be positive, got 0\n"


def test_check_emits_report(capsys):
    code, out, err = run_cli(
        capsys, "check", "--orders", "2", "--claims", "C-2.5,C-3.4"
    )
    assert code == 0
    report = Report.loads(out)
    assert report.corpus["tables"] == {"2": 8}
    assert report.config["claims"] == ["C-2.5", "C-3.4"]
    assert all(r.status == "HOLDS" for r in report.results)


def test_check_observed_failures_exit_zero(capsys):
    code, out, err = run_cli(
        capsys, "check", "--orders", "2", "--claims", "C-4.1-reverse"
    )
    assert code == 0
    report = Report.loads(out)
    assert {r.claim_id for r in report.results if r.status == STATUS_FAILS} == {"C-4.1-reverse"}


def test_check_unknown_claim(capsys):
    code, out, err = run_cli(capsys, "check", "--claims", "C-0.0")
    assert code == 1
    assert "unknown claim" in err


def test_check_bad_orders(capsys):
    code, out, err = run_cli(capsys, "check", "--orders", "2,x")
    assert code == 1


def test_check_is_deterministic(capsys):
    def stripped():
        code, out, _ = run_cli(
            capsys, "check", "--orders", "2", "--claims", "all"
        )
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])
        del summary["timestamp"]
        return lines[:-1], summary

    first = stripped()
    second = stripped()
    assert first == second


def test_check_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, out, err = run_cli(
        capsys, "check", "--orders", "2", "--claims", "C-2.5",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    report = Report.loads(out_path.read_text())
    assert report.corpus["orders"] == [2]


def test_check_runs_as_a_module(tmp_path):
    # the entry point in an interpreter of its own, not through main()
    out_path = tmp_path / "report.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "semivar.cli", "check", "--orders", "1,2",
         "--out", str(out_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *records, summary = out_path.read_text().splitlines()
    assert json.loads(summary)["corpus"]["tables"] == {"1": 1, "2": 8}
    assert len(records) == 412


def test_inspect_green_and_star(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("2\n0 0\n1 1\n")
    code, out, err = run_cli(capsys, "inspect", str(sgt))
    assert code == 0
    assert "order 2" in out
    assert "identity -" in out
    assert "idempotents 0 1" in out
    assert "L  {0,1}" in out
    assert "R  {0} {1}" in out
    assert "L* {0,1}" in out


@pytest.mark.parametrize("text,answer", [
    # the first order-4 table whose D* is not R*oL*
    ("4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 1 0\n", "no"),
    ("2\n0 0\n1 1\n", "yes"),
])
def test_inspect_star_composition_line(tmp_path, capsys, text, answer):
    sgt = tmp_path / "t.sgt"
    sgt.write_text(text)
    code, out, err = run_cli(capsys, "inspect", str(sgt), "--show", "star")
    assert code == 0
    assert f"D* is R*oL* = L*oR*: {answer}\n" in out


def test_inspect_tilde_and_congruences(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("2\n0 0\n0 1\n")
    code, out, err = run_cli(
        capsys, "inspect", str(sgt),
        "--show", "tilde:1,congruences,orders",
    )
    assert code == 0
    assert "L~[1] {0,1}" in out
    assert "congruence {0,1}" in out
    assert "congruence {0} {1}" in out
    assert "natural 0<=1" in out


def test_inspect_rejects_unknown_show(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("2\n0 0\n1 1\n")
    code, out, err = run_cli(capsys, "inspect", str(sgt), "--show", "matrix")
    assert code == 1


def test_inspect_missing_file(capsys):
    code, out, err = run_cli(capsys, "inspect", "no-such-file.sgt")
    assert code == 1


def test_inspect_bad_table(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("2\n1 0\n0 0\n")  # not associative
    code, out, err = run_cli(capsys, "inspect", str(sgt))
    assert code == 1
    assert "error" in err


def test_inspect_refuses_an_order_of_more_digits_than_int_converts(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("9" * 5000 + "\n0\n")
    code, out, err = run_cli(capsys, "inspect", str(sgt))
    assert code == 1
    assert err == "error: line 1, column 1: an order of 5000 digits exceeds 2 lines\n"


def test_inspect_refuses_order_zero_at_its_line(tmp_path, capsys):
    sgt = tmp_path / "t.sgt"
    sgt.write_text("0\n")
    code, out, err = run_cli(capsys, "inspect", str(sgt))
    assert code == 1
    assert err == "error: line 1, column 1: order must be positive, got 0\n"


def test_variant_prints_table(tmp_path, capsys):
    sgt = tmp_path / "z2.sgt"
    sgt.write_text("2\n0 1\n1 0\n")
    code, out, err = run_cli(capsys, "variant", str(sgt), "--at", "1")
    assert code == 0
    assert out == "2\n1 0\n0 1\n"


def test_variant_idempotent_only(tmp_path, capsys):
    sgt = tmp_path / "z2.sgt"
    sgt.write_text("2\n0 1\n1 0\n")
    code, out, err = run_cli(
        capsys, "variant", str(sgt), "--at", "1", "--idempotent-only"
    )
    assert code == 1
    assert "error" in err


def test_usage_error_exits_one(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "check" in out and "enumerate" in out


@pytest.mark.parametrize("strict_u", [False, True])
def test_recheck_confirms_a_check_report(capsys, cli_reports3, strict_u):
    code, out, err = run_cli(capsys, "recheck", str(cli_reports3[strict_u]))
    assert (code, err) == (0, "")
    fails = 1088 if strict_u else 1436
    assert out == f"8693 records in order, {fails} FAILS witnesses confirmed, tallies match\n"


def _flip_variants(monkeypatch):
    """Make variants.variant, where claims and orders look it up, return
    each S^a with entry (0, 0) moved to the next id."""
    build = variants.variant

    def flipped(s, a):
        rows = [list(row) for row in build(s, a).table]
        rows[0][0] = (rows[0][0] + 1) % s.order
        return FiniteSemigroup(s.order, tuple(map(tuple, rows)))

    monkeypatch.setattr(variants, "variant", flipped)


def _merge_lambda(monkeypatch):
    """Make claims.sandwich_lambda merge the classes of 0 and 1 from order 3."""
    build = congruences.sandwich_lambda

    def merged(s, u):
        ci = build(s, u).class_index
        keys = [ci[0] if c == ci[1] and s.order >= 3 else c for c in ci]
        return Equivalence.from_keys(s.order, keys)

    monkeypatch.setattr(claims, "sandwich_lambda", merged)


def _refuse_congruences(monkeypatch):
    """Make congruences.congruence_kind, which quotient consults, call
    every partition no congruence."""
    monkeypatch.setattr(congruences, "congruence_kind", lambda s, p: "none")


def _identity_isomorphisms(monkeypatch):
    """Make claims.are_isomorphic answer every query with the identity map."""
    monkeypatch.setattr(claims, "are_isomorphic", lambda a, b: tuple(range(a.order)))


def _every_element_idempotent(monkeypatch):
    """Make claims._idem, which the U-domains read, return every element."""
    monkeypatch.setattr(claims, "_idem", lambda s: frozenset(s.elements))


@pytest.mark.parametrize("fault, failing", [
    (_flip_variants, {"C-2.1", "C-2.5", "C-FHT"}),
    (_merge_lambda, {"C-3.2", "C-3.4"}),
    (_refuse_congruences, {"C-3.1", "C-3.4", "C-3.5", "C-FHT"}),
    (_identity_isomorphisms, {"C-3.4", "C-3.5", "C-FHT"}),
    (_every_element_idempotent, {"C-INCL", "C-1.4"}),
])
def test_a_production_fault_is_a_fails_the_recheck_refuses(
        tmp_path, capsys, monkeypatch, fault, failing):
    # a fault in the code a hard claim checks gives a whole report whose
    # FAILS the literal recheck refuses, not a crash and not a HOLDS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fault(monkeypatch)
    out = tmp_path / "report.jsonl"
    code, _, err = run_cli(capsys, "check", "--orders", "2,3", "--claims", "all",
                           "--out", str(out))
    assert code == 2, err
    report = Report.loads(out.read_text())
    assert failing <= {r.claim_id for r in report.results if r.status == STATUS_FAILS}
    code, _, err = run_cli(capsys, "recheck", str(out))
    problems = err.splitlines()
    assert code == 2
    assert problems[:-1] and all(p.endswith(": witness not confirmed") for p in problems[:-1])


def _tampered(tmp_path, source, edit):
    """A copy of the report at source whose lines edit has changed in place."""
    lines = source.read_text().split("\n")
    edit(lines)
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(lines))
    return path


def _edit_record(lines, index, change):
    record = json.loads(lines[index])
    change(record)
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))


def _first_fails(lines, claim_id):
    return next(i for i, line in enumerate(lines)
                if f'"claim_id":"{claim_id}"' in line and '"FAILS"' in line)


def _wrong_witness(lines):
    # C-4.1-reverse's witness is an idempotent f of S^e not below e
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r["witness"].update(f=r["params"]["e"]))


def _negative_id(lines):
    # y - n and y pick the same row of the table
    i = _first_fails(lines, "C-2.2-quantifier")
    _edit_record(lines, i, lambda r: r["witness"].update(
        y=r["witness"]["y"] - int(r["table"].split(";")[0])))


def _wrong_product(lines):
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r["witness"].update(
        ff=(r["witness"]["ff"] + 1) % int(r["table"].split(";")[0])))


def _bool_ids(lines):
    # the left-zero band 2;0 0;1 1 at e = 0; True == 1 would pass for f = 1
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r["witness"].update(f=True, ff=True, fe=True))


def _float_ids(lines):
    # the left-zero band 2;0 0;1 1 at e = 0; 0.0 == 0 would pass for ef = 0
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r["witness"].update(ef=0.0))


def _witness_without_a_field(lines):
    i = _first_fails(lines, "C-NONCONG")
    _edit_record(lines, i, lambda r: r["witness"].pop("z"))


def _unknown_relation(lines):
    # a name that is neither an L nor an R relation was decided as an L one
    i = _first_fails(lines, "C-2.6-inter")
    _edit_record(lines, i, lambda r: r["witness"].update(relation="X~"))


def _unknown_side(lines):
    i = _first_fails(lines, "C-2.3-literal")
    _edit_record(lines, i, lambda r: r["witness"].update(side="X"))


def _wrong_tally(lines):
    _edit_record(lines, -2, lambda s: s["tallies"]["C-2.5"].update(holds=0))


def _swapped(lines):
    lines[0], lines[1] = lines[1], lines[0]


def _other_version(lines):
    _edit_record(lines, -2, lambda s: s.update(version="0.0.0"))


@pytest.mark.parametrize("edit, message", [
    (_wrong_witness, "C-4.1-reverse on .* witness not confirmed"),
    (_negative_id, "C-2.2-quantifier on .* witness not confirmed"),
    (_wrong_product, "C-4.1-reverse on .* witness not confirmed"),
    (_bool_ids, "C-4.1-reverse on 2;0 0;1 1 params={'e': 0}: witness not confirmed"),
    (_float_ids, "C-4.1-reverse on 2;0 0;1 1 params={'e': 0}: witness not confirmed"),
    (_witness_without_a_field, "C-NONCONG on .* witness not confirmed"),
    (_unknown_relation, "C-2.6-inter on .* witness not confirmed"),
    (_unknown_side, "C-2.3-literal on .* witness not confirmed"),
    (_wrong_tally, "C-2.5: the summary tallies .*'holds': 0"),
    (_swapped, "C-1.1 on 1;0 params={} does not follow the record before it$"),
    (_other_version, "the report is from semivar 0.0.0, this is "),
])
def test_recheck_finds_a_tampered_report(tmp_path, capsys, cli_reports3, edit, message):
    path = _tampered(tmp_path, cli_reports3[False], edit)
    code, out, err = run_cli(capsys, "recheck", str(path))
    assert code == 2
    assert out == ""
    problem, count = err.splitlines()
    assert re.match(message, problem), problem
    assert count == "1 problem(s)"


def _truncated(lines):
    lines[5] = lines[5][:40]


def _garbled(lines):
    lines[5] = "not json"


def _missing_status(lines):
    _edit_record(lines, 5, lambda r: r.pop("status"))


def _no_summary(lines):
    del lines[-2]


def _not_a_semigroup(lines):
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r.update(table="2;1 0;0 0"))


def _too_large(lines):
    # the left-zero band of order 7: check writes no table above order 6
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r.update(
        table=";".join(["7"] + [" ".join([str(x)] * 7) for x in range(7)])))


def _huge_order(lines):
    # an order of 5,000 digits, past the 4,300 that int() converts
    i = _first_fails(lines, "C-4.1-reverse")
    _edit_record(lines, i, lambda r: r.update(table="9" * 5000 + ";0"))


def _alias_key(lines):
    # a failure copied under a key that parses to the same table, and counted
    i = _first_fails(lines, "C-4.1-reverse")  # on 2;0 0;1 1 at e = 0, then e = 1
    record = json.loads(lines[i])
    record["table"] += ";# x"
    lines.insert(i + 2, json.dumps(record, sort_keys=True, separators=(",", ":")))
    _edit_record(lines, -2, lambda s: s["tallies"]["C-4.1-reverse"].update(
        fails=s["tallies"]["C-4.1-reverse"]["fails"] + 1))


@pytest.mark.parametrize("edit, message", [
    (_alias_key, "C-4.1-reverse on 2;0 0;1 1;# x: line 1, column 10: "
                 "the key of this table is '2;0 0;1 1'"),
    (_truncated, "line 6: not a report record: Expecting ':' delimiter"),
    (_garbled, "line 6: not a report record: Expecting value at column 1"),
    (_missing_status, "line 6: not a report record: record field 'status' is missing"),
    (_no_summary, "report is missing its summary record"),
    (_not_a_semigroup, "C-4.1-reverse on 2;1 0;0 0: (x.y).z != x.(y.z)"),
    (_too_large, "C-4.1-reverse: a table of order 7 exceeds the configured bound 6"),
    (_huge_order, "9999 exceeds the configured bound 6"),
])
def test_recheck_refuses_malformed_input(tmp_path, capsys, cli_reports3, edit, message):
    path = _tampered(tmp_path, cli_reports3[False], edit)
    code, out, err = run_cli(capsys, "recheck", str(path))
    assert code == 1
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("field", ['"witness":{', '"config":{'])
def test_recheck_refuses_a_deeply_nested_line(tmp_path, capsys, cli_reports3, field):
    # a FAILS record's witness, or the summary, holds a 100,000-deep array
    lines = cli_reports3[False].read_text().split("\n")
    i = _first_fails(lines, "C-4.1-reverse") if "witness" in field else len(lines) - 2
    lines[i] = lines[i].replace(field, field + '"deep":' + "[" * 100_000 + "]" * 100_000 + ",")
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines))
    code, out, err = run_cli(capsys, "recheck", str(path))
    assert (code, out) == (1, "")
    assert re.fullmatch(f"error: line {i + 1}: not a report record: "
                        "maximum recursion depth exceeded[^\n]*\n", err), err


def test_recheck_refuses_an_empty_or_missing_report(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n\n")
    assert run_cli(capsys, "recheck", str(empty)) == (1, "", "error: empty report\n")
    code, out, err = run_cli(capsys, "recheck", str(tmp_path / "missing.jsonl"))
    assert code == 1 and err.startswith("error: ")


def test_package_runs_as_a_module(cli_reports3):
    proc = subprocess.run(
        [sys.executable, "-m", "semivar", "recheck", str(cli_reports3[True])],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("8693 records in order")
