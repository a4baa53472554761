"""Tests of the benchmark itself: span arithmetic, metric names,
wrapper removal and the output checks."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import spans

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_synthetic_nest():
    rec = spans.Recorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, root)
    rec.add("a.child", 2.0, 3.0, a)
    rec.add("b", 5.0, 8.0, root)
    rec.add("c", 7.0, 9.0, root)        # overlaps b: the union counts once
    rec.add("d", 9.5, 11.0, root)       # only [9.5, 10] lies inside root
    summary = rec.summarize()
    assert summary["root"] == (1, pytest.approx(10 - 3 - 4 - 0.5))
    assert summary["a"] == (1, pytest.approx(2.0))
    assert summary["a.child"] == (1, pytest.approx(1.0))
    assert summary["b"] == (1, pytest.approx(3.0))
    assert summary["c"] == (1, pytest.approx(2.0))
    assert summary["d"] == (1, pytest.approx(1.5))


def test_self_time_ignores_recording_order():
    rec = spans.Recorder()
    rec.add("late", 6.0, 7.0, 1)
    rec.add("parent", 5.0, 9.0)
    rec.add("early", 5.5, 6.5, 1)
    assert rec.summarize()["parent"] == (1, pytest.approx(4.0 - 1.5))


def test_wrapped_calls_nest_and_self_times_add_up():
    rec = spans.Recorder()

    def inner(x):
        return sum(range(x))

    wrapped_inner = rec.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x)

    assert rec.wrap("outer", outer)(10_000) == 2 * sum(range(10_000))
    summary = rec.summarize()
    assert summary["inner"][0] == 2 and summary["outer"][0] == 1
    assert list(rec.parent) == [-1, 0, 0]
    total = rec.end[0] - rec.start[0]
    assert summary["outer"][1] + summary["inner"][1] == pytest.approx(total)


def test_every_metric_name_is_valid():
    expected = checks.load_expected()
    names = [name for name, _, _ in layers.per_layer_spec(expected)]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_the_traced_metrics():
    expected = checks.load_expected()
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == layers.per_layer_spec(expected)
    assert len({name for name, _, _ in listed}) == len(listed) <= 128


def _bindings():
    """Identity snapshot of every binding the instrumentation may replace."""
    import semivar.claims as claims

    snap = {}
    for mod in spans._semivar_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = id(value)
    for layer, cls_name, attr in spans.METHODS:
        cls = getattr(sys.modules[f"semivar.{layer}"], cls_name)
        snap[(cls_name, attr)] = id(cls.__dict__[attr])
    for cid, claim in claims.REGISTRY.items():
        snap[("REGISTRY", cid)] = id(claim)
    return snap


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import semivar.cli as cli

    before = _bindings()
    rec = spans.Recorder()
    patches = spans.instrument(rec)
    try:
        assert _bindings() != before
        assert cli.main(["check", "--orders", "2", "--out", str(tmp_path / "r.jsonl")]) == 0
    finally:
        patches.restore()
    assert _bindings() == before
    summary = rec.summarize()
    assert summary["cli.main"][0] == 1
    assert summary["core.build_semigroup"][0] > 0
    assert summary["claims.eval.C-1.1"][0] == 8          # once per table of order 2
    assert rec.counters["enumeration.tables_generated"] == 8
    calls = len(rec)
    cli.main(["check", "--orders", "2", "--out", str(tmp_path / "r.jsonl")])
    assert len(rec) == calls                               # nothing records now


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    import semivar.cli as cli

    out = tmp_path_factory.mktemp("report") / "r.jsonl"
    assert cli.main(["check", "--orders", "2,3", "--out", str(out)]) == 0
    return out.read_text()


def test_checks_accept_a_reordered_report(small_report):
    expected = checks.report_facts(small_report)
    lines = small_report.split("\n")[:-1]
    records, summary = lines[:-1], json.loads(lines[-1])
    random.Random(0).shuffle(records)
    summary["timestamp"] = "1970-01-01T00:00:00Z"
    text = "\n".join(records + [json.dumps(summary)]) + "\n"
    assert checks.check_report(text, expected)[1] == []


@pytest.mark.parametrize("tamper", ["status", "drop", "tallies", "truncate"])
def test_checks_reject_a_tampered_report(small_report, tamper):
    expected = checks.report_facts(small_report)
    lines = small_report.split("\n")[:-1]
    if tamper == "status":
        i = next(i for i, line in enumerate(lines) if '"status":"HOLDS"' in line)
        lines[i] = lines[i].replace('"status":"HOLDS"', '"status":"FAILS"')
    elif tamper == "drop":
        del lines[0]
    elif tamper == "tallies":
        summary = json.loads(lines[-1])
        summary["tallies"]["C-1.2"]["holds"] += 1
        lines[-1] = json.dumps(summary)
    else:
        lines = lines[:-1]
    assert checks.check_report("\n".join(lines) + "\n", expected)[1]


def test_checks_reject_a_tampered_listing():
    expected = checks.load_expected()["enum-iso4"]
    assert checks.check_listing("0 0 0 0;0 0 0 0;0 0 0 0;0 0 0 0\n", expected)[1]


def test_run_refuses_a_directory_without_semivar(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "enum-iso4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_tmp").exists()
