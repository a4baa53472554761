"""One measured process: import semivar from the checkout, time one
operation of a workload, check its output and print a JSON line.

Usage (run.py starts it; PYTHONPATH must name the checkout's src/):

    python3 perfbench/worker.py TASK --tmp DIR [--input FILE] [--trace]

TASK is a workload name or ``build-recheck-input``.  The timed region
excludes interpreter start and ``import semivar``.  Each process runs its
operation once, so lru_caches and RSS start cold, as they do for a user.
With --trace the operation runs under the span recorder and the
per-layer metrics are printed with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent

CHECK_ARGS = ["check", "--orders", "4", "--claims", "all"]
ENUM_ARGS = ["enumerate", "--order", "4", "--dedup"]


def _import_semivar():
    import semivar
    import semivar.cli

    where = Path(semivar.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"semivar was imported from {where}, not from {ROOT / 'src'}")
    return semivar.cli


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timed:
    """Wall seconds of the block it wraps."""

    def __enter__(self):
        self.wall_s = -time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter()


def _op(timed, tables, results, attempted, problems, failed=None):
    return {
        "wall_s": timed.wall_s,
        "tables": tables,
        "results": results,
        "attempted": attempted,
        "failed": len(problems) if failed is None else failed,
        "problems": problems,
    }


def op_check(cli, args, expected):
    out = Path(args.tmp) / "check-o4.jsonl"
    with _Timed() as timed:
        code = cli.main(CHECK_ARGS + ["--out", str(out)])
    rss = _peak_rss_mb()
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    facts, problems = checks.check_report(text, expected["check-o4"])
    if code != 0:
        problems.append(f"semivar check exited {code}")
    # one operation: the CLI call, failed when any check fails
    return _op(timed, facts["tables"], facts["records"], 1, problems,
               failed=int(bool(problems))), rss


def op_enum(cli, args, expected):
    buf = io.StringIO()
    with _Timed() as timed, contextlib.redirect_stdout(buf):
        code = cli.main(ENUM_ARGS)
    rss = _peak_rss_mb()
    facts, problems = checks.check_listing(buf.getvalue(), expected["enum-iso4"])
    if code != 0:
        problems.append(f"semivar enumerate exited {code}")
    lines = facts["lines"]
    return _op(timed, lines, lines, 1, problems, failed=int(bool(problems))), rss


def op_recheck(cli, args, expected):
    from semivar import claims
    from semivar.report import STATUS_FAILS, Report

    want = expected["recheck-o4"]
    path = Path(args.input)
    with _Timed() as timed:
        report = Report.loads(path.read_text())
        rechecked = confirmed = 0
        tables = set()
        for result in report.results:
            if result.status == STATUS_FAILS:
                rechecked += 1
                tables.add(result.table)
                confirmed += claims.recheck_result(result)
    rss = _peak_rss_mb()
    # one operation per witness: an unconfirmed witness is a failed one
    unconfirmed = rechecked - confirmed
    problems = []
    if unconfirmed:
        problems.append(f"{unconfirmed} of {rechecked} witnesses not confirmed")
    if rechecked != want["witnesses"]:
        problems.append(f"{rechecked} witnesses rechecked, the seed has {want['witnesses']}")
    missing = max(want["witnesses"] - rechecked, 0)
    return _op(timed, len(tables), confirmed, rechecked + missing, problems,
               failed=unconfirmed + missing), rss


def build_recheck_input(cli, args, expected):
    """Write the report recheck-o4 loads: order 4, the claims with FAILS."""
    want = expected["recheck-o4"]["input"]
    out = Path(args.input)
    t0 = time.perf_counter()
    code = cli.main(["check", "--orders", "4", "--claims", ",".join(sorted(want["fails"])),
                     "--out", str(out)])
    build_s = time.perf_counter() - t0
    _, problems = checks.check_report(out.read_text() if out.exists() else "", want)
    if code != 0:
        problems.append(f"semivar check exited {code}")
    return {"build_s": build_s, "attempted": 1, "failed": int(bool(problems)),
            "problems": problems}


OPS = {"check-o4": op_check, "enum-iso4": op_enum, "recheck-o4": op_recheck}


def measure(cli, args, expected) -> dict:
    result, rss = OPS[args.task](cli, args, expected)
    return {"op": result, "peak_rss_mb": rss}


def measure_traced(cli, args, expected) -> dict:
    import layers
    import spans

    rec = spans.Recorder()
    caches_before = spans.cache_counts()
    patches = spans.instrument(rec)
    try:
        result, rss = OPS[args.task](cli, args, expected)
    finally:
        patches.restore()
    caches = {
        name: (hits - caches_before[name][0], misses - caches_before[name][1])
        for name, (hits, misses) in spans.cache_counts().items()
    }
    values = layers.per_layer_values(rec.summarize(), rec.counters, caches)
    return {"op": result, "peak_rss_mb": rss, "per_layer": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("task", choices=sorted(OPS) + ["build-recheck-input"])
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--input")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    expected = checks.load_expected()
    cli = _import_semivar()
    if args.task == "build-recheck-input":
        out = build_recheck_input(cli, args, expected)
    elif args.trace:
        out = measure_traced(cli, args, expected)
    else:
        out = measure(cli, args, expected)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
