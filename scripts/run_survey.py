#!/usr/bin/env python3
"""Run the full claim suite over an exhaustive corpus and print a tally
table.  The JSONL report lands next to this script unless --out is
given.

Usage:
    python scripts/run_survey.py --orders 1,2,3
    python scripts/run_survey.py --orders 4 --dedup --out survey4.jsonl
"""

import argparse
import sys
import time
from pathlib import Path

from semivar.claims import HARD_CLAIM_IDS, Options
from semivar.enumeration import DEDUP_ISO, DEDUP_NONE, ENUMERATION_HARD_CAP, CorpusSpec
from semivar.runner import write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", default="1,2,3")
    ap.add_argument("--dedup", action="store_true")
    ap.add_argument("--strict-u", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    orders = tuple(int(tok) for tok in args.orders.split(","))
    spec = CorpusSpec(
        orders=orders,
        dedup=DEDUP_ISO if args.dedup else DEDUP_NONE,
        max_order=ENUMERATION_HARD_CAP,
    )
    out = Path(args.out) if args.out else Path(__file__).parent / "survey.jsonl"
    t0 = time.time()
    run = write_report(spec, lambda: out.open("w"), "all",
                       Options(strict_u=args.strict_u))
    elapsed = time.time() - t0

    tallies = run.summary.tallies
    print(f"{'claim':<20} {'kind':<9} {'holds':>7} {'fails':>7} {'n/a':>6}")
    for cid in sorted(tallies):
        kind = "hard" if cid in HARD_CLAIM_IDS else "observed"
        t = tallies[cid]
        print(
            f"{cid:<20} {kind:<9} {t['holds']:>7} {t['fails']:>7}"
            f" {t['not_applicable']:>6}"
        )
    total = sum(run.summary.corpus["tables"].values())
    results = sum(sum(t.values()) for t in tallies.values())
    print(f"\n{total} tables, {results} results in {elapsed:.1f}s -> {out}")
    if run.hard_failure_count:
        print(f"{run.hard_failure_count} HARD-CLAIM FAILURES -- see the report",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
