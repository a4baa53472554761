"""Command line interface.

Subcommands:

* ``check``      run claims over an enumerated corpus, print a JSONL report
* ``recheck``    confirm a report from itself: every FAILS witness, the
  claim-major order of its records, its tallies and its version
* ``inspect``    print relations/congruences/orders of one .sgt table
* ``enumerate``  list (or count) the associative tables of one order
* ``variant``    print the sandwich variant of one .sgt table

Exit codes: 0 on success, 2 when a hard claim FAILS during ``check`` or
when ``recheck`` finds a witness it cannot confirm, a record out of
order, a wrong tally or another version, 1 on bad usage or bad input
(for ``recheck``, a line that is not a record, a summary that is
missing, or a table that is not a semigroup).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from pathlib import Path

from . import __version__
from .claims import HARD_CLAIM_IDS, Options, recheck_result
from .congruences import all_congruences
from .core import OrderTooLarge, SemigroupError, idempotents
from .enumeration import (
    DEDUP_ISO,
    DEDUP_NONE,
    CorpusSpec,
    enumerate_semigroups,
    iter_corpus,
)
from .orders import natural_leq
from .relations import compose, green, join, meet, star, tilde
from .report import STATUS_FAILS, add_tallies, read_records, read_summary
from .runner import write_report
from .sgt import inline_table, parse_table, serialize_table
from .variants import idempotent_variant, variant


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="semivar",
        description="finite-semigroup computations and claim checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run claims over an enumerated corpus")
    check.add_argument("--orders", default="2,3",
                       help="comma-separated table orders, sorted with repeats "
                            "dropped (default: 2,3)")
    check.add_argument("--claims", default="all",
                       help="'all' or comma-separated claim ids")
    check.add_argument("--strict-u", action="store_true",
                       help="weak U-abundance must find idempotents in U itself")
    check.add_argument("--dedup", action="store_true",
                       help="one table per isomorphism class")
    check.add_argument("--limit", type=int, default=None,
                       help="cap the total number of tables, counted from "
                            "the smallest order")
    check.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
    check.set_defaults(func=_cmd_check)

    recheck = sub.add_parser("recheck", help="confirm a report's witnesses, "
                             "order and tallies from the report alone")
    recheck.add_argument("report", help="a JSONL report written by check")
    recheck.set_defaults(func=_cmd_recheck)

    inspect = sub.add_parser("inspect", help="print structure of one table")
    inspect.add_argument("path", help="an .sgt file")
    inspect.add_argument(
        "--show", default="green,star",
        help="comma-separated: green, star, tilde[:I+J+...], congruences, orders",
    )
    inspect.set_defaults(func=_cmd_inspect)

    enum = sub.add_parser("enumerate", help="list associative tables")
    enum.add_argument("--order", type=int, required=True)
    enum.add_argument("--count-only", action="store_true")
    enum.add_argument("--dedup", action="store_true",
                      help="one table per isomorphism class")
    enum.set_defaults(func=_cmd_enumerate)

    var = sub.add_parser("variant", help="print a sandwich variant table")
    var.add_argument("path", help="an .sgt file")
    var.add_argument("--at", type=int, required=True,
                     help="the sandwich element")
    var.add_argument("--idempotent-only", action="store_true",
                     help="refuse non-idempotent sandwich elements")
    var.set_defaults(func=_cmd_variant)

    return parser


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _CliError(f"--orders must be comma-separated integers, got {text!r}")
    if not orders:
        raise _CliError("--orders must name at least one order")
    return orders


def _cmd_check(args) -> int:
    orders = _parse_orders(args.orders)
    if args.claims.strip() == "all":
        claim_ids = "all"
    else:
        claim_ids = [tok.strip() for tok in args.claims.split(",") if tok.strip()]
        if not claim_ids:
            raise _CliError("--claims must name at least one claim id")
    spec = CorpusSpec(
        orders=orders,
        dedup=DEDUP_ISO if args.dedup else DEDUP_NONE,
        limit=args.limit,
    )

    # the report is opened only after the whole corpus is evaluated, so a
    # path that cannot be created is refused before the first claim runs
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise _CliError(f"--out {args.out}: not a file in an existing directory")

    def open_out():
        return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)

    tallies, kept = write_report(spec, open_out, claim_ids, Options(strict_u=args.strict_u))
    failures = sum(t["fails"] for cid, t in tallies.items() if cid in HARD_CLAIM_IDS)
    if failures:
        for r in kept:
            print(
                f"hard claim {r.claim_id} FAILS on {r.table} params={r.params}",
                file=sys.stderr,
            )
        print(f"{failures} hard-claim failure(s)", file=sys.stderr)
        return 2
    return 0


def _named(r) -> str:
    return f"{r.claim_id} on {r.table} params={r.params}"


def _confirmed(r, options) -> bool:
    try:
        return recheck_result(r, options)
    except OrderTooLarge as err:
        raise _CliError(f"{r.claim_id}: a table of {err}") from None
    except SemigroupError as err:  # an unknown claim, or a table that is not one
        raise _CliError(f"{r.claim_id} on {r.table}: {err}") from None


def _cmd_recheck(args) -> int:
    problems = []
    with open(args.report) as f:
        # the summary is the last line, and its config is needed first
        summary_at = 0
        for lineno, line in enumerate(f, start=1):
            if not line.isspace():
                summary_at, last = lineno, line
        if not summary_at:
            raise ValueError("empty report")
        summary = read_summary(last, summary_at)
        options = Options(strict_u=summary["config"].get("strict_u") is True)
        f.seek(0)
        tallies, previous, confirmed = {}, None, 0
        for r in read_records(itertools.islice(f, summary_at - 1)):
            key = r.sort_key()
            if previous is not None and key <= previous:
                problems.append(f"{_named(r)} does not follow the record before it")
            previous = key
            add_tallies(tallies, (r,))
            if r.status == STATUS_FAILS:
                if _confirmed(r, options):
                    confirmed += 1
                else:
                    problems.append(f"{_named(r)}: witness not confirmed")
    for cid in sorted(set(tallies) | set(summary["tallies"])):
        if tallies.get(cid) != summary["tallies"].get(cid):
            problems.append(f"{cid}: the summary tallies {summary['tallies'].get(cid)}, "
                            f"the records {tallies.get(cid)}")
    if summary["version"] != __version__:
        problems.append(f"the report is from semivar {summary['version']}, "
                        f"this is {__version__}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 2
    records = sum(sum(t.values()) for t in tallies.values())
    print(f"{records} records in order, {confirmed} FAILS witnesses confirmed, "
          f"tallies match")
    return 0


def _fmt_partition(eq) -> str:
    return " ".join(
        "{" + ",".join(str(x) for x in block) + "}"
        for block in sorted(eq.classes)
    )


def _parse_show(text: str):
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("tilde"):
            _, _, rest = token.partition(":")
            ids = tuple(int(p) for p in rest.split("+")) if rest else None
            yield "tilde", ids
        elif token in ("green", "star", "congruences", "orders"):
            yield token, None
        else:
            raise _CliError(f"unknown --show item {token!r}")


def _cmd_inspect(args) -> int:
    s = parse_table(Path(args.path).read_text())
    print(f"order {s.order}")
    print(f"identity {s.identity if s.identity is not None else '-'}")
    print("idempotents " + " ".join(str(e) for e in sorted(idempotents(s))))
    for section, ids in _parse_show(args.show):
        if section == "green":
            g = green(s)
            print(f"L  {_fmt_partition(g.l)}")
            print(f"R  {_fmt_partition(g.r)}")
            d = join(g.l, g.r)  # and J: J = D in a finite semigroup (Howie, §2.1)
            print(f"H  {_fmt_partition(meet(g.l, g.r))}")
            print(f"D  {_fmt_partition(d)}")
            print(f"J  {_fmt_partition(d)}")
        elif section == "star":
            st = star(s)
            print(f"L* {_fmt_partition(st.l_star)}")
            print(f"R* {_fmt_partition(st.r_star)}")
            dp = join(st.l_star, st.r_star)
            print(f"H* {_fmt_partition(meet(st.l_star, st.r_star))}")
            print(f"D* {_fmt_partition(dp)}")
            same = compose(st.r_star, st.l_star) == dp.pairs() == compose(st.l_star, st.r_star)
            print(f"D* is R*oL* = L*oR*: {'yes' if same else 'no'}")
        elif section == "tilde":
            us = frozenset(ids) if ids is not None else idempotents(s)
            td = tilde(s, us)
            label = "+".join(str(e) for e in sorted(us))
            print(f"L~[{label}] {_fmt_partition(td.l_tilde)}")
            print(f"R~[{label}] {_fmt_partition(td.r_tilde)}")
        elif section == "congruences":
            for eq in all_congruences(s):
                print(f"congruence {_fmt_partition(eq)}")
        elif section == "orders":
            nat = natural_leq(s)
            pairs = [
                f"{a}<={b}"
                for a in s.elements
                for b in s.elements
                if a != b and nat.leq[a][b]
            ]
            print("natural " + (" ".join(pairs) if pairs else "(trivial)"))
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only:
        print(enumerate_semigroups(args.order, lambda t: None, classes=args.dedup))
        return 0
    spec = CorpusSpec(orders=(args.order,), dedup=DEDUP_ISO if args.dedup else DEDUP_NONE)
    for s in iter_corpus(spec):
        print(inline_table(s))
    return 0


def _cmd_variant(args) -> int:
    s = parse_table(Path(args.path).read_text())
    build = idempotent_variant if args.idempotent_only else variant
    sys.stdout.write(serialize_table(build(s, args.at)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, SemigroupError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
