"""Drive claim evaluation over an enumerated corpus and write its report.

``write_report`` streams the report claim-major without holding it.  For
each table it evaluates the selected claims, serializes each claim's
results at once, sorts them by params within that (claim, table) group
and appends the group to the claim's own spill file.  At the end it
copies the spills to the output in claim order, each claim's groups in
table-key order, then writes the summary line.  Memory holds one table's
results, the tallies and an index of 8 bytes per (claim, table) plus one
key per table, so it stays flat as the corpus grows.  ``run_corpus``
reads the same output back into a ``Report``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import tempfile
from array import array
from dataclasses import dataclass
from typing import Callable, TextIO

from .claims import HARD_CLAIM_IDS, REGISTRY, U_POLICY, Options, UnknownClaim
from .enumeration import CorpusSpec, iter_corpus
from .report import (
    STATUS_FAILS,
    TALLY_FIELDS,
    ClaimResult,
    Report,
    Summary,
    record_line,
)
from .sgt import inline_table

#: how many hard-claim failures a run keeps, the first in report order
HARD_FAILURES_KEPT = 10


def resolve_claim_ids(claim_ids) -> list[str]:
    """Normalize a claim selection ("all", an id, or a list of ids)."""
    if claim_ids == "all":
        return sorted(REGISTRY)
    if isinstance(claim_ids, str):
        claim_ids = [claim_ids]
    out = []
    for cid in claim_ids:
        if cid not in REGISTRY:
            raise UnknownClaim(cid)
        if cid not in out:
            out.append(cid)
    return sorted(out)


@dataclass
class CheckRun:
    """What write_report keeps of a run besides the report itself."""

    summary: Summary
    #: the first HARD_FAILURES_KEPT hard-claim failures, in report order
    hard_failures: list[ClaimResult]

    @property
    def hard_failure_count(self) -> int:
        return sum(t["fails"] for cid, t in self.summary.tallies.items()
                   if cid in HARD_CLAIM_IDS)


def write_report(
    spec: CorpusSpec,
    open_out: Callable[[], contextlib.AbstractContextManager[TextIO]],
    claim_ids="all",
    options: Options | None = None,
) -> CheckRun:
    """Evaluate the selected claims over every table in the corpus and
    write the report to the stream open_out() gives.  open_out is called
    only once every table is evaluated, so an exception during evaluation
    leaves no output behind."""
    options = options or Options()
    ids = resolve_claim_ids(claim_ids)
    keys: list[str] = []  # the table keys, in arrival order
    # table i's group of a claim spans bytes ends[i]:ends[i + 1] of its spill
    ends = {cid: array("q", [0]) for cid in ids}
    hard = {cid: [] for cid in ids if cid in HARD_CLAIM_IDS}
    tallies: dict[str, dict[str, int]] = {}
    table_counts: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        spills = {cid: stack.enter_context(tempfile.TemporaryFile()) for cid in ids}
        for s in iter_corpus(spec):
            key = inline_table(s)
            keys.append(key)
            table_counts[str(s.order)] = table_counts.get(str(s.order), 0) + 1
            for cid in ids:
                # looked up per call: REGISTRY entries may be replaced
                results = REGISTRY[cid].evaluate(s, options, key)
                # lines of one group share the '{"claim_id":…,"params":' prefix,
                # so they sort as sort_key's params JSON does
                lines = sorted(record_line(r) for r in results)
                group = "".join(line + "\n" for line in lines).encode("ascii")
                spills[cid].write(group)
                ends[cid].append(ends[cid][-1] + len(group))
                if results and cid not in tallies:
                    tallies[cid] = dict.fromkeys(TALLY_FIELDS.values(), 0)
                for r in results:
                    tallies[cid][TALLY_FIELDS[r.status]] += 1
                if cid in hard:
                    _keep_hard_failures(hard[cid], key, results)
        summary = Summary(
            tallies=tallies,
            corpus={
                "orders": list(spec.orders),
                "dedup": spec.dedup,
                "limit": spec.limit,
                "tables": table_counts,
            },
            config={
                "claims": ids,
                "strict_u": options.strict_u,
                "u_policy": U_POLICY,
            },
        )
        runs = [list(run) for _, run in itertools.groupby(
            sorted(range(len(keys)), key=keys.__getitem__), key=keys.__getitem__)]
        with open_out() as out:
            for cid in ids:
                _copy_groups(spills[cid], ends[cid], runs, out)
            out.write(summary.line() + "\n")
    kept = [r for cid in ids if cid in hard for _, _, r in sorted(
        hard[cid], key=lambda f: f[:2])]
    return CheckRun(summary, kept[:HARD_FAILURES_KEPT])


def _keep_hard_failures(kept: list, key: str, results) -> None:
    """Add the FAILS among results to kept as (table key, line, result),
    trimmed now and then to the HARD_FAILURES_KEPT first in report order."""
    kept.extend((key, record_line(r), r) for r in results if r.status == STATUS_FAILS)
    if len(kept) > 2 * HARD_FAILURES_KEPT:
        kept.sort(key=lambda f: f[:2])
        del kept[HARD_FAILURES_KEPT:]


def _copy_groups(spill, ends: array, runs: list[list[int]], out: TextIO) -> None:
    """Write one claim's groups from its spill to out, runs (lists of the
    tables with one key) in key order.  A table listed twice gives a run
    of several groups; their lines are merged as a sort of all records
    would merge them."""
    for run in runs:
        pieces = []
        for i in run:
            spill.seek(ends[i])
            pieces.append(spill.read(ends[i + 1] - ends[i]).decode("ascii"))
        text = "".join(pieces)
        if len(run) > 1:
            text = "".join(sorted(text.splitlines(keepends=True)))
        out.write(text)


def run_corpus(
    spec: CorpusSpec,
    claim_ids="all",
    options: Options | None = None,
) -> Report:
    """Evaluate the selected claims over every table in the corpus: the
    report write_report writes, read back."""
    buf = io.StringIO()
    write_report(spec, lambda: contextlib.nullcontext(buf), claim_ids, options)
    return Report.loads(buf.getvalue())


def hard_failures(report: Report) -> list[ClaimResult]:
    """FAILS results on hard claims: the ones that should abort a run."""
    return [
        r for r in report.results
        if r.status == STATUS_FAILS and r.claim_id in HARD_CLAIM_IDS
    ]


def exit_code_for(report: Report) -> int:
    return 2 if hard_failures(report) else 0
