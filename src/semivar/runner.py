"""Drive claim evaluation over an enumerated corpus and write its report.

``write_report`` streams the report claim-major without holding it.  The
corpus arrives in report order: a spec's orders are sorted, and within an
order the enumerator emits tables in the order of their keys.  For each
table it evaluates the selected claims, serializes each claim's results
at once, sorts them within that (claim, table) group and appends the
group to the claim's own spill file.  At the end it copies the spills to
the output in claim order, then writes the summary line.  Memory holds
one table's results, the tallies and the first hard failures, so it
stays flat as the corpus grows.  ``run_corpus`` reads the same output
back into a ``Report``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
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
    leaves no output behind.  Raises ValueError when the corpus does not
    arrive in increasing table-key order."""
    options = options or Options()
    ids = resolve_claim_ids(claim_ids)
    hard = {cid: [] for cid in ids if cid in HARD_CLAIM_IDS}
    tallies: dict[str, dict[str, int]] = {}
    table_counts: dict[str, int] = {}
    last = ""
    with contextlib.ExitStack() as stack:
        spills = {cid: stack.enter_context(tempfile.TemporaryFile("w+")) for cid in ids}
        for s in iter_corpus(spec):
            key = inline_table(s)
            if key <= last:
                raise ValueError(f"table {key!r} arrived after {last!r}")
            last = key
            table_counts[str(s.order)] = table_counts.get(str(s.order), 0) + 1
            for cid in ids:
                # looked up per call: REGISTRY entries may be replaced
                results = REGISTRY[cid].evaluate(s, options, key)
                # lines of one group share the '{"claim_id":…,"params":' prefix,
                # so they sort as sort_key's params JSON does
                spills[cid].writelines(sorted(record_line(r) + "\n" for r in results))
                if results and cid not in tallies:
                    tallies[cid] = dict.fromkeys(TALLY_FIELDS.values(), 0)
                for r in results:
                    tallies[cid][TALLY_FIELDS[r.status]] += 1
                if cid in hard:
                    fails = [r for r in results if r.status == STATUS_FAILS]
                    hard[cid] += sorted(fails, key=record_line)
                    del hard[cid][HARD_FAILURES_KEPT:]
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
        with open_out() as out:
            for cid in ids:
                spills[cid].seek(0)
                shutil.copyfileobj(spills[cid], out)
            out.write(summary.line() + "\n")
    kept = [r for cid in ids if cid in hard for r in hard[cid]]
    return CheckRun(summary, kept[:HARD_FAILURES_KEPT])


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
