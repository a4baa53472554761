"""Drive claim evaluation over an enumerated corpus and write its report.

``write_report`` streams the report claim-major without holding it.  The
corpus arrives in report order: a spec's orders are sorted, and within an
order the enumerator emits tables in the order of their keys.  It arrives
in batches of the search, so the parent holds one batch of tables, not an
order, and the first chunks are evaluated while the search goes on.  The
parent only cuts it into contiguous chunks of CHUNK_TABLES tables; a
chunk's tables are the whole task.  ``_evaluate_chunk`` keys each table,
refuses a key that does not follow the one before, counts the tables of
each order, evaluates the selected claims and sorts each claim's serialized
results within their (claim, table) group.  It writes the chunk's records
to a scratch file of its own, claim by claim, and returns the end offset
of each claim's segment with the chunk's tallies, table counts and first
and last keys.  Chunks run in a pool of one worker process for each CPU
in this process's affinity mask (``taskset -c 0`` makes it one), or in
this process through the builtin ``map`` when that mask has one CPU or
the corpus is one chunk.  Either way the parent takes the results in
chunk order, checks that each chunk starts after the last key of the one
before and sums the counts; once every chunk is evaluated it copies each
claim's segments to the output chunk by chunk, decoding a segment back
only while it lacks the first hard failures of a failing hard claim, and
writes the summary line.  So the report is byte-identical whatever the
number of CPUs, and memory holds one chunk's records in each process.
``run_corpus`` reads the same output back into a ``Report``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import sys
import tempfile
from collections import Counter
from typing import Callable, TextIO

from .claims import HARD_CLAIM_IDS, REGISTRY, U_POLICY, Options, UnknownClaim
from .enumeration import CorpusSpec, iter_corpus
from .report import (
    STATUS_FAILS,
    ClaimResult,
    Report,
    add_tallies,
    read_records,
    record_line,
    summary_line,
)
from .sgt import inline_table

#: how many hard-claim failures a run keeps, the first in report order
HARD_FAILURES_KEPT = 10

#: tables per chunk, the unit of work of one worker process
CHUNK_TABLES = 64


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


def _evaluate_chunk(ids: list[str], options: Options, scratch: str, tables: list):
    """Evaluate the claims ids on tables, a chunk of the corpus, and write
    their record lines to a new file in the directory scratch, claim by
    claim.  Returns (the file's path, the offsets where each claim's
    segment starts followed by the file's size, tallies, tables per
    order, the chunk's first and last keys).  Raises ValueError when a
    table's key does not follow the one before."""
    lines: dict[str, list[str]] = {cid: [] for cid in ids}
    tallies: dict[str, dict[str, int]] = {}
    first = last = ""
    for s in tables:
        key = inline_table(s)
        if key <= last:
            raise ValueError(f"table {key!r} arrived after {last!r}")
        first, last = first or key, key
        for cid in ids:
            # looked up per call: REGISTRY entries may be replaced
            results = REGISTRY[cid].evaluate(s, options, key)
            # lines of one group share the '{"claim_id":…,"params":' prefix,
            # so they sort as sort_key's params JSON does
            lines[cid] += sorted(record_line(r) + "\n" for r in results)
            add_tallies(tallies, results)
    fd, path = tempfile.mkstemp(dir=scratch)
    offsets = [0]
    with open(fd, "wb") as f:
        for cid in ids:
            offsets.append(offsets[-1] + f.write("".join(lines[cid]).encode()))
    return path, offsets, tallies, Counter(str(s.order) for s in tables), first, last


def _pool(stack: contextlib.ExitStack, workers: int):
    """A pool of workers that the stack terminates.  Its imap writes each
    task to the workers' pipe before it makes the next, and the write
    blocks while the pipe is full, so the tasks are made about as fast as
    the workers take them.  The workers are forked, not spawned: they
    must see REGISTRY as the parent has it, replaced entries included,
    and the pool forks them before it starts its own threads."""
    import multiprocessing  # not at module level: it slows import semivar
    import signal

    # a forked worker flushes what it inherits of these buffers on exit
    sys.stdout.flush()
    sys.stderr.flush()
    # Ctrl-C reaches the parent, which terminates the pool
    return stack.enter_context(multiprocessing.get_context("fork").Pool(
        workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)))


def write_report(
    spec: CorpusSpec,
    open_out: Callable[[], contextlib.AbstractContextManager[TextIO]],
    claim_ids="all",
    options: Options | None = None,
) -> tuple[dict, list[ClaimResult]]:
    """Evaluate the selected claims over every table in the corpus and
    write the report to the stream open_out() gives.  The chunks of the
    corpus run in one worker process for each CPU this process may use,
    or in this process when that is one CPU; the report is the same
    bytes either way.  open_out is called only once every table is
    evaluated, so an exception during evaluation, in this process or a
    worker, leaves no output behind and no worker running.  Raises
    ValueError when the corpus does not arrive in increasing table-key
    order.

    Returns the summary's tallies and the first HARD_FAILURES_KEPT
    hard-claim failures in report order, decoded from the failing hard
    claims' records as they are copied: a run without one decodes none."""
    options = options or Options()
    ids = resolve_claim_ids(claim_ids)
    workers = len(os.sched_getaffinity(0))
    tallies: dict[str, Counter] = {}
    table_counts: Counter = Counter()
    spills, last = [], ""
    with contextlib.ExitStack() as stack:
        scratch = stack.enter_context(tempfile.TemporaryDirectory())
        corpus = iter_corpus(spec)
        chunks = iter(lambda: list(itertools.islice(corpus, CHUNK_TABLES)), [])
        head = list(itertools.islice(chunks, 2))
        # a corpus of one chunk would keep one worker busy and the rest idle
        mapper = _pool(stack, workers).imap if workers > 1 and len(head) > 1 else map
        evaluate = functools.partial(_evaluate_chunk, ids, options, scratch)
        for path, offsets, chunk_tallies, counts, first, chunk_last in mapper(
                evaluate, itertools.chain(head, chunks)):
            if first <= last:
                raise ValueError(f"table {first!r} arrived after {last!r}")
            last = chunk_last
            spills.append((path, offsets))
            for cid, tally in chunk_tallies.items():
                tallies.setdefault(cid, Counter()).update(tally)
            table_counts.update(counts)
        summary = summary_line(
            tallies,
            corpus={"orders": list(spec.orders), "dedup": spec.dedup,
                    "limit": spec.limit, "tables": table_counts},
            config={"claims": ids, "strict_u": options.strict_u, "u_policy": U_POLICY},
        )
        kept: list[ClaimResult] = []
        with open_out() as out:
            for c, cid in enumerate(ids):
                failing = cid in HARD_CLAIM_IDS and tallies.get(cid, {}).get("fails")
                for path, offsets in spills:
                    with open(path, "rb") as f:
                        f.seek(offsets[c])
                        segment = f.read(offsets[c + 1] - offsets[c]).decode()
                    out.write(segment)
                    if failing and len(kept) < HARD_FAILURES_KEPT:
                        fails = (r for r in read_records(segment.split("\n"))
                                 if r.status == STATUS_FAILS)
                        kept += itertools.islice(fails, HARD_FAILURES_KEPT - len(kept))
            out.write(summary + "\n")
    return tallies, kept


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
