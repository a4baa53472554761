"""Drive claim evaluation over an enumerated corpus and write its report.

``write_report`` streams the report claim-major without holding it.  The
corpus arrives in report order: a spec's orders are sorted, and within an
order the enumerator emits tables in the order of their keys.  The parent
cuts it into contiguous chunks of CHUNK_TABLES tables and counts the
tables of each order.  For each table of a chunk, ``_evaluate_chunk``
evaluates the selected claims, serializes each claim's results at once
and sorts them within that (claim, table) group; it writes the chunk's
records to one scratch file, claim by claim, and returns the end offset
of each claim's segment with the chunk's tallies and first hard
failures.  Chunks run in a pool of one worker process for each CPU in
this process's affinity mask (``taskset -c 0`` makes it one), or in this
process through the builtin ``map`` when that mask has one CPU or the
corpus is one chunk; either way the parent merges them in chunk order
and, once every chunk is evaluated, copies each claim's segments to the
output chunk by chunk, then writes the summary line.  So the report is
byte-identical whatever the number of CPUs.  Memory holds one chunk's
records in each process, the tallies and the first hard failures, so it
stays flat as the corpus grows.  ``run_corpus`` reads the same output
back into a ``Report``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import sys
import tempfile
from typing import Callable, TextIO

from .claims import HARD_CLAIM_IDS, REGISTRY, U_POLICY, Options, UnknownClaim
from .enumeration import CorpusSpec, iter_corpus
from .report import (
    STATUS_FAILS,
    ClaimResult,
    Report,
    add_tallies,
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


def _chunks(spec: CorpusSpec, table_counts: dict[str, int]):
    """The corpus as lists of CHUNK_TABLES (table, key) pairs, in key
    order, counting the tables of each order into table_counts.  Raises
    ValueError when a key does not follow the one before."""
    chunk, last = [], ""
    for s in iter_corpus(spec):
        key = inline_table(s)
        if key <= last:
            raise ValueError(f"table {key!r} arrived after {last!r}")
        last = key
        table_counts[str(s.order)] = table_counts.get(str(s.order), 0) + 1
        chunk.append((s, key))
        if len(chunk) == CHUNK_TABLES:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _evaluate_chunk(ids: list[str], options: Options, task: tuple[str, list]):
    """Evaluate the claims ids on the tables of task = (path, [(table,
    key), ...]) and write their record lines to the file at path, claim
    by claim.  Returns (path, the offsets where each claim's segment
    starts followed by the file's size, tallies, the first
    HARD_FAILURES_KEPT failures of each hard claim)."""
    path, tables = task
    lines: dict[str, list[str]] = {cid: [] for cid in ids}
    hard = {cid: [] for cid in ids if cid in HARD_CLAIM_IDS}
    tallies: dict[str, dict[str, int]] = {}
    for s, key in tables:
        for cid in ids:
            # looked up per call: REGISTRY entries may be replaced
            results = REGISTRY[cid].evaluate(s, options, key)
            # lines of one group share the '{"claim_id":…,"params":' prefix,
            # so they sort as sort_key's params JSON does
            lines[cid] += sorted(record_line(r) + "\n" for r in results)
            add_tallies(tallies, results)
            if cid in hard:
                fails = [r for r in results if r.status == STATUS_FAILS]
                hard[cid] += sorted(fails, key=record_line)
                del hard[cid][HARD_FAILURES_KEPT:]
    offsets = [0]
    with open(path, "wb") as f:
        for cid in ids:
            offsets.append(offsets[-1] + f.write("".join(lines[cid]).encode()))
    return path, offsets, tallies, hard


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
    hard-claim failures, in report order."""
    options = options or Options()
    ids = resolve_claim_ids(claim_ids)
    workers = len(os.sched_getaffinity(0))
    hard = {cid: [] for cid in ids if cid in HARD_CLAIM_IDS}
    tallies: dict[str, dict[str, int]] = {}
    table_counts: dict[str, int] = {}
    spills = []
    with contextlib.ExitStack() as stack:
        scratch = stack.enter_context(tempfile.TemporaryDirectory())
        tasks = ((os.path.join(scratch, str(i)), chunk)
                 for i, chunk in enumerate(_chunks(spec, table_counts)))
        first = list(itertools.islice(tasks, 2))
        # a corpus of one chunk would keep one worker busy and the rest idle
        mapper = _pool(stack, workers).imap if workers > 1 and len(first) > 1 else map
        evaluate = functools.partial(_evaluate_chunk, ids, options)
        # a pool runs _chunks in its task thread; imap ends only once the
        # tasks have run out, so table_counts is complete after the loop
        for path, offsets, chunk_tallies, chunk_hard in mapper(
                evaluate, itertools.chain(first, tasks)):
            spills.append((path, offsets))
            for cid, tally in chunk_tallies.items():
                total = tallies.setdefault(cid, dict.fromkeys(tally, 0))
                for status, n in tally.items():
                    total[status] += n
            for cid, fails in chunk_hard.items():
                hard[cid] += fails
                del hard[cid][HARD_FAILURES_KEPT:]
        summary = summary_line(
            tallies,
            corpus={"orders": list(spec.orders), "dedup": spec.dedup,
                    "limit": spec.limit, "tables": table_counts},
            config={"claims": ids, "strict_u": options.strict_u, "u_policy": U_POLICY},
        )
        with open_out() as out:
            for c in range(len(ids)):
                for path, offsets in spills:
                    with open(path, "rb") as f:
                        f.seek(offsets[c])
                        out.write(f.read(offsets[c + 1] - offsets[c]).decode())
            out.write(summary + "\n")
    kept = [r for cid in ids if cid in hard for r in hard[cid]]
    return tallies, kept[:HARD_FAILURES_KEPT]


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
