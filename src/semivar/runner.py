"""Drive claim evaluation over enumerated corpora and build reports."""

from __future__ import annotations

from . import __version__
from .claims import HARD_CLAIM_IDS, REGISTRY, U_POLICY, Options, UnknownClaim
from .enumeration import CorpusSpec, iter_corpus
from .report import STATUS_FAILS, ClaimResult, Report


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


def run_corpus(
    spec: CorpusSpec,
    claim_ids="all",
    options: Options | None = None,
) -> Report:
    """Evaluate the selected claims over every table in the corpus."""
    options = options or Options()
    ids = resolve_claim_ids(claim_ids)
    results: list[ClaimResult] = []
    table_counts: dict[str, int] = {}
    for s in iter_corpus(spec):
        table_counts[str(s.order)] = table_counts.get(str(s.order), 0) + 1
        for cid in ids:
            results.extend(REGISTRY[cid].evaluate(s, options))
    results.sort(key=lambda r: r.sort_key())
    corpus = {
        "orders": list(spec.orders),
        "dedup": spec.dedup,
        "limit": spec.limit,
        "tables": table_counts,
    }
    config = {
        "claims": ids,
        "strict_u": options.strict_u,
        "u_policy": U_POLICY,
    }
    return Report(corpus=corpus, config=config, results=results,
                  version=__version__)


def hard_failures(report: Report) -> list[ClaimResult]:
    """FAILS results on hard claims: the ones that should abort a run."""
    return [
        r for r in report.results
        if r.status == STATUS_FAILS and r.claim_id in HARD_CLAIM_IDS
    ]


def exit_code_for(report: Report) -> int:
    return 2 if hard_failures(report) else 0
