"""Claims do not depend on element names.

A claim's statuses on a table are the same for every relabeling of it,
so running the claims on one representative per isomorphism class (the
``--dedup`` corpus) loses no FAILS result that the labeled corpus has.
"""

import itertools
from collections import Counter

import pytest

from semivar import build_semigroup
from semivar.claims import REGISTRY, Options

from .oracles import relabel


def _statuses(s, options):
    return {
        cid: Counter(r.status for r in claim.evaluate(s, options))
        for cid, claim in REGISTRY.items()
    }


@pytest.mark.parametrize("strict_u", [False, True])
def test_claim_statuses_are_relabeling_invariant(corpus3, strict_u):
    options = Options(strict_u=strict_u)
    for s in corpus3:
        if s.order < 2:
            continue
        expected = _statuses(s, options)
        for perm in itertools.permutations(range(s.order)):
            relabeled = build_semigroup(s.order, relabel(s.table, perm))
            assert _statuses(relabeled, options) == expected, (s.table, perm)
