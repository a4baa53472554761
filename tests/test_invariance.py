"""Claims do not depend on element names, and the relations respect
duality.

A claim's statuses on a table are the same for every relabeling of it,
so running the claims on one representative per isomorphism class (the
``--dedup`` corpus) loses no FAILS result that the labeled corpus has.
"""

import itertools
from collections import Counter

import pytest

from semivar import build_semigroup, green, star, tilde
from semivar.claims import REGISTRY, Options
from semivar.core import idempotents
from semivar.orders import natural_leq

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


def test_transposition_swaps_left_and_right(corpus3, classes5):
    # the transposed table is the dual semigroup, x.y read as y.x: the
    # one-sided relations trade places, the two-sided ones and the
    # natural order stay
    for s in itertools.chain(corpus3, classes5):
        d = build_semigroup(s.order, zip(*s.table))
        g, gd = green(s), green(d)
        assert (gd.l, gd.r, gd.h, gd.d, gd.j) == (g.r, g.l, g.h, g.d, g.j), s.table
        st, sd = star(s), star(d)
        assert (sd.l_star, sd.r_star, sd.h_star, sd.d_star) == (
            st.r_star, st.l_star, st.h_star, st.d_star), s.table
        e = idempotents(s)
        td, ts = tilde(d, e), tilde(s, e)
        assert (td.l_tilde, td.r_tilde) == (ts.r_tilde, ts.l_tilde), s.table
        assert natural_leq(d) == natural_leq(s), s.table
