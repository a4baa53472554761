"""The claim registry: evaluation, witnesses, and independent re-checking."""

import dataclasses
import itertools
import time

import pytest

from semivar import OrderTooLarge, build_semigroup, claims
from semivar.claims import (
    HARD_CLAIM_IDS,
    KIND_HARD,
    KIND_OBSERVED,
    REGISTRY,
    Options,
    UnknownClaim,
    evaluate_claim,
    recheck_result,
)
from semivar.report import STATUS_FAILS, STATUS_HOLDS, STATUS_NOT_APPLICABLE


EXPECTED_IDS = {
    "C-1.1", "C-1.2", "C-1.3", "C-1.4", "C-INCL", "C-NONCONG",
    "C-2.1", "C-2.2-quantifier", "C-2.2-composition",
    "C-2.3-restricted", "C-2.3-literal", "C-2.4", "C-2.5",
    "C-2.6-inter", "C-2.6-sandwich",
    "C-3.1", "C-3.2", "C-3.4", "C-3.5", "C-FHT", "C-FUND",
    "C-4.0", "C-4.1-forward", "C-4.1-reverse", "C-4.2", "C-4.3",
    "C-4.4a", "C-4.4b", "C-NAT-PO",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_IDS
    assert all(c.kind in (KIND_HARD, KIND_OBSERVED) for c in REGISTRY.values())
    assert "C-2.3-restricted" in HARD_CLAIM_IDS
    assert "C-4.1-reverse" not in HARD_CLAIM_IDS
    assert len(HARD_CLAIM_IDS) == 20
    assert len(REGISTRY) == 29


def test_unknown_claim(z2):
    with pytest.raises(UnknownClaim):
        evaluate_claim("C-9.9", z2)


def test_params_filter(z2):
    everything = evaluate_claim("C-2.1", z2)
    assert len(everything) == 2
    only_one = evaluate_claim("C-2.1", z2, params={"a": 1})
    assert len(only_one) == 1
    assert only_one[0].params == {"a": 1}


def test_left_zero_reverse_counterexample(left_zero):
    # E(S^0) contains 1 even though 1 is not below 0: the classic order-2
    # counterexample to the reverse inclusion
    results = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})
    assert len(results) == 1
    r = results[0]
    assert r.status == STATUS_FAILS
    assert r.witness == {"f": 1, "ff": 1, "fe": 1, "ef": 0}
    assert recheck_result(r)


def test_forward_inclusion_holds_on_left_zero(left_zero):
    for r in evaluate_claim("C-4.1-forward", left_zero):
        assert r.status == STATUS_HOLDS


def test_variant_quotient_matches_translate_image(null2):
    for r in evaluate_claim("C-3.4", null2):
        assert r.status == STATUS_HOLDS


def test_abundance_transfer_applicability(z2, left_zero):
    # a group is an abundant monoid with every element invertible
    for r in evaluate_claim("C-2.4", z2):
        assert r.status == STATUS_HOLDS
    # a left-zero band is not a monoid, so nothing applies
    for r in evaluate_claim("C-2.4", left_zero):
        assert r.status == STATUS_NOT_APPLICABLE


def test_tilde_congruence_failure_has_witness():
    # at U = {2}, L~ glues 0 and 2, but multiplying by 1 on the right
    # separates them again
    from semivar import build_semigroup

    s = build_semigroup(3, [[0, 0, 0], [0, 0, 0], [0, 1, 2]])
    results = evaluate_claim("C-NONCONG", s)
    failing = [r for r in results if r.status == STATUS_FAILS]
    assert failing, "expected at least one tilde relation to fail closure"
    for r in failing:
        assert r.witness is not None
        assert recheck_result(r)


def test_recheck_rejects_fabricated_witness(left_zero):
    r = evaluate_claim("C-4.1-reverse", left_zero, params={"e": 0})[0]
    assert r.status == STATUS_FAILS
    fake = dataclasses.replace(r, witness={"f": 0, "ff": 0, "fe": 0, "ef": 0})
    assert not recheck_result(fake)


def test_recheck_needs_a_failure(z2):
    r = evaluate_claim("C-2.5", z2)[0]
    assert r.status == STATUS_HOLDS
    assert not recheck_result(r)


def test_every_corpus_failure_survives_recheck(corpus3):
    checked = 0
    for s in corpus3:
        for cid in sorted(REGISTRY):
            for r in evaluate_claim(cid, s):
                if r.status == STATUS_FAILS:
                    assert r.witness is not None, (cid, r.table, r.params)
                    assert recheck_result(r), (cid, r.table, r.params, r.witness)
                    checked += 1
    assert checked > 1000  # the corpus is known to produce many findings


def test_hard_claims_hold_on_corpus(corpus3):
    for s in corpus3:
        for cid in sorted(HARD_CLAIM_IDS):
            for r in evaluate_claim(cid, s):
                assert r.status != STATUS_FAILS, (cid, r.table, r.params, r.witness)


def test_strict_u_changes_applicability(min2):
    # U = {0} is weakly abundant only in the lax reading, so the strict
    # run marks the C-2.6 instances not-applicable
    lax = evaluate_claim("C-2.6-inter", min2, params={"U": [0], "e": 0})
    strict = evaluate_claim(
        "C-2.6-inter", min2, params={"U": [0], "e": 0},
        options=Options(strict_u=True),
    )
    assert lax[0].status != STATUS_NOT_APPLICABLE
    assert strict[0].status == STATUS_NOT_APPLICABLE


def full_transformation_monoid(k):
    """T_k: all maps of 0..k-1 into itself, f.g = apply f, then g."""
    maps = list(itertools.product(range(k), repeat=k))
    index = {f: i for i, f in enumerate(maps)}
    return build_semigroup(len(maps), [
        [index[tuple(g[f[i]] for i in range(k))] for g in maps] for f in maps
    ])


def test_every_claim_finishes_beyond_the_enumerable_orders():
    # T_3 has 27 elements, far past CONGRUENCE_ORDER_BOUND: the lattice
    # claims must say NOT_APPLICABLE instead of raising or scanning
    # Bell(27) partitions
    t3 = full_transformation_monoid(3)
    t0 = time.time()
    results = {cid: claim.evaluate(t3, Options()) for cid, claim in REGISTRY.items()}
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"29 claims on T_3 took {elapsed:.1f}s"
    assert all(results.values())
    for cid in ("C-3.1", "C-FUND"):
        assert [r.status for r in results[cid]] == [STATUS_NOT_APPLICABLE]
    with pytest.raises(OrderTooLarge):
        claims._lit_congruences(t3)
    fails = [r for rs in results.values() for r in rs if r.status == STATUS_FAILS]
    assert fails and all(recheck_result(r) for r in fails)
