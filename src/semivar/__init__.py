"""Finite-semigroup computations: Green's and starred/tilde relations,
sandwich variants, congruences and quotients, natural orders, exhaustive
enumeration, and a claim-checking harness over enumerated corpora."""

__version__ = "0.1.0"

from .core import (
    FiniteSemigroup,
    NotAMonoid,
    NotAssociative,
    NotIdempotent,
    OrderTooLarge,
    OutOfRange,
    SemigroupError,
    adjoin_identity,
    build_semigroup,
    idempotents,
    is_regular,
)
from .claims import Options, evaluate_claim, recheck_result
from .enumeration import CorpusSpec, canonical_form, enumerate_semigroups, iter_corpus
from .relations import Equivalence, green, star, tilde
from .report import Report
from .runner import run_corpus
from .sgt import parse_table, serialize_table
from .variants import idempotent_variant, p_sets, variant

__all__ = [
    "CorpusSpec",
    "Equivalence",
    "FiniteSemigroup",
    "NotAMonoid",
    "NotAssociative",
    "NotIdempotent",
    "Options",
    "OrderTooLarge",
    "OutOfRange",
    "Report",
    "SemigroupError",
    "adjoin_identity",
    "build_semigroup",
    "canonical_form",
    "enumerate_semigroups",
    "evaluate_claim",
    "green",
    "idempotent_variant",
    "idempotents",
    "is_regular",
    "iter_corpus",
    "p_sets",
    "parse_table",
    "recheck_result",
    "run_corpus",
    "serialize_table",
    "star",
    "tilde",
    "variant",
]
