"""The per-layer metrics of the traced run: their names and their values.

Names follow ``<module>.<function>.calls`` and ``.self_s``; the claims
layer adds per-claim self times and the hit ratio of each lru_cache
accessor with its base (``.lookups``).
"""

from __future__ import annotations

from spans import BUILD_CALLERS, CACHED_ACCESSORS, FUNCTIONS, METHODS

#: layers reported by self time only: their call count is always one
SELF_ONLY = ("runner.run_corpus", "cli.main", "enumeration.iter_corpus")


def timed_spans() -> list[str]:
    spans = [f"{layer}.{name}" for layer, names in FUNCTIONS.items() for name in names]
    spans += [f"{layer}.{cls}.{attr}" for layer, cls, attr in METHODS]
    spans.append("enumeration.iter_corpus")
    return spans


def per_layer_spec(expected: dict) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in BENCHMARK.json order."""
    spec = []
    for span in timed_spans():
        if span not in SELF_ONLY:
            spec.append((f"{span}.calls", "count", "lower"))
        spec.append((f"{span}.self_s", "s", "lower"))
    spec.append(("enumeration.tables_generated", "count", "lower"))
    spec.append(("enumeration.iter_corpus.kept_ratio", "ratio", "higher"))
    for module in BUILD_CALLERS:
        spec.append((f"core.build_semigroup.calls_from.{module}", "count", "lower"))
    for cid in sorted(expected["check-o4"]["tallies"]):
        spec.append((f"claims.eval.{cid}.self_s", "s", "lower"))
    for cid in sorted(expected["recheck-o4"]["input"]["fails"]):
        spec.append((f"claims.recheck.{cid}.self_s", "s", "lower"))
    for accessor in CACHED_ACCESSORS:
        name = accessor.lstrip("_")
        spec.append((f"claims.cache.{name}.hit_ratio", "ratio", "higher"))
        spec.append((f"claims.cache.{name}.lookups", "count", "lower"))
    spec.append(("report.bytes", "B", "lower"))
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


def per_layer_values(summary, counters, caches) -> dict[str, float]:
    """Metric values from a recorder summary, its counters and the
    cache (hits, misses) deltas; trace.overhead_ratio is added by the
    caller, which alone knows the untraced time."""
    values: dict[str, float] = {}
    for span in timed_spans():
        calls, self_s = summary.get(span, (0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    for name, (calls, self_s) in summary.items():
        if name.startswith("claims."):
            values[f"{name}.self_s"] = self_s
    generated = counters["enumeration.tables_generated"]
    values["enumeration.tables_generated"] = generated
    values["enumeration.iter_corpus.kept_ratio"] = (
        counters["enumeration.iter_corpus.yielded"] / generated if generated else 0.0
    )
    for module in BUILD_CALLERS:
        key = f"core.build_semigroup.calls_from.{module}"
        values[key] = counters[key]
    for name, (hits, misses) in caches.items():
        lookups = hits + misses
        values[f"claims.cache.{name}.hit_ratio"] = hits / lookups if lookups else 0.0
        values[f"claims.cache.{name}.lookups"] = lookups
    values["report.bytes"] = counters["report.bytes"]
    return values
