"""Per-layer metrics, derived from the spans and counts of a traced run.

Layers are the package modules.  Times are per call and use each span's
self time; counts and ratios are per run.  A metric whose layer the
workload's own ops do not reach is taken from the coverage ops that the
traced run adds from the other workloads, and says so in its note.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Tracer

NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class View:
    """Spans and counts of one source (the workload whose ops made them)."""

    def __init__(self, tracer: Tracer, selfs: list[int], source: str) -> None:
        self.self_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: dict[str, int] = defaultdict(int)
        self.grid_ns_by_label: dict[str, float] = {}
        self.find_by_label: list[tuple[str, float]] = []
        for s, self_ns in zip(tracer.spans, selfs):
            if s.source != source:
                continue
            self.self_ns[s.name] += self_ns
            self.calls[s.name] += s.calls
            self.spans[s.name] += 1
            label = tracer.op_labels.get(s.op_id, "")
            if s.name == "search.grid_eval":
                self.grid_ns_by_label[label] = self_ns
            elif s.name == "search.find_periodic":
                self.find_by_label.append((label, self_ns))
        self.counts = tracer.counts.get(source, {})

    def per_call(self, name: str, unit: str) -> float | None:
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / NS[unit] if calls else None

    def count(self, key: str) -> float | None:
        return self.counts.get(key)

    def ratio(self, num: str, den: str) -> float | None:
        d = self.counts.get(den)
        return self.counts.get(num, 0.0) / d if d else None


def _sub(a, *bs):
    return None if a is None or any(b is None for b in bs) else a - sum(bs)


def _trace_us_per_bounce(v: View):
    b = v.count("simulator.bounces")
    return v.self_ns["simulator.trace"] / b / 1e3 if b and v.spans.get("simulator.trace") else None


def _coords_share(v: View):
    coords = v.per_call("confocal.elliptic_coordinates", "ns")
    b = v.count("simulator.bounces")
    t = v.self_ns.get("simulator.trace")
    return coords * b / t if coords is not None and b and t else None


def _loop_overhead(v: View):
    return _sub(_trace_us_per_bounce(v),
                *(v.per_call(n, "us") for n in ("simulator.next_impact", "simulator.reflect_at",
                                                 "simulator.classify_surface_point",
                                                 "confocal.elliptic_coordinates")))


def _matched_grid_find(v: View) -> list[tuple[float, float]]:
    """(replayed grid scan, find_periodic) self times of every find_periodic
    op whose spec had its grid replayed; specs without a scan (the parity
    exclusions) drop out."""
    return [(v.grid_ns_by_label[label], find) for label, find in v.find_by_label
            if label in v.grid_ns_by_label]


def _grid_eval_ms(v: View):
    pairs = _matched_grid_find(v)
    return sum(g for g, _ in pairs) / len(pairs) / 1e6 if pairs else None


def _refine_ms(v: View):
    pairs = _matched_grid_find(v)
    return sum(f - g for g, f in pairs) / len(pairs) / 1e6 if pairs else None


def _call(name, unit):
    return lambda v: v.per_call(name, unit)


# name -> (unit, derivation from a View)
METRICS = {
    "minkowski.reflect_direction_us": ("us", _call("minkowski.reflect_direction", "us")),
    "minkowski.vec3_new_ns": ("ns", _call("minkowski.vec3_new", "ns")),
    "confocal.elliptic_coordinates_us": ("us", _call("confocal.elliptic_coordinates", "us")),
    "confocal.coords_share": ("ratio", _coords_share),
    "confocal.line_caustics_us": ("us", _call("confocal.line_caustics", "us")),
    "simulator.trace_us_per_bounce": ("us", _trace_us_per_bounce),
    "simulator.next_impact_us": ("us", _call("simulator.next_impact", "us")),
    "simulator.reflect_at_us": ("us", _call("simulator.reflect_at", "us")),
    "simulator.classify_surface_point_us": ("us", _call("simulator.classify_surface_point", "us")),
    "simulator.loop_overhead_us_per_bounce": ("us", _loop_overhead),
    "simulator.detect_period_ms": ("ms", _call("simulator.detect_period", "ms")),
    "simulator.chasles_residual_ms": ("ms", _call("simulator.chasles_residual", "ms")),
    "simulator.bounces": ("count", lambda v: v.count("simulator.bounces")),
    "simulator.truncated_ratio": ("ratio", lambda v: v.ratio("simulator.truncated",
                                                             "simulator.traces")),
    "simulator.period_found_ratio": ("ratio", lambda v: v.ratio("simulator.periods_found",
                                                                "simulator.traces")),
    "series.sqrt_series_ms": ("ms", _call("series.sqrt_series", "ms")),
    "series.divided_series_ms": ("ms", _call("series.divided_series", "ms")),
    "series.hankel_rank_ms": ("ms", _call("series.hankel_rank", "ms")),
    "series.coeff_bits": ("bits", lambda v: v.ratio("series.coeff_bits", "series.builds")),
    "series.blocks_ranked": ("count", lambda v: v.count("series.blocks_ranked")),
    "series.rank_deficient_ratio": ("ratio", lambda v: v.ratio("series.rank_deficient",
                                                               "series.blocks_ranked")),
    "conditions.cayley_test_ms": ("ms", _call("conditions.cayley_test", "ms")),
    "conditions.satisfied_ratio": ("ratio", lambda v: v.ratio("conditions.satisfied",
                                                              "conditions.cayley_calls")),
    "conditions.darboux_integrals_ms": ("ms", _call("conditions.darboux_integrals", "ms")),
    "pell.solve_pell_ms": ("ms", _call("pell.solve_pell", "ms")),
    "pell.solutions_ratio": ("ratio", lambda v: v.ratio("pell.solutions", "pell.solve_calls")),
    "pell.verify_pell_ms": ("ms", _call("pell.verify_pell", "ms")),
    "pell.compose_pell_ms": ("ms", _call("pell.compose_pell", "ms")),
    "pell.cert_json_ms": ("ms", _call("pell.cert_json", "ms")),
    "search.find_periodic_ms": ("ms", _call("search.find_periodic", "ms")),
    "search.grid_eval_ms": ("ms", _grid_eval_ms),
    "search.refine_ms": ("ms", _refine_ms),
    "search.grid_points": ("count", lambda v: v.count("search.grid_points")),
    "search.nonfinite_ratio": ("ratio", lambda v: v.ratio("search.grid_nonfinite",
                                                          "search.grid_points")),
    "search.candidates": ("count", lambda v: v.count("search.candidates")),
    "search.valid_ratio": ("ratio", lambda v: v.ratio("search.valid", "search.candidates")),
    "search.cross_validate_ms": ("ms", _call("search.cross_validate", "ms")),
    "search.tangent_line_ms": ("ms", _call("search.tangent_line", "ms")),
    "cli.cold_start_ms": ("ms", _call("cli.classify", "ms")),
    "cli.trace_ms": ("ms", _call("cli.trace", "ms")),
    "cli.check_cayley_ms": ("ms", _call("cli.check_cayley", "ms")),
    "cli.verify_pell_ms": ("ms", _call("cli.verify_pell", "ms")),
    "cli.find_periodic_ms": ("ms", _call("cli.find_periodic", "ms")),
    "cli.cross_validate_ms": ("ms", _call("cli.cross_validate", "ms")),
    "cli.output_bytes": ("bytes", lambda v: v.count("cli.output_bytes")),
}


def derive(tracer: Tracer, primary: str, others: list[str]) -> dict[str, tuple]:
    """name -> (value, unit, note) for every span-derived metric."""
    selfs = tracer.self_times_ns()
    views = {src: View(tracer, selfs, src) for src in [primary, *others]}
    out = {}
    for name, (unit, fn) in METRICS.items():
        value, note = fn(views[primary]), None
        if value is None:
            for src in others:
                value = fn(views[src])
                if value is not None:
                    note = f"layer not reached by {primary} ops; taken from {src} coverage ops"
                    break
        if value is None:
            note = "no span or count recorded"
        out[name] = (value, unit, note)
    return out
