"""Per-layer metrics from a traced pass.

A trace file holds, for each traced process in order, its spans (one JSON list
per line, see ``tracer.py``) followed by one JSON object with its lru cache
statistics.  A span's self time is its duration minus the durations of its
direct children (spans nest, since each process is single-threaded).  A
layer's busy time is the sum of the self times of its spans; ``other.busy_s``
is whatever part of the traced wall time no layer span covers: process
start-up before the first span, the worker's query dispatch, the tracer
itself, process exit, and the benchmark's own client.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

LAYERS = ("quadlattice", "enumeration", "weilrep", "heegner", "eisenstein", "verify", "cli")
# The cyclotomic field arithmetic is counted with the Weil representation.
LAYER_OF_MODULE = {**{m: m for m in LAYERS}, "cyclotomic": "weilrep"}

SUITES = (("volume", "verify.suite_volume_formula", None),
          ("siegelweil", "verify.suite_siegel_weil", None),
          ("cup-A2", "verify.suite_cup_product", "A2"),
          ("cup-E8", "verify.suite_cup_product", "E8"),
          ("weilrep", "verify.suite_weilrep", None))

PER_LAYER = (
    *((f"verify.suite_s.{label}", "s") for label, _, _ in SUITES),
    ("verify.busy_s", "s"),
    ("enumeration.busy_s", "s"),
    ("enumeration.calls", "count"),
    ("enumeration.vectors", "count"),
    ("enumeration.ns_per_vector", "ns"),
    ("enumeration.hist_pairs", "count"),
    ("enumeration.cache_hit_ratio", "ratio"),
    ("heegner.busy_s", "s"),
    ("heegner.calls", "count"),
    ("heegner.classes", "count"),
    ("heegner.ms_per_class", "ms"),
    ("heegner.cache_hit_ratio", "ratio"),
    ("heegner.growth_exp_d", "exponent"),
    ("weilrep.busy_s", "s"),
    ("weilrep.calls", "count"),
    ("cyclotomic.products_computed", "count"),
    ("weilrep.us_per_product", "us"),
    ("weilrep.growth_exp_D", "exponent"),
    ("eisenstein.busy_s", "s"),
    ("eisenstein.calls", "count"),
    ("eisenstein.density_residues_computed", "count"),
    ("eisenstein.growth_exp_pk", "exponent"),
    ("eisenstein.cache_hit_ratio", "ratio"),
    ("quadlattice.busy_s", "s"),
    ("quadlattice.cosets", "count"),
    ("cli.busy_s", "s"),
    ("cli.startup_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.cache_get_ms", "ms"),
    ("cli.cache_put_ms", "ms"),
    ("cli.cache_bytes_written", "bytes"),
    ("cli.compute_ms", "ms"),
    ("cli.cache_hit_ratio", "ratio"),
    ("cache.hit_p50_ms", "ms"),
    ("cache.miss_p50_ms", "ms"),
    ("other.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)

CACHE_GROUPS = {
    "enumeration": ("enumeration.theta_qseries", "enumeration.inner_product_histogram"),
    "heegner": ("heegner.heegner_cycle", "heegner.gamma0_classes"),
    "eisenstein": ("eisenstein.hurwitz", "eisenstein.cohen_number", "eisenstein.reduced_forms"),
}


def read_trace(path) -> list[tuple[list, dict]]:
    """Split a trace file into (spans, caches) per traced process."""
    groups, spans = [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, list):
                spans.append(rec)
            else:
                groups.append((spans, rec["caches"]))
                spans = []
    return groups


def layer_of(name: str) -> str | None:
    return LAYER_OF_MODULE.get(name.split(".", 1)[0])


def self_times(spans: list) -> dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    child = defaultdict(int)
    for sid, parent, _name, t0, t1, _tag in spans:
        child[parent] += t1 - t0
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(groups, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traced`` is that pass's result; its ``process_labels`` give each traced
    process's disk-cache role ("hit", "miss" or None), detected from outside.
    ``untraced`` is the untraced pass over the same inputs, which supplies the
    hit/miss latencies and the base of ``trace_overhead_ratio``.
    """
    labels = traced.process_labels
    busy = defaultdict(float)
    calls = defaultdict(int)
    dur = defaultdict(float)  # total (not self) seconds per span name
    work = defaultdict(float)
    fits = defaultdict(list)
    startup, numpy_ms, get_ms, put_ms, compute_ms = [], [], [], [], []
    cache_stats = defaultdict(lambda: [0, 0])
    for (spans, caches), label in zip(groups, labels):
        selfs = self_times(spans)
        names = {s[0]: s[2] for s in spans}
        compute = 0.0
        for sid, parent, name, t0, t1, tag in spans:
            seconds = (t1 - t0) / 1e9
            layer = layer_of(name)
            if layer is not None:
                busy[layer] += selfs[sid] / 1e9
                if name.count(".") == 1:  # module functions, not methods
                    calls[layer] += 1
                if layer != "cli" and layer_of(names.get(parent, "")) == "cli":
                    compute += seconds
            tag = tag or {}
            dur[f"{name}:{tag['lattice']}" if "lattice" in tag else name] += seconds
            if tag.get("hit") or tag.get("error"):
                continue
            if name == "enumeration.inner_product_histogram":
                work["hist_pairs"] += tag["pairs"]
            elif "vectors" in tag:
                work["vectors"] += tag["vectors"]
            elif name == "heegner.heegner_cycle":
                work["classes"] += tag["classes"]
                if tag["N"] == 1:
                    fits["d"].append((tag["d"], seconds))
            elif name == "weilrep.verify_relations":
                fits["D"].append((tag["D"], seconds))
            elif name == "weilrep.WeilRepMatrix.__matmul__":
                work["products"] += tag["D"] ** 3
            elif name == "eisenstein.local_density" and tag["generic"]:
                p = tag["p"]
                work["residues"] += sum(tag["rank"] * p ** k for k in range(1, tag["levels"] + 1))
                fits["pk"].append((p ** tag["k0"], seconds))
            elif name == "quadlattice.discriminant_form":
                work["cosets"] += tag["cosets"]
            elif name == "cli.startup":
                startup.append(seconds * 1e3)
            elif name == "cli.import_numpy":
                numpy_ms.append(seconds * 1e3)
            elif name == "cli.ResultCache.get" and tag.get("found"):
                get_ms.append(seconds * 1e3)
            elif name == "cli.ResultCache.put":
                put_ms.append(seconds * 1e3)
        if label == "miss":
            compute_ms.append(compute * 1e3)
        for layer, fn_names in CACHE_GROUPS.items():
            for fn in fn_names:
                info = caches.get(fn, {})
                cache_stats[layer][0] += info.get("hits", 0)
                cache_stats[layer][1] += info.get("hits", 0) + info.get("misses", 0)

    m = {}
    for label, name, lattice in SUITES:
        m[f"verify.suite_s.{label}"] = dur[f"{name}:{lattice}" if lattice else name]
    m["verify.busy_s"] = busy["verify"]
    m["enumeration.busy_s"] = busy["enumeration"]
    m["enumeration.calls"] = calls["enumeration"]
    m["enumeration.vectors"] = work["vectors"]
    m["enumeration.ns_per_vector"] = _ratio(busy["enumeration"] * 1e9, work["vectors"])
    m["enumeration.hist_pairs"] = work["hist_pairs"]
    m["enumeration.cache_hit_ratio"] = _ratio(*cache_stats["enumeration"])
    m["heegner.busy_s"] = busy["heegner"]
    m["heegner.calls"] = calls["heegner"]
    m["heegner.classes"] = work["classes"]
    m["heegner.ms_per_class"] = _ratio(busy["heegner"] * 1e3, work["classes"])
    m["heegner.cache_hit_ratio"] = _ratio(*cache_stats["heegner"])
    m["heegner.growth_exp_d"] = growth_exponent(fits["d"])
    m["weilrep.busy_s"] = busy["weilrep"]
    m["weilrep.calls"] = calls["weilrep"]
    m["cyclotomic.products_computed"] = work["products"]
    m["weilrep.us_per_product"] = _ratio(busy["weilrep"] * 1e6, work["products"])
    m["weilrep.growth_exp_D"] = growth_exponent(fits["D"])
    m["eisenstein.busy_s"] = busy["eisenstein"]
    m["eisenstein.calls"] = calls["eisenstein"]
    m["eisenstein.density_residues_computed"] = work["residues"]
    m["eisenstein.growth_exp_pk"] = growth_exponent(fits["pk"])
    m["eisenstein.cache_hit_ratio"] = _ratio(*cache_stats["eisenstein"])
    m["quadlattice.busy_s"] = busy["quadlattice"]
    m["quadlattice.cosets"] = work["cosets"]
    m["cli.busy_s"] = busy["cli"]
    m["cli.startup_ms"] = _median(startup)
    m["cli.import_numpy_ms"] = _median(numpy_ms)
    m["cli.cache_get_ms"] = _median(get_ms)
    m["cli.cache_put_ms"] = _median(put_ms)
    m["cli.cache_bytes_written"] = traced.cache_bytes
    m["cli.compute_ms"] = _median(compute_ms)
    m["cli.cache_hit_ratio"] = _ratio(labels.count("hit"), labels.count("hit") + labels.count("miss"))
    cacheable = [op for op in untraced.ops if op.cache is not None]
    m["cache.hit_p50_ms"] = _median(op.seconds * 1e3 for op in cacheable if op.cache == "hit")
    m["cache.miss_p50_ms"] = _median(op.seconds * 1e3 for op in cacheable if op.cache == "miss")
    m["other.busy_s"] = traced.wall - sum(busy[layer] for layer in LAYERS)
    m["trace.wall_s"] = traced.wall
    m["trace_overhead_ratio"] = _ratio(traced.wall, untraced.wall)
    return m
