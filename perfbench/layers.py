"""Traced run: wrap each layer's public entry points and reduce spans to metrics.

Entry points are replaced by module attribute from the benchmark's side, so
nothing under ``src/`` changes. Callers that look the function up on its
module at call time (``pipeline`` calls ``ingest.filter_workdays``, the CLI
calls ``pipeline.run_pipeline``) pass through the wrapper. A wrapped name that
no longer exists is recorded as missing and the metrics built on it are left
out; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

# (module, attribute, layer, metric for its summed wall time). The first entry
# is the root span; ``pipeline.self_s`` is its time minus its wrapped children.
ENTRY_POINTS = (
    ("pipeline", "run_pipeline", "pipeline", None),
    ("pipeline", "parse_events_file", "ingest", "ingest.parse_s"),
    ("ingest", "filter_workdays", "ingest", "ingest.workday_s"),
    ("spatial", "load_zones_geojson", "spatial", "spatial.load_s"),
    ("spatial", "build_zone_index", "spatial", "spatial.index_s"),
    ("pipeline", "assign_events", "spatial", "spatial.assign_s"),
    ("landuse", "classify_zones", "landuse", "landuse.classify_s"),
    ("activity", "count_unique_users", "activity", "activity.quarter_s"),
    ("activity", "aggregate_major_slots", "activity", "activity.slot_s"),
    ("activity", "count_daily_unique", "activity", "activity.day_s"),
    ("activity", "normalize_counts", "activity", "activity.normalize_s"),
    ("activity", "landuse_profile", "activity", "activity.profile_s"),
    ("stats", "infer_homes", "stats", "stats.homes_s"),
    ("stats", "stepwise_fit", "stats", "stats.stepwise_s"),
    ("stats", "bivariate_slot_ols", "stats", "stats.bivariate_s"),
    ("pipeline", "export_geojson", "pipeline", "pipeline.export_geojson_s"),
)
ROOT = "pipeline.run_pipeline"
LAYERS = ("cli", "ingest", "spatial", "landuse", "activity", "stats", "pipeline")


def _count_parse(args, result):
    _events, report = result
    return {"rows": report.total_rows, "rejected": report.rejected}


def _count_workdays(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _count_assign(args, result):
    return {"in": len(args[0]), "assigned": len(result[0])}


def _count_homes(args, result):
    return {"users": len(result)}


# Counts read off the arguments and results at the same boundaries.
COUNTERS = {
    "pipeline.parse_events_file": _count_parse,
    "ingest.filter_workdays": _count_workdays,
    "pipeline.assign_events": _count_assign,
    "stats.infer_homes": _count_homes,
}


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Keeps one span per wrapped call in memory: name, start, end, parent, run id."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self, package: str = "citypulse") -> None:
        for module_name, attr, _layer, _metric in ENTRY_POINTS:
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
            if callable(fn):
                setattr(module, attr, self._wrap(fn, name))
            else:
                self.missing.append(name)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            rss0 = maxrss_kb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_growth_kb"] = maxrss_kb() - rss0
                self._stack.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, result)
                except (TypeError, AttributeError, IndexError, ValueError):
                    pass  # the entry point's shape changed; its counts go absent
            return result

        return traced


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _self_values(spans: list[dict], key) -> dict[int, float]:
    """Per span: its own value minus what its direct children account for."""
    own = {s["id"]: key(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= key(s)
    return own


def layer_metrics(spans: list[dict], missing: list[str], child: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child; absent ones are left out."""
    layer_of = {f"{m}.{a}": layer for m, a, layer, _ in ENTRY_POINTS}
    wrapped = set(layer_of) - set(missing)
    total: dict[str, float] = {name: 0.0 for name in wrapped}
    counts: dict[str, dict] = {}
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        if "counts" in s:
            acc = counts.setdefault(s["name"], {})
            for k, v in s["counts"].items():
                acc[k] = acc.get(k, 0) + v

    out: dict[str, float] = {
        "cli.import_s": child["import_s"],
        "cli.rss_growth_mb": (child["rss_import_kb"] - child["rss_start_kb"]) / 1024,
    }
    for module_name, attr, _layer, metric in ENTRY_POINTS:
        if metric and f"{module_name}.{attr}" in wrapped:
            out[metric] = total[f"{module_name}.{attr}"]
    dedup = ("activity.quarter_s", "activity.slot_s", "activity.day_s")
    if all(m in out for m in dedup):
        out["activity.dedup_s"] = sum(out[m] for m in dedup)

    parse = counts.get("pipeline.parse_events_file")
    if parse:
        out["ingest.rows"] = parse["rows"]
        out["ingest.rejected"] = parse["rejected"]
        if total["pipeline.parse_events_file"] > 0:
            out["ingest.rows_per_s"] = parse["rows"] / total["pipeline.parse_events_file"]
    workday = counts.get("ingest.filter_workdays")
    if workday and workday["in"]:
        out["ingest.workday_kept_ratio"] = workday["out"] / workday["in"]
    assign = counts.get("pipeline.assign_events")
    if assign and assign["in"]:
        out["spatial.assigned_ratio"] = assign["assigned"] / assign["in"]
    homes = counts.get("stats.infer_homes")
    if homes:
        out["stats.users_with_home"] = homes["users"]

    if ROOT in wrapped and spans:
        self_time = _self_values(spans, lambda s: s["end"] - s["start"])
        self_rss = _self_values(spans, lambda s: s["rss_growth_kb"])
        out["pipeline.self_s"] = sum(v for i, v in self_time.items()
                                     if spans[i]["name"] == ROOT)
        for layer in LAYERS[1:]:
            out[f"{layer}.rss_growth_mb"] = sum(
                v for i, v in self_rss.items() if layer_of[spans[i]["name"]] == layer) / 1024
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per wrapped entry point, summed over its calls."""
    own = _self_values(spans, lambda s: s["end"] - s["start"])
    out: dict[str, float] = {}
    for i, v in own.items():
        out[spans[i]["name"]] = out.get(spans[i]["name"], 0.0) + v
    return out
