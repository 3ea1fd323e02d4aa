"""End-to-end batch pipeline: ingest, spatial join, aggregation, profiles, models.

Artifacts are written to a staging directory and moved into place only when
the whole run succeeds, so failures leave no partial outputs. All exports are
deterministic: fixed row order (sorted zone ids), floats at 6 significant
digits, and a manifest with content digests instead of timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import activity, ingest, landuse, spatial, stats
from .config import PipelineConfig, config_echo
from .errors import ConfigError, DataError
from .landuse import CATEGORIES
from .spatial import CityCentre, Zone, ZoneIndex

logger = logging.getLogger(__name__)

ALL_STEPS = frozenset({"ingest", "aggregate", "profiles", "regress"})


def _fmt(x) -> str:
    """Floats at 6 significant digits; keeps golden files stable."""
    return format(float(x), ".6g")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_events_file(path, fmt: str | None
                      ) -> tuple[ingest.EventBatch, ingest.RejectionReport]:
    """Parse an event file; ``fmt=None`` infers csv or ndjson from the suffix."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "ndjson"
    return ingest.parse_events(path, fmt)


def assign_events(events: ingest.EventBatch, index: ZoneIndex, tz: str
                  ) -> tuple[activity.AssignedEvents, int, int]:
    """Locate every event in a zone and bin its local time, as whole arrays.

    Returns (assigned events in input order, out-of-coverage count, overlap
    warnings raised by this call). Out-of-coverage events are counted, not
    fatal. Zone codes index ``index.zone_ids``.
    """
    zone_info = ingest.get_timezone(tz)
    overlaps_before = index.overlap_warnings
    codes = index.locate_codes(events.lon, events.lat)
    found = codes >= 0
    assigned = activity.AssignedEvents(
        events.user_ids, index.zone_ids, events.users[found], codes[found],
        ingest.quarter_bins(events.epoch[found], zone_info))
    return (assigned, len(events) - len(assigned),
            index.overlap_warnings - overlaps_before)


def load_census(path) -> dict[str, float]:
    """CSV with header zone_id,population."""
    census: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"zone_id", "population"} <= set(reader.fieldnames):
                raise DataError(f"census file {path} must have columns zone_id,population")
            for row in reader:
                census[row["zone_id"]] = float(row["population"])
    except OSError as exc:
        raise DataError(f"cannot read census file {path}: {exc}") from exc
    return census


def export_geojson(zones: Sequence[Zone],
                   columns: Mapping[str, Mapping[str, object]],
                   path) -> None:
    """Write zones with named per-zone value columns as a FeatureCollection.

    A column value for an unknown zone_id is fatal; zones missing a value get
    an explicit null. Geometry and land-use properties round-trip through the
    zones loader.
    """
    known = {z.zone_id for z in zones}
    for name, values in columns.items():
        unknown = sorted(set(values) - known)
        if unknown:
            raise DataError(f"column {name!r} references unknown zone_id(s): "
                            f"{', '.join(unknown[:5])}")
    features = []
    for zone in sorted(zones, key=lambda z: z.zone_id):
        props: dict[str, object] = {
            "zone_id": zone.zone_id,
            "area_ha": zone.area_ha,
            "built_residential_m2": zone.built_residential_m2,
            "built_total_m2": zone.built_total_m2,
        }
        for cat in CATEGORIES:
            if cat in zone.landuse_m2:
                props[cat.column] = zone.landuse_m2[cat]
        for name in sorted(columns):
            value = columns[name].get(zone.zone_id)
            if isinstance(value, float):
                value = float(_fmt(value))
            props[name] = value
        features.append({
            "type": "Feature",
            "properties": props,
            "geometry": {"type": "Polygon",
                         "coordinates": [[list(p) for p in ring] for ring in zone.rings]},
        })
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def _write_matrix_csv(path, zone_ids, labels, array, integer=False) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zone_id", *labels])
        # one row at a time: the whole matrix as Python objects would cost
        # megabytes at thousands of zones
        for zone_id, row in zip(zone_ids, array):
            values = row.tolist()
            writer.writerow([zone_id, *(values if integer else map(_fmt, values))])


def _write_profiles_csv(path, profiles: Sequence[activity.TemporalProfile]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "bin", "share"])
        for profile in profiles:
            for b, share in enumerate(profile.shares):
                writer.writerow([profile.label, b, _fmt(share)])


def _write_model_csv(path, fit: stats.OlsFit, dropped: Sequence[str]) -> None:
    header = ["predictor", "coefficient", "std_error", "t", "p", "vif",
              "r2", "adj_r2", "f", "f_p", "aic", "n"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, name in enumerate(fit.names):
            vif = fit.vif.get(name)
            writer.writerow([name, _fmt(fit.coefficients[i]), _fmt(fit.std_errors[i]),
                             _fmt(fit.t_stats[i]), _fmt(fit.p_values[i]),
                             _fmt(vif) if vif is not None else "",
                             "", "", "", "", "", ""])
        # predictors eliminated in the first stepwise pass stay listed, blank
        for name in dropped:
            writer.writerow([name, "", "", "", "", "", "", "", "", "", "", ""])
        writer.writerow(["(summary)", "", "", "", "", "",
                         _fmt(fit.r2), _fmt(fit.adj_r2), _fmt(fit.f_stat),
                         _fmt(fit.f_p_value), _fmt(fit.aic), fit.n])


def _write_residuals_csv(path, zone_ids, residuals, std_residuals) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zone_id", "residual", "std_residual"])
        for zone_id, res, std in zip(zone_ids, residuals.tolist(), std_residuals.tolist()):
            writer.writerow([zone_id, _fmt(res), _fmt(std)])


@dataclass
class RunResult:
    output_dir: Path
    manifest: dict
    warnings: list[str] = field(default_factory=list)


def _normalize_steps(steps: Iterable[str]) -> set[str]:
    steps = set(steps)
    unknown = steps - ALL_STEPS
    if unknown:
        raise ConfigError(f"unknown pipeline step(s): {', '.join(sorted(unknown))}")
    if steps & {"profiles", "regress"}:
        steps.add("aggregate")
    if "aggregate" in steps:
        steps.add("ingest")
    return steps


def run_pipeline(config: PipelineConfig,
                 steps: Iterable[str] = ALL_STEPS,
                 write_clean_events: bool = False) -> RunResult:
    """Run the requested pipeline steps and write artifacts atomically.

    Identical inputs and configuration produce byte-identical artifacts. The
    manifest records input digests, the configuration echo, row counts,
    warnings, and a digest of every output file.
    """
    config.validate()
    steps = _normalize_steps(steps)
    warnings: list[str] = []
    counts: dict[str, object] = {}
    stats_out: dict[str, object] = {}

    if config.events_path is None or not Path(config.events_path).exists():
        raise DataError(f"events file not found: {config.events_path}")
    if config.zones_path is None or not Path(config.zones_path).exists():
        raise DataError(f"zones file not found: {config.zones_path}")
    if config.census_path is not None and not Path(config.census_path).exists():
        raise DataError(f"census file not found: {config.census_path}")
    if "regress" in steps and config.centre_lon is None:
        raise ConfigError("regression requires centre_lon and centre_lat")

    inputs = {"events": str(config.events_path), "zones": str(config.zones_path)}
    if config.census_path is not None:
        inputs["census"] = str(config.census_path)

    output_dir = Path(config.output_dir)
    output_dir.parent.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=output_dir.parent, prefix=".stage-") as stage_name:
        stage = Path(stage_name)

        # --- ingest ---------------------------------------------------------
        events, report = parse_events_file(config.events_path, config.events_format)
        workday_events = ingest.filter_workdays(events, config.timezone)
        report.write_csv(stage / "rejections.csv")
        if write_clean_events:
            ingest.write_events_ndjson(workday_events.events(), stage / "events_clean.ndjson")
        counts["rows_total"] = report.total_rows
        counts["rows_rejected"] = report.rejected
        counts["events_parsed"] = report.parsed
        counts["events_workdays"] = len(workday_events)
        if report.rejected:
            warnings.append(f"{report.rejected} input rows rejected")

        zones = spatial.load_zones_geojson(config.zones_path)
        zones_by_id = {z.zone_id: z for z in zones}
        index = spatial.build_zone_index(zones)
        zone_ids = index.zone_ids
        counts["zones"] = len(zones)

        if config.centre_lon is not None:
            x0, y0, x1, y1 = zip(*(z.bbox() for z in zones))
            if not (min(x0) <= config.centre_lon <= max(x1)
                    and min(y0) <= config.centre_lat <= max(y1)):
                warnings.append("configured city centre lies outside the zone coverage")

        classes, unclassified = landuse.classify_zones(
            zones, config.predominance_threshold)
        counts["zones_unclassified"] = len(unclassified)
        if unclassified:
            warnings.append(
                f"{len(unclassified)} zones with zero built surface left unclassified")

        assigned, unassigned, overlaps = assign_events(
            workday_events, index, config.timezone)
        counts["events_assigned"] = len(assigned)
        counts["events_unassigned"] = unassigned
        counts["distinct_users"] = len(np.unique(assigned.users))
        counts["zone_overlap_warnings"] = overlaps
        if overlaps:
            warnings.append(f"{overlaps} points hit overlapping zones")

        slot_names = [s.name for s in config.slots]
        quarter = slot_matrix = normalized_slots = None

        if "aggregate" in steps:
            quarter = activity.count_unique_users(assigned)
            _write_matrix_csv(stage / "activity_matrix.csv", quarter.zone_ids,
                              quarter.bin_labels, quarter.counts, integer=True)
            slot_matrix = activity.aggregate_major_slots(assigned, config.slots)
            _write_matrix_csv(stage / "slot_counts.csv", slot_matrix.zone_ids,
                              slot_matrix.bin_labels, slot_matrix.counts, integer=True)
            normalized_slots = activity.normalize_counts(slot_matrix, config.normalization_total)
            _write_matrix_csv(stage / "normalized_slots.csv", normalized_slots.zone_ids,
                              normalized_slots.bin_labels, normalized_slots.values)
            if normalized_slots.zero_bins:
                warnings.append("slots with no active users: " + ", ".join(
                    slot_names[i] for i in normalized_slots.zero_bins))
            with open(stage / "descriptives.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["slot", "n_zones", "minimum", "maximum",
                                 "total", "mean", "std_dev"])
                for j, name in enumerate(slot_names):
                    d = stats.slot_descriptives(normalized_slots.values[:, j], name)
                    writer.writerow([name, d.n_zones, _fmt(d.minimum), _fmt(d.maximum),
                                     _fmt(d.total), _fmt(d.mean), _fmt(d.std_dev)])

        if "profiles" in steps:
            landuse.write_classification_csv(stage / "landuse_classes.csv", zones, classes)
            normalized_quarter = activity.normalize_counts(quarter, config.normalization_total)
            profiles, omitted = activity.landuse_profile(normalized_quarter, classes)
            _write_profiles_csv(stage / "profiles.csv", profiles)
            if omitted:
                warnings.append("classes with no activity omitted from profiles: "
                                + ", ".join(omitted))
            day = activity.count_daily_unique(assigned)
            day_norm = activity.normalize_counts(day, config.normalization_total)
            class_totals: dict[str, float] = {}
            class_areas: dict[str, float] = {}
            for i, zone_id in enumerate(day_norm.zone_ids):
                cls = classes.get(zone_id)
                if cls is None:
                    continue
                labels = [cls.kind] + ([cls.key] if cls.kind == "activity" else [])
                for label in labels:
                    class_totals[label] = class_totals.get(label, 0.0) + float(day_norm.values[i, 0])
                    class_areas[label] = class_areas.get(label, 0.0) + zones_by_id[zone_id].area_ha
            densities, zero_area = activity.density_per_hectare(class_totals, class_areas)
            if zero_area:
                warnings.append("classes with zero area omitted from densities: "
                                + ", ".join(sorted(zero_area)))
            with open(stage / "density.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["class", "daily_normalized_users", "area_ha", "users_per_ha"])
                for label in activity.profile_labels(classes):
                    if label in densities:
                        writer.writerow([label, _fmt(class_totals[label]),
                                         _fmt(class_areas[label]), _fmt(densities[label])])

        if "regress" in steps:
            baseline = "night" if "night" in slot_names else slot_names[-1]
            base_col = slot_names.index(baseline)
            geo_columns: dict[str, dict[str, object]] = {
                "landuse_class": {z: classes[z].key for z in zone_ids if z in classes}}
            for j, name in enumerate(slot_names):
                geo_columns[f"normalized_{name}"] = {
                    z: float(normalized_slots.values[i, j]) for i, z in enumerate(zone_ids)}
            # r² of slot j on slot i is their squared correlation; a constant
            # predictor slot has no fit (blank), a constant response r² 0
            with np.errstate(divide="ignore", invalid="ignore"):
                r2 = np.corrcoef(normalized_slots.values, rowvar=False) ** 2
            flat = np.ptp(normalized_slots.values, axis=0) == 0.0
            with open(stage / "bivariate_r2.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["slot", *slot_names])
                for j, name in enumerate(slot_names):
                    row = [name]
                    for i in range(len(slot_names)):
                        if i == j:
                            row.append("1")
                        elif flat[i]:
                            row.append("")
                        elif flat[j]:
                            row.append("0")
                        else:
                            row.append(_fmt(r2[j, i]))
                    writer.writerow(row)
            for j, name in enumerate(slot_names):
                if j == base_col:
                    continue
                try:
                    fit = stats.bivariate_slot_ols(normalized_slots.values[:, base_col],
                                                   normalized_slots.values[:, j])
                except DataError as exc:
                    warnings.append(f"bivariate {name} vs {baseline} skipped: {exc}")
                    continue
                _write_residuals_csv(stage / f"residuals_{name}_vs_{baseline}.csv",
                                     zone_ids, fit.residuals, fit.std_residuals)
                geo_columns[f"std_residual_{name}_vs_{baseline}"] = {
                    z: float(fit.std_residuals[i]) for i, z in enumerate(zone_ids)}

            centre = CityCentre(config.centre_lon, config.centre_lat)
            table_ids, table = landuse.landuse_area_table(zones)
            distance = np.array([spatial.distance_to_centre(zones_by_id[z], centre)
                                 for z in table_ids])
            nonzero = [j for j in range(table.shape[1]) if np.any(table[:, j])]
            zero_cats = [CATEGORIES[j].value for j in range(table.shape[1]) if j not in nonzero]
            if zero_cats:
                warnings.append("land-use categories absent from every zone: "
                                + ", ".join(zero_cats))
            predictor_names = [CATEGORIES[j].value for j in nonzero] + ["distance_to_centre"]
            X = np.column_stack([table[:, nonzero], distance])
            for j, name in enumerate(slot_names):
                fit, dropped = stats.stepwise_fit(normalized_slots.values[:, j], X,
                                                  names=predictor_names, alpha=config.alpha)
                warnings.extend(f"model {name}: {w}" for w in fit.warnings)
                _write_model_csv(stage / f"model_{name}.csv", fit, dropped)
                spread = float(np.std(fit.residuals))
                std_res = fit.residuals / spread if spread > 0 else np.zeros_like(fit.residuals)
                _write_residuals_csv(stage / f"model_{name}_residuals.csv",
                                     zone_ids, fit.residuals, std_res)

            eligible = {z for z, cls in classes.items() if cls.kind in ("residential", "mixed")}
            homes = stats.infer_homes(assigned, config.night_bins, eligible)
            home_counts = {z: 0 for z in zone_ids}
            for zone_id in homes.values():
                home_counts[zone_id] += 1
            with open(stage / "home_counts.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["zone_id", "inferred_homes"])
                for zone_id in zone_ids:
                    writer.writerow([zone_id, home_counts[zone_id]])
            counts["users_with_home"] = len(homes)
            if config.census_path is not None:
                census = load_census(config.census_path)
                missing = [z for z in zone_ids if z not in census]
                if missing:
                    warnings.append(f"{len(missing)} zones missing from census default to 0")
                x = np.array([home_counts[z] for z in zone_ids], dtype=float)
                y = np.array([census.get(z, 0.0) for z in zone_ids])
                try:
                    stats_out["census_home_r2"] = float(_fmt(stats.census_correlation(x, y)))
                except DataError as exc:
                    warnings.append(f"census correlation skipped: {exc}")

            export_geojson(zones, geo_columns, stage / "zones_metrics.geojson")

        manifest = {
            "tool": "citypulse",
            "steps": sorted(steps),
            "inputs": {name: {"path": path, "sha256": _sha256(Path(path))}
                       for name, path in inputs.items()},
            "config": config_echo(config),
            "counts": counts,
            "stats": stats_out,
            "warnings": warnings,
            "outputs": {},
        }
        staged = sorted(p for p in stage.iterdir() if p.is_file())
        manifest["outputs"] = {p.name: _sha256(p) for p in staged}
        (stage / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

        output_dir.mkdir(parents=True, exist_ok=True)
        for path in [*staged, stage / "manifest.json"]:
            os.replace(path, output_dir / path.name)

    logger.info("pipeline finished: %d artifacts in %s",
                len(manifest["outputs"]) + 1, output_dir)
    return RunResult(output_dir, manifest, warnings)
