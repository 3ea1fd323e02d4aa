"""End-to-end batch pipeline: ingest, spatial join, aggregation, profiles, models.

Artifacts are written to a staging directory, which replaces the output
directory as a whole only when the whole run succeeds, so failures leave no
partial outputs and a run leaves no file of an earlier one. All exports are
deterministic: fixed row order (sorted zone ids), floats at 6 significant
digits, and a manifest with content digests instead of timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import math
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import activity, ingest, landuse, spatial, stats
from .config import PipelineConfig, config_echo
from .errors import ConfigError, DataError
from .landuse import CATEGORIES
from .spatial import CityCentre, ZoneIndex, ZoneTable
from .tables import write_csv

logger = logging.getLogger(__name__)

ALL_STEPS = frozenset({"ingest", "aggregate", "profiles", "regress"})


def _sha256(path: Path) -> str:
    """The file's SHA-256, read into one reused 64 KiB buffer: no more is held at any size."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()


def parse_events_file(path, fmt: str | None, *,
                      sink: Callable[[ingest.EventBatch], None] | None = None,
                      write_back: bool = False
                      ) -> tuple[ingest.EventBatch | None, ingest.RejectionReport]:
    """Parse an event file; ``fmt=None`` infers csv or ndjson from the suffix.

    Without ``sink`` the file is parsed into one batch (:func:`ingest.parse_events`,
    every column). With it, each block of :func:`ingest.read_event_blocks` goes
    to ``sink`` as soon as it is parsed, carrying the write-back columns only
    when ``write_back`` asks for them, and no batch is returned (None). The
    report is complete either way.
    """
    if write_back and sink is None:
        raise ValueError("write_back applies to the blocks given to a sink")
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "ndjson"
    if sink is None:
        return ingest.parse_events(path, fmt)
    report = ingest.RejectionReport()
    for block in ingest.read_event_blocks(path, fmt, report, write_back=write_back):
        sink(block)
    return None, report


def assign_events(events: ingest.EventBatch, index: ZoneIndex, tz: str
                  ) -> tuple[activity.AssignedEvents, int, int]:
    """Locate every event in a zone and bin its local time, as whole arrays.

    Returns (assigned events in input order, out-of-coverage count, overlap
    warnings raised by this call). Out-of-coverage events are counted, not
    fatal. Zone codes index ``index.zone_ids``. When every event is found its
    ``users`` and ``epoch`` columns are used as they are, not copied.
    """
    zone_info = ingest.get_timezone(tz)
    overlaps_before = index.overlap_warnings
    codes = index.locate_codes(events.lon, events.lat)
    users, epoch = events.users, events.epoch
    found = codes >= 0
    if not found.all():
        users, codes, epoch = users[found], codes[found], epoch[found]
    assigned = activity.AssignedEvents(events.user_ids, index.zone_ids, users, codes,
                                       ingest.quarter_bins(epoch, zone_info))
    return (assigned, len(events) - len(assigned),
            index.overlap_warnings - overlaps_before)


class _Located:
    """The run's located events, appended a block at a time: the (user, zone,
    bin) codes, 9 B an event, and the funnel's counts."""

    def __init__(self, zone_ids: tuple[str, ...]):
        self.zone_ids = zone_ids
        self.user_ids: Sequence[str] = ()
        self.columns = (array("i"), array("i"), array("b"))
        self.workdays = self.unassigned = self.overlaps = 0

    def extend(self, workdays: int, assigned: activity.AssignedEvents, unassigned: int,
               overlaps: int) -> None:
        self.user_ids = assigned.user_ids
        for column, codes in zip(self.columns, (assigned.users, assigned.zones, assigned.bins)):
            column.frombytes(np.ascontiguousarray(codes, dtype=column.typecode).view(np.uint8))
        self.workdays += workdays
        self.unassigned += unassigned
        self.overlaps += overlaps

    def finish(self) -> activity.AssignedEvents:
        users, zones, bins = (np.frombuffer(column, dtype=column.typecode)
                              for column in self.columns)
        return activity.AssignedEvents(self.user_ids, self.zone_ids, users, zones, bins)


def _events_stage(config: PipelineConfig, index: ZoneIndex, write_to: Path | None
                  ) -> tuple[_Located, ingest.RejectionReport]:
    """Parse, workday-filter and locate the events a block at a time.

    Each parsed block goes through ``ingest.filter_workdays`` and
    ``assign_events`` at once and only its codes are kept, so no batch of the
    whole file exists. With ``write_to`` each workday block is also written
    there (``events_clean.ndjson``); only then do the blocks carry the
    write-back columns.
    """
    located = _Located(index.zone_ids)
    with (ingest.EventsWriter(write_to) if write_to else contextlib.nullcontext()) as writer:
        def locate(block: ingest.EventBatch) -> None:
            workdays = ingest.filter_workdays(block, config.timezone)
            if writer is not None:
                writer.write(workdays)
            located.extend(len(workdays), *assign_events(workdays, index, config.timezone))

        _, report = parse_events_file(config.events_path, config.events_format, sink=locate,
                                      write_back=writer is not None)
    return located, report


def load_census(path) -> dict[str, float]:
    """CSV with header zone_id,population: one row per zone_id, each population
    a finite number >= 0. A fault is fatal and names its line (both lines for a
    repeated zone_id)."""
    census: dict[str, float] = {}
    line_of: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # skips a byte-order mark
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"zone_id", "population"} <= set(reader.fieldnames):
                raise DataError(f"census file {path} must have columns zone_id,population")
            for row in reader:
                where = f"census file {path} line {reader.line_num}"
                raw = row["population"]
                try:
                    population = float(raw)
                except (TypeError, ValueError):
                    population = math.nan
                if not math.isfinite(population):
                    raise DataError(f"{where}: population "
                                    f"{'missing' if raw is None else repr(raw)} is not a "
                                    "finite number")
                if population < 0:
                    raise DataError(f"{where}: population {raw!r} is negative")
                zone_id = row["zone_id"]
                if zone_id in line_of:
                    raise DataError(f"census file {path} lines {line_of[zone_id]} and "
                                    f"{reader.line_num}: zone_id {zone_id!r} appears twice")
                line_of[zone_id] = reader.line_num
                census[zone_id] = population
    except OSError as exc:
        raise DataError(f"cannot read census file {path}: {exc}") from exc
    return census


# json.dumps(value, ensure_ascii=False) without its per-call set-up
_encode = json.JSONEncoder(ensure_ascii=False).encode
_LANDUSE_KEYS = [cat.column for cat in CATEGORIES]
_ZONE_PROPERTIES = frozenset(
    ["zone_id", "area_ha", "built_residential_m2", "built_total_m2", *_LANDUSE_KEYS])


def _json_floats(values: list[float]) -> list[str]:
    """json.dumps text of each float, from one encoder call (no float's text holds ", ")."""
    return _encode(values)[1:-1].split(", ") if values else []


def _json_values(values) -> list[str]:
    """json.dumps text per value, a float rounded first to float(format(v, ".6g"))."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return _json_floats(list(map(float, map("%.6g".__mod__, values.tolist()))))
    return [_encode(float(format(v, ".6g")) if isinstance(v, float) else v) for v in values]


# Features formatted at a time. At 5 vertices a zone (4,900 zones, 8 value
# columns) the export's traced peak is 0.50 MB at 128 features, 0.98 MB at 256
# and 3.85 MB at 1,024, for the same time within noise; in a fine-grid run the
# export then adds ~0.1 MB to the process peak, against 0.6 MB at 256
EXPORT_BLOCK_FEATURES = 128


def export_geojson(table: ZoneTable, columns: Mapping[str, Sequence], path) -> None:
    """Write zones with named per-zone value columns as a FeatureCollection.

    Each column is aligned with the table's sorted zone_ids; ``None`` is an
    explicit null. Float values print at 6 significant digits. Geometry and
    land-use properties round-trip through the zones loader. The text equals
    ``json.dumps`` of the whole FeatureCollection; it is formatted and written
    :data:`EXPORT_BLOCK_FEATURES` features at a time.
    """
    ids = table.zone_ids
    for name, values in columns.items():
        if name in _ZONE_PROPERTIES:
            raise DataError(f"column {name!r} would overwrite a zone property")
        if len(values) != len(ids):
            raise DataError(f"column {name!r} has {len(values)} values for {len(ids)} zones")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"type": "FeatureCollection", "features": [')
        sep = ""
        for lo in range(0, len(ids), EXPORT_BLOCK_FEATURES):
            hi = min(lo + EXPORT_BLOCK_FEATURES, len(ids))
            # every column of the block as JSON text, then one string per feature
            parts = [[_encode(z) for z in ids[lo:hi]]]
            for label in ("area_ha", "built_residential_m2", "built_total_m2"):
                parts.append([f', "{label}": {t}'
                              for t in _json_floats(getattr(table, label)[lo:hi].tolist())])
            zone_of, cat_of = np.nonzero(table.landuse_present[lo:hi])  # by zone, then category
            keyed = [f', "{_LANDUSE_KEYS[j]}": {t}' for j, t in zip(
                cat_of.tolist(), _json_floats(table.landuse_m2[lo + zone_of, cat_of].tolist()))]
            bounds = np.searchsorted(zone_of, np.arange(hi - lo + 1)).tolist()
            parts.append(["".join(keyed[a:b]) for a, b in zip(bounds, bounds[1:])])
            for name in sorted(columns):
                key = _encode(name)
                parts.append([f", {key}: {t}" for t in _json_values(columns[name][lo:hi])])
            # the block's rings and vertices, offset to its first ring and vertex
            rings = table.zone_ring_start[lo:hi + 1]
            starts = table.ring_start[rings[0]:rings[-1] + 1]
            lon, lat = map(_json_floats, table.vertices[starts[0]:starts[-1]].T.tolist())
            vertex = ["[" + x + ", " + y + "]" for x, y in zip(lon, lat)]
            starts = (starts - starts[0]).tolist()
            ring_texts = ["[" + ", ".join(vertex[a:b]) + "]" for a, b in zip(starts, starts[1:])]
            bounds = (rings - rings[0]).tolist()
            parts.append(['}, "geometry": {"type": "Polygon", "coordinates": ['
                          + ", ".join(ring_texts[a:b]) + "]}}" for a, b in zip(bounds, bounds[1:])])
            for row in zip(*parts):
                fh.write(sep + '{"type": "Feature", "properties": {"zone_id": ' + "".join(row))
                sep = ", "
        fh.write("]}")


def write_profiles_csv(path, profiles: Mapping[str, np.ndarray]) -> None:
    """``class,bin,share``: each label's 96 shares, labels in the mapping's order."""
    n_bins = activity.N_QUARTER_BINS
    write_csv(path, ["class", "bin", "share"],
              [[label for label in profiles for _ in range(n_bins)],
               np.tile(np.arange(n_bins), len(profiles)),
               np.array(list(profiles.values()), dtype=np.float64).reshape(-1)])


def write_quarter_csv(path, quarter: activity.QuarterCounts) -> None:
    """``zone_id,bin_0..bin_95``: one row of counts per zone, written a block of
    :meth:`~citypulse.activity.QuarterCounts.blocks` at a time."""
    ids, step = quarter.zone_ids, activity.PROFILE_BLOCK_ROWS
    write_csv(path, ["zone_id", *activity.QUARTER_LABELS],
              blocks=([ids[k * step:(k + 1) * step], *block.T]
                      for k, block in enumerate(quarter.blocks())))


def _write_model_csv(path, fit: stats.OlsFit, dropped: Sequence[str]) -> None:
    """One row per retained predictor, one blank row per predictor the first
    stepwise pass eliminated, then the fit's summary row."""
    header = ["predictor", "coefficient", "std_error", "t", "p", "vif",
              "r2", "adj_r2", "f", "f_p", "aic", "n"]
    per_predictor = (fit.coefficients, fit.std_errors, fit.t_stats, fit.p_values,
                     [fit.vif.get(name) for name in fit.names])
    summary = [*("%.6g" % v for v in (fit.r2, fit.adj_r2, fit.f_stat, fit.f_p_value, fit.aic)),
               str(fit.n)]
    below = [""] * (len(dropped) + 1)  # the dropped rows and the summary row
    above = [""] * (len(fit.names) + len(dropped))
    write_csv(path, header, [
        [*fit.names, *dropped, "(summary)"],
        *(["" if v is None else "%.6g" % v for v in values] + below for values in per_predictor),
        *(above + [text] for text in summary)])


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


def _check_output_dir(output_dir: Path, inputs: Iterable[str]) -> None:
    """Refuse an existing ``output_dir`` that holds an input of the run, or that is
    not empty and holds no citypulse ``manifest.json``: replacing it could lose data."""
    if not output_dir.exists():
        return
    if any(Path(path).resolve().is_relative_to(output_dir.resolve()) for path in inputs):
        raise ConfigError(f"output_dir {output_dir} holds an input of the run")
    if output_dir.is_dir() and not any(output_dir.iterdir()):
        return
    try:
        manifest = json.loads((output_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        manifest = None
    if not (isinstance(manifest, dict) and manifest.get("tool") == "citypulse"):
        raise ConfigError(f"output_dir {output_dir} is not an empty directory and holds "
                          "no citypulse manifest.json")


def run_pipeline(config: PipelineConfig, steps: Iterable[str] = ALL_STEPS) -> RunResult:
    """Run the requested pipeline steps and write artifacts atomically.

    Identical inputs and configuration produce byte-identical artifacts. The
    manifest records input digests, the configuration echo, row counts,
    warnings, and a digest of every output file. The ingest step alone also
    writes the workday events back as ``events_clean.ndjson``.
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
    census = None
    if "regress" in steps and config.census_path is not None:
        census = load_census(config.census_path)

    inputs = {"events": str(config.events_path), "zones": str(config.zones_path)}
    if config.census_path is not None:
        inputs["census"] = str(config.census_path)

    output_dir = Path(config.output_dir)
    _check_output_dir(output_dir, inputs.values())
    target = output_dir.resolve()  # a symlinked output_dir is replaced at its target
    target.parent.mkdir(parents=True, exist_ok=True)

    # the stage and the old output_dir live in one work directory, removed on exit
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".stage-") as work:
        stage = Path(work) / "out"
        stage.mkdir()

        # --- zones, then events --------------------------------------------
        # the zones load first, into a heap the events have not grown yet
        zones = spatial.load_zones_geojson(config.zones_path)
        index = spatial.build_zone_index(zones)
        zone_ids = zones.zone_ids
        codes = landuse.classify_zones(zones, config.predominance_threshold)

        # the events stream through the workday filter and the zone join; only
        # the ingest step writes the workday events back
        located, report = _events_stage(
            config, index, stage / "events_clean.ndjson" if steps == {"ingest"} else None)
        del index  # the index has no other user
        assigned = located.finish()
        report.write_csv(stage / "rejections.csv")
        counts["rows_total"] = report.total_rows
        counts["rows_rejected"] = report.rejected
        counts["events_parsed"] = report.parsed
        counts["events_workdays"] = located.workdays
        if report.rejected:
            warnings.append(f"{report.rejected} input rows rejected")
        counts["zones"] = len(zones)

        if config.centre_lon is not None:
            x0, y0, x1, y1 = zones.bbox.T
            if not (x0.min() <= config.centre_lon <= x1.max()
                    and y0.min() <= config.centre_lat <= y1.max()):
                warnings.append("configured city centre lies outside the zone coverage")

        unclassified = int(np.count_nonzero(codes < 0))
        counts["zones_unclassified"] = unclassified
        if unclassified:
            warnings.append(f"{unclassified} zones with zero built surface left unclassified")

        overlaps = located.overlaps
        counts["events_assigned"] = len(assigned)
        counts["events_unassigned"] = located.unassigned
        del located  # the codes live on in assigned alone
        counts["distinct_users"] = int(np.count_nonzero(
            np.bincount(assigned.users, minlength=len(assigned.user_ids))))
        counts["zone_overlap_warnings"] = overlaps
        if overlaps:
            warnings.append(f"{overlaps} points hit overlapping zones")

        slot_names = [s.name for s in config.slots]
        quarter = slot_matrix = normalized_slots = None

        if "aggregate" in steps:
            quarter = activity.count_unique_users(assigned)
            write_quarter_csv(stage / "activity_matrix.csv", quarter)
            slot_matrix = activity.aggregate_major_slots(assigned, config.slots)
            write_csv(stage / "slot_counts.csv", ["zone_id", *slot_matrix.bin_labels],
                      [slot_matrix.zone_ids, *slot_matrix.counts.T])
            normalized_slots = activity.normalize_counts(slot_matrix, config.normalization_total)
            write_csv(stage / "normalized_slots.csv", ["zone_id", *normalized_slots.bin_labels],
                      [normalized_slots.zone_ids, *normalized_slots.values.T])
            if normalized_slots.zero_bins:
                warnings.append("slots with no active users: " + ", ".join(
                    slot_names[i] for i in normalized_slots.zero_bins))
            described = [stats.slot_descriptives(normalized_slots.values[:, j], name)
                         for j, name in enumerate(slot_names)]
            measures = ["n_zones", "minimum", "maximum", "total", "mean", "std_dev"]
            write_csv(stage / "descriptives.csv", ["slot", *measures],
                      [slot_names, *(np.array([getattr(d, m) for d in described])
                                     for m in measures)])

        if "profiles" in steps:
            landuse.write_classification_csv(stage / "landuse_classes.csv", zones, codes)
            profiles, omitted = activity.landuse_profile(quarter, codes,
                                                         config.normalization_total)
            quarter = None  # the quarter-hour counts are not needed past the profiles
            write_profiles_csv(stage / "profiles.csv", {p.label: p.shares for p in profiles})
            if omitted:
                warnings.append("classes with no activity omitted from profiles: "
                                + ", ".join(omitted))
            day = activity.count_daily_unique(assigned)
            day_norm = activity.normalize_counts(day, config.normalization_total)
            class_totals = landuse.class_sums(codes, day_norm.values[:, 0])
            class_areas = landuse.class_sums(codes, zones.area_ha)
            densities, zero_area = activity.density_per_hectare(class_totals, class_areas)
            if zero_area:
                warnings.append("classes with zero area omitted from densities: "
                                + ", ".join(sorted(zero_area)))
            write_csv(stage / "density.csv",
                      ["class", "daily_normalized_users", "area_ha", "users_per_ha"],
                      [list(densities), np.array([class_totals[k] for k in densities]),
                       np.array([class_areas[k] for k in densities]),
                       np.array(list(densities.values()))])

        if "regress" in steps:
            # residential and mixed zones, codes 0 and 1. Homes are the last
            # count of the codes' one sorted key: the codes and the key go
            # before the fits' workspace comes.
            eligible = {z for z, c in zip(zone_ids, codes.tolist()) if c in (0, 1)}
            homes = stats.infer_homes(assigned, config.night_bins, eligible)
            del assigned
            baseline = "night" if "night" in slot_names else slot_names[-1]
            residual_header = ["zone_id", "residual", "std_residual"]
            base_col = slot_names.index(baseline)
            geo_columns: dict[str, object] = {"landuse_class": [
                landuse.CLASSES[c].key if c >= 0 else None for c in codes.tolist()]}
            for j, name in enumerate(slot_names):
                geo_columns[f"normalized_{name}"] = normalized_slots.values[:, j]
            # r² of slot j (row) on slot i (column) is their squared correlation;
            # a constant predictor slot has no fit (blank), a constant response r² 0.
            # corrcoef of a single slot is 0-d, hence atleast_2d.
            with np.errstate(divide="ignore", invalid="ignore"):
                r2 = np.atleast_2d(np.corrcoef(normalized_slots.values, rowvar=False)) ** 2
            flat = np.ptp(normalized_slots.values, axis=0) == 0.0
            cells = np.array([["%.6g" % v for v in row] for row in r2.tolist()], dtype=object)
            cells[flat, :] = "0"
            cells[:, flat] = ""
            np.fill_diagonal(cells, "1")
            write_csv(stage / "bivariate_r2.csv", ["slot", *slot_names],
                      [slot_names, *cells.T.tolist()])
            for j, name in enumerate(slot_names):
                if j == base_col:
                    continue
                try:
                    fit = stats.bivariate_slot_ols(normalized_slots.values[:, base_col],
                                                   normalized_slots.values[:, j])
                except DataError as exc:
                    warnings.append(f"bivariate {name} vs {baseline} skipped: {exc}")
                    continue
                write_csv(stage / f"residuals_{name}_vs_{baseline}.csv", residual_header,
                          [zone_ids, fit.residuals, fit.std_residuals])
                geo_columns[f"std_residual_{name}_vs_{baseline}"] = fit.std_residuals

            centre = CityCentre(config.centre_lon, config.centre_lat)
            areas = zones.landuse_m2
            distance = spatial.distances_to_centre(zones, centre)
            nonzero = [j for j in range(areas.shape[1]) if np.any(areas[:, j])]
            zero_cats = [CATEGORIES[j].value for j in range(areas.shape[1]) if j not in nonzero]
            if zero_cats:
                warnings.append("land-use categories absent from every zone: "
                                + ", ".join(zero_cats))
            predictor_names = [CATEGORIES[j].value for j in nonzero] + ["distance_to_centre"]
            X = np.column_stack([areas[:, nonzero], distance])
            for j, name in enumerate(slot_names):
                fit, dropped = stats.stepwise_fit(normalized_slots.values[:, j], X,
                                                  names=predictor_names, alpha=config.alpha)
                warnings.extend(f"model {name}: {w}" for w in fit.warnings)
                _write_model_csv(stage / f"model_{name}.csv", fit, dropped)
                write_csv(stage / f"model_{name}_residuals.csv", residual_header,
                          [zone_ids, fit.residuals, fit.std_residuals])

            code_of = {z: k for k, z in enumerate(zone_ids)}
            home_counts = np.bincount(
                np.fromiter((code_of[z] for z in homes.values()), np.int64, len(homes)),
                minlength=len(zone_ids))
            write_csv(stage / "home_counts.csv", ["zone_id", "inferred_homes"],
                      [zone_ids, home_counts])
            counts["users_with_home"] = len(homes)
            if census is not None:
                missing = [z for z in zone_ids if z not in census]
                if missing:
                    warnings.append(f"{len(missing)} zones missing from census default to 0")
                unknown = len(census.keys() - set(zone_ids))
                if unknown:
                    warnings.append(f"{unknown} census rows name zones not in the zones file "
                                    "and are ignored")
                x = home_counts.astype(float)
                y = np.array([census.get(z, 0.0) for z in zone_ids])
                try:
                    stats_out["census_home_r2"] = float("%.6g" % stats.census_correlation(x, y))
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
            "outputs": {p.name: _sha256(p) for p in sorted(stage.iterdir())},
        }
        (stage / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        # one directory commit: the old output_dir goes aside, and back if the stage
        # cannot take its place; it is removed with the work directory
        old = Path(work) / "old"
        if target.exists():
            os.rename(target, old)
        try:
            os.rename(stage, target)
        except BaseException:
            if old.exists():
                os.rename(old, target)
            raise

    logger.info("pipeline finished: %d artifacts in %s",
                len(manifest["outputs"]) + 1, output_dir)
    return RunResult(output_dir, manifest, warnings)
