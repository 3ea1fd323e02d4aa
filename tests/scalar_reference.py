"""The scalar twins of citypulse's array rules, kept as differential-test references.

Each function here does for one zone or one event what the package does on
whole arrays: validate a zone, read one row of a zone table, locate a point
in a polygon or a zone index, take a polygon's centroid and its distance to
the centre, classify a zone, bin a timestamp, build a batch from checked event
rows, read an events file as one batch, encode located events, count
distinct users into a dense matrix and spell out quarter-hour counts cell by
cell. Nothing in the package calls them; the tests compare the array code
against them. The last section fits the intercept-only model in closed form
and reads single values off an OLS fit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import datetime
from typing import Iterable, Sequence
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np

from citypulse import ingest
from citypulse.activity import (N_QUARTER_BINS, QUARTER_LABELS, ActivityMatrix, AssignedEvents,
                                QuarterCounts)
from citypulse.errors import CityPulseError, DataError
from citypulse.ingest import EventBatch, GeoEvent, RejectionReport, _BatchBuilder, get_timezone
from citypulse.landuse import ACTIVITY_CATEGORIES, CATEGORIES, PREDOMINANCE_THRESHOLD
from citypulse.spatial import CityCentre, Ring, Zone, ZoneIndex, ZoneTable, haversine_m
from citypulse.stats import OlsFit, _t_two_sided

from timestamp_reference import instant

# --- zones ----------------------------------------------------------------------


def validate(zone: Zone) -> None:
    """Raise the DataError of the first rule the zone breaks, rules in order."""
    if not zone.rings:
        raise DataError(f"zone {zone.zone_id!r}: no geometry")
    for ring in zone.rings:
        if not all(math.isfinite(v) for point in ring for v in point):
            raise DataError(f"zone {zone.zone_id!r}: non-finite vertex")
        if len(set(ring)) < 3:
            raise DataError(
                f"zone {zone.zone_id!r}: degenerate polygon (<3 distinct vertices)")
        if ring[0] != ring[-1]:
            raise DataError(f"zone {zone.zone_id!r}: ring is not closed")
    if zone.built_residential_m2 > zone.built_total_m2:
        raise DataError(
            f"zone {zone.zone_id!r}: built_residential_m2 exceeds built_total_m2")
    for cat, value in zone.landuse_m2.items():
        if not math.isfinite(value) or value < 0:
            raise DataError(f"zone {zone.zone_id!r}: bad area for {cat.value}")


def zone_row(table: ZoneTable, k: int) -> Zone:
    """Row ``k`` of the table as a Zone; a negative ``k`` counts from the end."""
    k = range(len(table))[k]
    lo, hi = table.zone_ring_start[k], table.zone_ring_start[k + 1]
    rings = tuple(tuple(map(tuple, table.vertices[a:b].tolist()))
                  for a, b in zip(table.ring_start[lo:hi], table.ring_start[lo + 1:hi + 1]))
    landuse = {CATEGORIES[j]: float(table.landuse_m2[k, j])
               for j in np.flatnonzero(table.landuse_present[k])}
    return Zone(table.zone_ids[k], rings, float(table.area_ha[k]), landuse,
                float(table.built_residential_m2[k]), float(table.built_total_m2[k]))


def zone_rows(table: ZoneTable) -> list[Zone]:
    return [zone_row(table, k) for k in range(len(table))]


# --- geometry -------------------------------------------------------------------


def point_in_rings(rings: Sequence[Ring], lon: float, lat: float) -> bool:
    """Even-odd crossing test over all rings (half-open edges)."""
    inside = False
    for ring in rings:
        x1, y1 = ring[-1]
        for x2, y2 in ring:
            if (y1 > lat) != (y2 > lat):
                if lon < (x2 - x1) * (lat - y1) / (y2 - y1) + x1:
                    inside = not inside
            x1, y1 = x2, y2
    return inside


def polygon_centroid(rings: Sequence[Ring]) -> tuple[float, float]:
    """Area-weighted centroid of a polygon with optional holes, as (lon, lat).

    Holes subtract from the outer ring regardless of their winding. Falls back
    to the vertex mean for zero-area degenerate geometry.
    """
    total_area = 0.0
    cx = 0.0
    cy = 0.0
    for index, ring in enumerate(rings):
        a = 0.0
        rx = 0.0
        ry = 0.0
        x1, y1 = ring[-1]
        for x2, y2 in ring:
            cross = x1 * y2 - x2 * y1
            a += cross
            rx += (x1 + x2) * cross
            ry += (y1 + y2) * cross
            x1, y1 = x2, y2
        a *= 0.5
        if a == 0.0:
            continue
        sign = 1.0 if index == 0 else -1.0
        weight = sign * abs(a)
        # rx/(6a) is the ring centroid; re-weight by signed magnitude
        cx += weight * (rx / (6.0 * a))
        cy += weight * (ry / (6.0 * a))
        total_area += weight
    if total_area == 0.0:
        pts = [p for ring in rings for p in ring[:-1]]
        return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
    return cx / total_area, cy / total_area


def locate(index: ZoneIndex, lon: float, lat: float) -> str | None:
    """The zone_id the index gives one point, or None outside every zone."""
    code = int(index.locate_codes([lon], [lat])[0])
    return None if code < 0 else index.zone_ids[code]


def distance_to_centre(zone: Zone, centre: CityCentre) -> float:
    """Haversine distance in metres from the zone's polygon centroid to the centre."""
    lon, lat = polygon_centroid(zone.rings)
    return haversine_m(lon, lat, centre.lon, centre.lat)


# --- land use -------------------------------------------------------------------


class ClassificationError(CityPulseError):
    """A zone cannot be classified (zero built surface)."""

    def __init__(self, zone_id: str, message: str):
        self.zone_id = zone_id
        super().__init__(f"zone {zone_id!r}: {message}")


def residential_fraction(zone: Zone) -> float:
    """Share of built surface that is residential; built_total_m2 must be > 0."""
    if zone.built_total_m2 <= 0:
        raise ClassificationError(zone.zone_id, "built_total_m2 is zero, cannot classify")
    return zone.built_residential_m2 / zone.built_total_m2


def classify_zone(zone: Zone, threshold: float = PREDOMINANCE_THRESHOLD) -> str:
    """A zone's class key, by its residential share of built surface.

    Strictly above ``threshold`` is residential; strictly below ``1 - threshold``
    (non-residential predominant) is activity, labelled with the largest
    non-residential land-use area; the closed middle band is mixed. Activity
    ties break by the category enumeration order.
    """
    fraction = residential_fraction(zone)
    if fraction > threshold:
        return "residential"
    if fraction < 1.0 - threshold:
        best = None
        best_area = -1.0
        for cat in ACTIVITY_CATEGORIES:
            area = float(zone.landuse_m2.get(cat, 0.0))
            if area > best_area:
                best, best_area = cat, area
        return f"activity:{best.value}"
    return "mixed"


# --- events ---------------------------------------------------------------------


def quarter_bin(timestamp: datetime, tz: str | ZoneInfo) -> int:
    """Quarter-hour bin 0..95 of the local wall-clock time of one timestamp."""
    zone = get_timezone(tz) if isinstance(tz, str) else tz
    local = timestamp.astimezone(zone)
    return (local.hour * 60 + local.minute) // 15


def checked_rows_batch(rows: Iterable[tuple]) -> EventBatch:
    """The batch of checked event rows, in order.

    Each row is ``(user_id, (epoch, micro, offset_us), lon, lat, lang,
    device, text)``; the rows go into the builder as one block.
    """
    builder = _BatchBuilder(True)
    rows = list(rows)
    if rows:
        users, instants, lon, lat, *optional = (list(column) for column in zip(*rows))
        epoch, micro, offset_us = np.array(instants, dtype=np.int64).T
        builder.extend(users, epoch, micro, offset_us, np.array(lon, dtype=np.float64),
                       np.array(lat, dtype=np.float64), optional)
    batch = builder.finish()
    return replace(batch, user_ids=tuple(batch.user_ids))


def whole_file(path, fmt: str) -> tuple[EventBatch, RejectionReport]:
    """An events file as one batch and its report: :func:`citypulse.ingest.read_event_blocks`
    with a block as large as the file. The batch's ``user_ids`` is a tuple."""
    report = RejectionReport()
    with mock.patch.object(ingest, "EVENT_BLOCK_ROWS", math.inf):
        (batch,) = ingest.read_event_blocks(path, fmt, report)
    return replace(batch, user_ids=tuple(batch.user_ids)), report


def events_batch(events: Iterable[GeoEvent]) -> EventBatch:
    """Columns of GeoEvent rows, each keeping the UTC offset of its timestamp."""
    return checked_rows_batch((e.user_id, instant(e.timestamp), e.lon, e.lat, e.lang, e.device,
                               e.text) for e in events)


def encode(events: Iterable[tuple[str, str, int]],
           zone_ids: Sequence[str] | None = None) -> AssignedEvents:
    """Encode ``(user_id, zone_id, bin)`` tuples.

    The zone table is ``sorted(zone_ids)``, or the sorted zones that occur
    when ``zone_ids`` is None; a zone outside it or a bin outside 0..95 is
    a :class:`DataError`.
    """
    user_index: dict[str, int] = {}
    users: list[int] = []
    zones: list[str] = []
    bins: list[int] = []
    for user_id, zone_id, b in events:
        users.append(user_index.setdefault(user_id, len(user_index)))
        zones.append(zone_id)
        bins.append(b)
    ordered = tuple(sorted(set(zones) if zone_ids is None else zone_ids))
    zone_index = {z: i for i, z in enumerate(ordered)}
    try:
        zone_arr = np.array([zone_index[z] for z in zones], dtype=np.int32)
    except KeyError as exc:
        raise DataError(f"event references unknown zone {exc.args[0]!r}") from exc
    if bins and not 0 <= min(bins) <= max(bins) < N_QUARTER_BINS:
        raise DataError("event bin outside 0..95")
    return AssignedEvents(tuple(user_index), ordered, np.array(users, dtype=np.int32), zone_arr,
                          np.array(bins, dtype=np.int8))


def dedup_matrix(events: AssignedEvents, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Distinct users per (zone, column) as the dense int64 zones x ``n_cols``
    matrix, from one (user, zone, col) key and a bincount; cols < 0 are dropped."""
    n_zones = len(events.zone_ids)
    keep = cols >= 0
    users, zones, cols = events.users[keep], events.zones[keep], cols[keep]
    key = (users.astype(np.int64) * n_zones + zones) * n_cols + cols
    cells = np.unique(key) % (n_zones * n_cols)
    return np.bincount(cells, minlength=n_zones * n_cols).reshape(n_zones, n_cols)


def quarter_matrix(quarter: QuarterCounts) -> ActivityMatrix:
    """The quarter-hour counts as the dense zones x 96 int64 matrix, each cell set alone."""
    counts = np.zeros((len(quarter.zone_ids), N_QUARTER_BINS), dtype=np.int64)
    for cell, count in zip(quarter.cells.tolist(), quarter.counts.tolist()):
        counts[divmod(cell, N_QUARTER_BINS)] = count
    return ActivityMatrix(quarter.zone_ids, QUARTER_LABELS, counts)


def quarter_counts(zone_ids: Sequence[str], counts: np.ndarray) -> QuarterCounts:
    """A dense zones x 96 count matrix as the QuarterCounts of its nonzero cells."""
    flat = np.asarray(counts).reshape(-1)
    cells = np.flatnonzero(flat)
    return QuarterCounts(tuple(zone_ids), cells.astype(np.int32), flat[cells].astype(np.int32))


# --- models ---------------------------------------------------------------------


def intercept_only_fit(y) -> OlsFit:
    """The intercept-only model in closed form: the mean, its standard error
    sqrt(RSS / (n - 1) / n), and t = mean / se, which is ±inf with the mean's
    sign when the residuals are all 0."""
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(y)
    mean = float(y.mean())
    residuals = y - mean
    rss = float(residuals @ residuals)
    dof = n - 1
    se = np.sqrt(rss / dof / n) if dof else 0.0
    t = mean / se if se > 0 else (0.0 if mean == 0 else math.copysign(math.inf, mean))
    p = float(_t_two_sided(t, dof)) if dof else float("nan")
    aic = float("-inf") if rss == 0.0 else n * np.log(rss / n) + 2.0
    spread = float(np.std(residuals))
    exact = spread <= 1e-12 * max(1.0, float(np.abs(y).max()))
    std_residuals = np.zeros(n) if exact else residuals / spread
    return OlsFit(("intercept",), np.array([mean]), np.array([se]), np.array([t]),
                  np.array([p]), 0.0, 0.0, float("nan"), float("nan"), aic,
                  residuals, std_residuals, {}, n)


def coefficient(fit: OlsFit, name: str) -> float:
    return float(fit.coefficients[fit.names.index(name)])


def n_predictors(fit: OlsFit) -> int:
    """Number of predictors, excluding the intercept."""
    return len(fit.names) - 1
