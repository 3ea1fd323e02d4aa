"""Zone geometry, point-in-zone assignment, and distance to the city centre.

Point-in-polygon uses even-odd ray casting with the half-open edge convention,
so a point on the shared edge of two adjacent zones is claimed by exactly one
of them and results are deterministic.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .landuse import LandUseCategory

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0

Ring = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Zone:
    """Polygonal analysis unit with its land registry inventory.

    ``rings`` holds one or more closed rings of (lon, lat) vertices; the first
    ring of each polygon is the outer boundary, later rings are holes. Interior
    membership is the even-odd rule over all rings, so holes need no special
    orientation.
    """

    zone_id: str
    rings: tuple[Ring, ...]
    area_ha: float
    landuse_m2: Mapping[LandUseCategory, float] = field(default_factory=dict)
    built_residential_m2: float = 0.0
    built_total_m2: float = 0.0

    def validate(self) -> None:
        if not self.rings:
            raise DataError(f"zone {self.zone_id!r}: no geometry")
        for ring in self.rings:
            if len(set(ring)) < 3:
                raise DataError(
                    f"zone {self.zone_id!r}: degenerate polygon (<3 distinct vertices)")
            if ring[0] != ring[-1]:
                raise DataError(f"zone {self.zone_id!r}: ring is not closed")
        if self.built_residential_m2 > self.built_total_m2:
            raise DataError(
                f"zone {self.zone_id!r}: built_residential_m2 exceeds built_total_m2")
        for cat, value in self.landuse_m2.items():
            if not math.isfinite(value) or value < 0:
                raise DataError(f"zone {self.zone_id!r}: bad area for {cat.value}")

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [x for ring in self.rings for x, _ in ring]
        ys = [y for ring in self.rings for _, y in ring]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True)
class CityCentre:
    lon: float
    lat: float


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


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def distance_to_centre(zone: Zone, centre: CityCentre) -> float:
    """Haversine distance in metres from the zone's polygon centroid to the centre."""
    lon, lat = polygon_centroid(zone.rings)
    return haversine_m(lon, lat, centre.lon, centre.lat)


# Points located per pass, and the most (pair, edge) tests held in memory at
# once; both keep the temporaries of a pass to a few MB.
LOCATE_CHUNK = 8192
PAIR_EDGE_BUDGET = 1 << 17


class ZoneIndex:
    """Uniform-grid index over zone bounding boxes for point location.

    Zones are numbered by sorted zone_id: code ``k`` is ``zone_ids[k]``. Each
    grid cell's candidate codes are stored in CSR form (one concatenated
    array plus each cell's start offset), and every zone's edges sit in one
    row of padded edge arrays, so :meth:`locate_codes` tests whole arrays of
    points. Answers equal a brute-force :func:`point_in_rings` scan over all
    zones. When overlapping zones both claim a point (a data error) the
    lexicographically smallest zone_id wins and ``overlap_warnings`` is
    incremented once per extra claim.
    """

    def __init__(self, zones: Sequence[Zone], grid_size: int | None = None):
        ids = [z.zone_id for z in zones]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate zone_id(s): {', '.join(dupes)}")
        if not zones:
            raise DataError("cannot build an index over zero zones")
        for zone in zones:
            zone.validate()
        self._zones = {z.zone_id: z for z in zones}
        self.zone_ids = tuple(sorted(ids))
        self.overlap_warnings = 0

        boxes = [self._zones[z].bbox() for z in self.zone_ids]
        self._minx = min(b[0] for b in boxes)
        self._miny = min(b[1] for b in boxes)
        maxx = max(b[2] for b in boxes)
        maxy = max(b[3] for b in boxes)
        self._n = grid_size or max(1, int(math.sqrt(len(zones))) * 2)
        self._dx = (maxx - self._minx) / self._n or 1.0
        self._dy = (maxy - self._miny) / self._n or 1.0
        self._maxx = maxx
        self._maxy = maxy

        # candidates per cell, ascending code = ascending zone_id
        cells: list[list[int]] = [[] for _ in range(self._n * self._n)]
        for code, (x0, y0, x1, y1) in enumerate(boxes):
            for ci in range(self._cell_x(x0), self._cell_x(x1) + 1):
                for cj in range(self._cell_y(y0), self._cell_y(y1) + 1):
                    cells[ci * self._n + cj].append(code)
        self._cell_start = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in cells], out=self._cell_start[1:])
        self._cell_zones = np.fromiter((code for c in cells for code in c), dtype=np.int64,
                                       count=int(self._cell_start[-1]))

        # Edges of all rings, one zone per row. A horizontal edge never toggles
        # the crossing test, so it is left out; NaN pads never toggle either.
        edges = []
        for zone_id in self.zone_ids:
            rows = []
            for ring in self._zones[zone_id].rings:
                x1, y1 = ring[-1]
                for x2, y2 in ring:
                    if y1 != y2:
                        rows.append((x1, y1, x2, y2))
                    x1, y1 = x2, y2
            edges.append(rows)
        padded = np.full((len(edges), max(1, max(map(len, edges))), 4), np.nan)
        for code, rows in enumerate(edges):
            if rows:
                padded[code, :len(rows)] = rows
        self._ex1, self._ey1, self._ex2, self._ey2 = (
            np.ascontiguousarray(padded[:, :, k]) for k in range(4))

    def _cell_x(self, x: float) -> int:
        return min(self._n - 1, max(0, int((x - self._minx) / self._dx)))

    def _cell_y(self, y: float) -> int:
        return min(self._n - 1, max(0, int((y - self._miny) / self._dy)))

    def __len__(self) -> int:
        return len(self._zones)

    @property
    def zones(self) -> dict[str, Zone]:
        return self._zones

    def locate_codes(self, lons, lats) -> np.ndarray:
        """Zone code per point (an index into ``zone_ids``), or -1 outside every zone.

        Points are processed :data:`LOCATE_CHUNK` at a time. The crossing
        test is :func:`point_in_rings`'s float expression, evaluated in the
        same order, so results are bit-identical to it.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        codes = np.full(len(lons), -1, dtype=np.int64)
        for lo in range(0, len(lons), LOCATE_CHUNK):
            hi = lo + LOCATE_CHUNK
            codes[lo:hi] = self._locate_chunk(lons[lo:hi], lats[lo:hi])
        return codes

    def _locate_chunk(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        codes = np.full(len(lon), -1, dtype=np.int64)
        pts = np.flatnonzero((self._minx <= lon) & (lon <= self._maxx)
                             & (self._miny <= lat) & (lat <= self._maxy))
        x, y = lon[pts], lat[pts]
        last = self._n - 1
        ci = np.minimum(last, np.maximum(0, ((x - self._minx) / self._dx).astype(np.int64)))
        cj = np.minimum(last, np.maximum(0, ((y - self._miny) / self._dy).astype(np.int64)))
        cell = ci * self._n + cj
        start = self._cell_start[cell]
        count = self._cell_start[cell + 1] - start
        # one (point, candidate) pair per candidate of the point's cell, by point
        pair_pt = np.repeat(np.arange(len(pts)), count)
        first_pair = np.cumsum(count) - count
        pair_zone = self._cell_zones[np.repeat(start - first_pair, count)
                                     + np.arange(len(pair_pt))]
        inside = np.zeros(len(pair_pt), dtype=bool)
        step = max(1, PAIR_EDGE_BUDGET // self._ex1.shape[1])
        for lo in range(0, len(pair_pt), step):
            z = pair_zone[lo:lo + step]
            px = x[pair_pt[lo:lo + step], None]
            py = y[pair_pt[lo:lo + step], None]
            x1, y1, x2, y2 = self._ex1[z], self._ey1[z], self._ex2[z], self._ey2[z]
            toggles = ((y1 > py) != (y2 > py)) & (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)
            inside[lo:lo + step] = np.count_nonzero(toggles, axis=1) & 1
        hits = np.flatnonzero(inside)
        hit_pt = pair_pt[hits]
        # candidates are ascending, so a point's first hit is its smallest zone_id
        winner = np.ones(len(hits), dtype=bool)
        winner[1:] = hit_pt[1:] != hit_pt[:-1]
        codes[pts[hit_pt[winner]]] = pair_zone[hits[winner]]
        self.overlap_warnings += int(len(hits) - np.count_nonzero(winner))
        return codes

    def locate(self, lon: float, lat: float) -> str | None:
        code = int(self.locate_codes([lon], [lat])[0])
        return None if code < 0 else self.zone_ids[code]


def build_zone_index(zones: Iterable[Zone]) -> ZoneIndex:
    return ZoneIndex(list(zones))


def locate_point(index: ZoneIndex, lon: float, lat: float) -> str | None:
    return index.locate(lon, lat)


def _feature_to_zone(feature: dict, n: int) -> Zone:
    props = feature.get("properties") or {}
    geom = feature.get("geometry") or {}
    if "zone_id" not in props:
        raise DataError(f"feature #{n}: missing property 'zone_id'")
    zone_id = str(props["zone_id"])
    gtype = geom.get("type")
    if gtype != "Polygon":
        raise DataError(
            f"zone {zone_id!r}: unsupported geometry type {gtype!r} "
            "(zones must be single polygons; split multipart zones upstream)")
    rings = tuple(
        tuple((float(x), float(y)) for x, y in ring)
        for ring in geom.get("coordinates", [])
    )
    landuse = {}
    for cat in LandUseCategory:
        if cat.column in props:
            landuse[cat] = float(props[cat.column])
    zone = Zone(
        zone_id=zone_id,
        rings=rings,
        area_ha=float(props.get("area_ha", 0.0)),
        landuse_m2=landuse,
        built_residential_m2=float(props.get("built_residential_m2", 0.0)),
        built_total_m2=float(props.get("built_total_m2", 0.0)),
    )
    zone.validate()
    return zone


def load_zones_geojson(path) -> list[Zone]:
    """Read a FeatureCollection of zone polygons with land-use properties."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read zones file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"zones file {path} is not valid JSON: {exc}") from exc
    if doc.get("type") != "FeatureCollection":
        raise DataError(f"zones file {path}: expected a GeoJSON FeatureCollection")
    zones = [_feature_to_zone(f, n) for n, f in enumerate(doc.get("features", []))]
    logger.info("loaded %d zones from %s", len(zones), path)
    return zones
