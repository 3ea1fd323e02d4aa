"""Zone geometry, point-in-zone assignment, and distance to the city centre.

Zones load into one :class:`ZoneTable` of columns. Point-in-polygon uses
even-odd ray casting with the half-open edge convention, so a point on the
shared edge of two adjacent zones is claimed by exactly one of them and results
are deterministic.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .landuse import CATEGORIES, LandUseCategory

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0

Ring = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Zone:
    """Polygonal analysis unit with its land registry inventory; one row of a ZoneTable.

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

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [x for ring in self.rings for x, _ in ring]
        ys = [y for ring in self.rings for _, y in ring]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True, eq=False)
class ZoneTable:
    """Every zone of a city as columns, one row per zone in sorted zone_id order.

    Row ``k`` is ``zone_ids[k]``, the zone code used by :class:`ZoneIndex`.
    ``landuse_m2`` is zones x :data:`~citypulse.landuse.CATEGORIES` (0 where
    absent); ``landuse_present`` records which keys the input carried, so an
    export writes back exactly those. Geometry is CSR: ring ``r`` is
    ``vertices[ring_start[r]:ring_start[r + 1]]`` and zone ``k`` owns rings
    ``zone_ring_start[k]`` to ``zone_ring_start[k + 1]``. ``bbox`` holds min
    lon, min lat, max lon, max lat per zone. Build one with
    :meth:`from_zones` or :func:`load_zones_geojson`, which validate it.
    """

    zone_ids: tuple[str, ...]
    area_ha: np.ndarray
    built_residential_m2: np.ndarray
    built_total_m2: np.ndarray
    landuse_m2: np.ndarray
    landuse_present: np.ndarray
    vertices: np.ndarray
    ring_start: np.ndarray
    zone_ring_start: np.ndarray
    bbox: np.ndarray

    @classmethod
    def from_zones(cls, zones: Iterable[Zone]) -> "ZoneTable":
        rows = _ZoneRows()
        for zone in zones:
            rows.add(zone.zone_id, zone.rings,
                     [(CATEGORIES.index(cat), float(v)) for cat, v in zone.landuse_m2.items()],
                     float(zone.area_ha), float(zone.built_residential_m2),
                     float(zone.built_total_m2))
        return rows.table()

    def __len__(self) -> int:
        return len(self.zone_ids)


class _ZoneRows:
    """Zones gathered in input order, before they become one ZoneTable.

    Every column but the ids is one flat array, so a gathered zone holds no
    Python object of its own besides its id.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.coords = array("d")  # the vertices flat, zone after zone: lon, lat, lon, ...
        self.vertex_counts = array("q")  # per zone
        self.ring_lens = array("q")  # vertices per ring, zone after zone
        self.ring_counts = array("q")  # per zone
        self.landuse = (array("q"), array("q"), array("d"))  # (zone, category, m2) triples
        self.numbers = array("d")  # per zone: area, residential, total

    def add(self, zone_id: str, rings, landuse: list[tuple[int, float]],
            area_ha: float, built_residential_m2: float, built_total_m2: float) -> None:
        try:
            pairs = list(chain.from_iterable(rings))
            values = list(chain.from_iterable(pairs))
            if not {2}.issuperset(map(len, pairs)) or bool in map(type, values):
                raise TypeError
            self.coords += array("d", values)  # a string, null, list or object raises
        except (TypeError, ValueError, OverflowError):
            raise DataError(
                f"zone {zone_id!r}: coordinates are not [lon, lat] number pairs") from None
        k = len(self.ids)
        self.ids.append(zone_id)
        self.vertex_counts.append(len(pairs))
        self.ring_lens.extend(map(len, rings))
        self.ring_counts.append(len(rings))
        zones, cats, m2 = self.landuse
        for j, value in landuse:
            zones.append(k)
            cats.append(j)
            m2.append(value)
        self.numbers.extend((area_ha, built_residential_m2, built_total_m2))

    def columns(self) -> tuple:
        """The zones in zone_id order: their ids, their input positions, then the
        vertex, ring and zone offsets, numbers, land-use and present arrays."""
        n = len(self.ids)
        order = np.array(sorted(range(n), key=self.ids.__getitem__), dtype=np.int64)
        ids = tuple(map(self.ids.__getitem__, order.tolist()))
        vertices = np.array(self.coords).reshape(-1, 2)[_segments(self.vertex_counts, order)]
        ring_lens = np.array(self.ring_lens, dtype=np.int64)[_segments(self.ring_counts, order)]
        zone_ring_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.array(self.ring_counts, dtype=np.int64)[order], out=zone_ring_start[1:])
        ring_start = np.zeros(len(ring_lens) + 1, dtype=np.int64)
        np.cumsum(ring_lens, out=ring_start[1:])

        numbers = np.array(self.numbers).reshape(n, 3)[order]
        row_of = np.empty(n, dtype=np.int64)
        row_of[order] = np.arange(n)
        zone, cat, m2 = (np.array(column) for column in self.landuse)
        landuse = np.zeros((n, len(CATEGORIES)))
        present = np.zeros((n, len(CATEGORIES)), dtype=bool)
        landuse[row_of[zone], cat] = m2
        present[row_of[zone], cat] = True
        return ids, order, vertices, ring_start, zone_ring_start, numbers, landuse, present

    def table(self) -> ZoneTable:
        """The zones as a table sorted by zone_id.

        A zone that breaks a rule raises the DataError of :func:`_first_fault`;
        then a repeated zone_id raises.
        """
        columns = self.columns()
        fault = _first_fault(*columns)
        if fault is not None:
            raise DataError(fault)
        ids, _, vertices, ring_start, zone_ring_start, numbers, landuse, present = columns
        dupes = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if dupes:
            raise DataError(f"duplicate zone_id(s): {', '.join(dupes)}")

        n = len(ids)
        bbox = np.empty((n, 4))
        if n:  # every zone has a ring of 3+ vertices, so no segment is empty
            first = ring_start[zone_ring_start[:-1]]
            for col, (reduce, axis) in enumerate(((np.minimum, 0), (np.minimum, 1),
                                                  (np.maximum, 0), (np.maximum, 1))):
                bbox[:, col] = reduce.reduceat(vertices[:, axis], first)
        return ZoneTable(ids, *numbers.T.copy(), landuse, present, vertices, ring_start,
                         zone_ring_start, bbox)


def _segments(counts: array, order: np.ndarray) -> np.ndarray:
    """Indices of the items of segments ``order``, in that order, where segment
    ``k`` is the next ``counts[k]`` consecutive items."""
    counts = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    picked = counts[order]
    return (np.repeat(starts[order] - (np.cumsum(picked) - picked), picked)
            + np.arange(int(picked.sum())))


def _first_fault(ids, position, vertices, ring_start, zone_ring_start, numbers, landuse,
                 present) -> str | None:
    """The message of the first zone in input order that breaks a zone rule, or None.

    Row ``k`` of the arrays is zone ``ids[k]``, ``position[k]``-th in the input.
    A zone's rules come in this order: it has a ring; then ring by ring, the
    ring's vertices are finite, at least 3 of them distinct, and its last
    vertex equals its first; its residential built surface is at most its
    total; then category by category, each land-use area it carries is finite
    and non-negative. Every rule runs on whole arrays.
    """
    x, y = vertices[:, 0], vertices[:, 1]  # per-column tests: reducing rows of 2 is slow
    ring_len = np.diff(ring_start)
    ring_of = np.repeat(np.arange(len(ring_len)), ring_len)
    nonfinite = np.zeros(len(ring_len), dtype=bool)
    nonfinite[ring_of[~(np.isfinite(x) & np.isfinite(y))]] = True
    # distinct vertices per ring: sort by (ring, lon, lat) and count changes
    by = np.lexsort((y, x, ring_of))
    sx, sy, r = x[by], y[by], ring_of[by]
    new = np.ones(len(by), dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    degenerate = np.bincount(r[new], minlength=len(ring_len)) < 3
    # an empty ring is degenerate; it has no first or last vertex to compare
    filled = ring_len > 0
    first, last = ring_start[:-1][filled], ring_start[1:][filled] - 1
    unclosed = np.zeros(len(ring_len), dtype=bool)
    unclosed[filled] = (x[first] != x[last]) | (y[first] != y[last])
    bad_ring = nonfinite | degenerate | unclosed

    zone_rings = np.diff(zone_ring_start)
    exceeds = numbers[:, 1] > numbers[:, 2]
    bad_area = present & ~(np.isfinite(landuse) & (landuse >= 0))
    faulty = np.concatenate([np.flatnonzero(zone_rings == 0),
                             np.repeat(np.arange(len(ids)), zone_rings)[bad_ring],
                             np.flatnonzero(exceeds), np.nonzero(bad_area)[0]])
    if not len(faulty):
        return None

    k = min(faulty.tolist(), key=position.__getitem__)
    lo, hi = zone_ring_start[k], zone_ring_start[k + 1]
    bad = np.flatnonzero(bad_ring[lo:hi])
    if lo == hi:
        reason = "no geometry"
    elif len(bad):  # the first rule that the zone's first bad ring breaks
        ring = lo + bad[0]
        reason = ("non-finite vertex" if nonfinite[ring] else
                  "degenerate polygon (<3 distinct vertices)" if degenerate[ring] else
                  "ring is not closed")
    elif exceeds[k]:
        reason = "built_residential_m2 exceeds built_total_m2"
    else:  # the first category in CATEGORIES order
        reason = f"bad area for {CATEGORIES[int(np.argmax(bad_area[k]))].value}"
    return f"zone {ids[k]!r}: {reason}"


@dataclass(frozen=True)
class CityCentre:
    lon: float
    lat: float


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def distances_to_centre(zones: ZoneTable, centre: CityCentre) -> np.ndarray:
    """Haversine metres from each zone's polygon centroid to the centre, in table order.

    The centroid is area-weighted over all rings, holes subtracting whatever
    their winding; zero-area geometry takes the mean of its vertices, each
    ring's closing vertex left out. The shoelace sums run vertex position by
    vertex position over all rings at once, and the ring weights ring
    position by ring position over all zones; only the haversine runs per
    zone. The scalar reference in the tests does each zone alone, in the same
    order of operations, and gives the same bits.
    """
    x, y = zones.vertices[:, 0], zones.vertices[:, 1]
    start, end = zones.ring_start[:-1], zones.ring_start[1:]
    area, rx, ry = (np.zeros(len(start)) for _ in range(3))
    previous = end - 1  # each ring's walk starts from its last vertex
    for p, rings in enumerate(_longest_first(end - start)):
        x1, y1 = x[previous[rings]], y[previous[rings]]
        current = start[rings] + p
        x2, y2 = x[current], y[current]
        cross = x1 * y2 - x2 * y1
        area[rings] += cross
        rx[rings] += (x1 + x2) * cross
        ry[rings] += (y1 + y2) * cross
        previous[rings] = current
    area *= 0.5

    first_ring = zones.zone_ring_start
    total, cx, cy = (np.zeros(len(zones)) for _ in range(3))
    for j, live in enumerate(_longest_first(np.diff(first_ring))):
        rings = first_ring[live] + j
        kept = area[rings] != 0.0
        live, rings = live[kept], rings[kept]
        a = area[rings]
        weight = (1.0 if j == 0 else -1.0) * np.abs(a)
        cx[live] += weight * (rx[rings] / (6.0 * a))
        cy[live] += weight * (ry[rings] / (6.0 * a))
        total[live] += weight

    inner = np.ones(len(x), dtype=bool)
    inner[end - 1] = False  # each ring's closing vertex repeats its first
    vertex_start = zones.ring_start[first_ring]
    distances = np.empty(len(zones))
    for k, (t, sx, sy) in enumerate(zip(total.tolist(), cx.tolist(), cy.tolist())):
        if t == 0.0:  # zero-area geometry: the vertex mean, summed in vertex order
            at = slice(vertex_start[k], vertex_start[k + 1])
            xs, ys = x[at][inner[at]].tolist(), y[at][inner[at]].tolist()
            lon, lat = sum(xs) / len(xs), sum(ys) / len(ys)
        else:
            lon, lat = sx / t, sy / t
        distances[k] = haversine_m(lon, lat, centre.lon, centre.lat)
    return distances


def _longest_first(counts: np.ndarray) -> list[np.ndarray]:
    """For p = 0, 1, ...: the items with more than p elements.

    Items are ordered longest first once, so each array is a prefix of that
    order and a pass touches only the items it needs.
    """
    order = np.argsort(-counts, kind="stable")
    ends = np.searchsorted(-counts[order], -np.arange(int(counts.max(initial=0))), side="left")
    return [order[:e] for e in ends.tolist()]


# Points located per pass, and the most (pair, edge) tests held in memory at
# once; both keep the temporaries of a pass to a few MB. At city-253k 4,096
# points a pass took assign_events 79 → 52 ms and its traced peak
# 4.9 → 3.1 MiB against 8,192 (best of 11 in-process calls); 2,048 was no faster.
LOCATE_CHUNK = 4096
PAIR_EDGE_BUDGET = 1 << 17


class ZoneIndex:
    """Uniform-grid index over zone bounding boxes for point location.

    Zones are numbered by sorted zone_id: code ``k`` is ``zone_ids[k]``, the
    row of the :class:`ZoneTable`. Each grid cell's candidate codes are stored
    in CSR form (one concatenated array plus each cell's start offset), and so
    are every zone's edges, so :meth:`locate_codes` tests whole arrays of
    points. Answers equal a brute-force scan of every zone with the per-zone
    ``point_in_rings`` reference kept in the tests. When overlapping zones
    both claim a point (a data error) the lexicographically smallest zone_id
    wins and ``overlap_warnings`` is incremented once per extra claim.
    """

    def __init__(self, table: ZoneTable):
        if not len(table):
            raise DataError("cannot build an index over zero zones")
        self.zone_ids = table.zone_ids
        self.overlap_warnings = 0

        x0, y0, x1, y1 = table.bbox.T
        self._minx, self._miny = float(x0.min()), float(y0.min())
        self._maxx, self._maxy = float(x1.max()), float(y1.max())
        n = self._n = max(1, int(math.sqrt(len(table))) * 2)
        self._dx = (self._maxx - self._minx) / n or 1.0
        self._dy = (self._maxy - self._miny) / n or 1.0

        # one (cell, code) pair per grid cell a zone's bbox touches; a stable
        # sort by cell keeps each cell's candidates ascending = by zone_id
        cx0, cx1 = (self._cells(v, self._minx, self._dx) for v in (x0, x1))
        cy0, cy1 = (self._cells(v, self._miny, self._dy) for v in (y0, y1))
        ny = cy1 - cy0 + 1
        per_zone = (cx1 - cx0 + 1) * ny
        code = np.repeat(np.arange(len(table)), per_zone)
        k = np.arange(len(code)) - np.repeat(np.cumsum(per_zone) - per_zone, per_zone)
        cell = (cx0[code] + k // ny[code]) * n + cy0[code] + k % ny[code]
        self._cell_zones = code[np.argsort(cell, kind="stable")]
        self._cell_start = np.zeros(n * n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=n * n), out=self._cell_start[1:])

        # Edges of all rings, zone after zone: vertex i closes the edge from
        # its ring predecessor (a ring's first vertex from its last). A
        # horizontal edge never toggles the crossing test, so it is left out.
        v, starts = table.vertices, table.ring_start
        prev = np.arange(len(v)) - 1
        prev[starts[:-1]] = starts[1:] - 1
        keep = v[prev, 1] != v[:, 1]
        zone_of_vertex = np.repeat(np.arange(len(table)), np.diff(starts[table.zone_ring_start]))
        self._edge_count = np.bincount(zone_of_vertex[keep], minlength=len(table))
        self._edge_start = np.cumsum(self._edge_count) - self._edge_count
        self._ex1, self._ey1 = v[prev[keep], 0], v[prev[keep], 1]
        self._ex2, self._ey2 = v[keep, 0], v[keep, 1]

    def _cells(self, values: np.ndarray, origin: float, step: float) -> np.ndarray:
        return np.clip(((values - origin) / step).astype(np.int64), 0, self._n - 1)

    def locate_codes(self, lons, lats) -> np.ndarray:
        """Zone code (int32) per point, an index into ``zone_ids``, or -1 outside every zone.

        Points are processed :data:`LOCATE_CHUNK` at a time. A point is in
        a zone when a ray from it crosses the zone's edges an odd number of
        times; the crossing test is the float expression of the tests'
        ``point_in_rings`` reference, evaluated in the same order, so results
        are bit-identical to it.
        """
        lons = np.asarray(lons, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        codes = np.full(len(lons), -1, dtype=np.int32)
        for lo in range(0, len(lons), LOCATE_CHUNK):
            hi = lo + LOCATE_CHUNK
            codes[lo:hi] = self._locate_chunk(lons[lo:hi], lats[lo:hi])
        return codes

    def _locate_chunk(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        codes = np.full(len(lon), -1, dtype=np.int64)
        pts = np.flatnonzero((self._minx <= lon) & (lon <= self._maxx)
                             & (self._miny <= lat) & (lat <= self._maxy))
        x, y = lon[pts], lat[pts]
        cell = (self._cells(x, self._minx, self._dx) * self._n
                + self._cells(y, self._miny, self._dy))
        start = self._cell_start[cell]
        count = self._cell_start[cell + 1] - start
        # one (point, candidate) pair per candidate of the point's cell, by point
        pair_pt = np.repeat(np.arange(len(pts)), count)
        first_pair = np.cumsum(count) - count
        pair_zone = self._cell_zones[np.repeat(start - first_pair, count)
                                     + np.arange(len(pair_pt))]
        # pairs are tested a slice at a time, each slice holding at most
        # PAIR_EDGE_BUDGET (pair, edge) tests (or one pair)
        n_edges = self._edge_count[pair_zone]
        edge_end = np.cumsum(n_edges)
        inside = np.zeros(len(pair_pt), dtype=bool)
        lo = 0
        while lo < len(pair_pt):
            base = int(edge_end[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(edge_end, base + PAIR_EDGE_BUDGET, "right")))
            slice_edges = n_edges[lo:hi]
            pair = np.repeat(np.arange(lo, hi), slice_edges)
            edge = np.arange(len(pair)) + np.repeat(
                self._edge_start[pair_zone[lo:hi]] - (edge_end[lo:hi] - slice_edges - base),
                slice_edges)
            px, py = x[pair_pt[pair]], y[pair_pt[pair]]
            x1, y1, x2, y2 = self._ex1[edge], self._ey1[edge], self._ex2[edge], self._ey2[edge]
            toggles = ((y1 > py) != (y2 > py)) & (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)
            inside[lo:hi] = np.bincount(pair[toggles] - lo, minlength=hi - lo) & 1
            lo = hi
        hits = np.flatnonzero(inside)
        hit_pt = pair_pt[hits]
        # candidates are ascending, so a point's first hit is its smallest zone_id
        winner = np.ones(len(hits), dtype=bool)
        winner[1:] = hit_pt[1:] != hit_pt[:-1]
        codes[pts[hit_pt[winner]]] = pair_zone[hits[winner]]
        self.overlap_warnings += int(len(hits) - np.count_nonzero(winner))
        return codes


def build_zone_index(table: ZoneTable) -> ZoneIndex:
    return ZoneIndex(table)


_LANDUSE_COLUMN = {cat.column: j for j, cat in enumerate(CATEGORIES)}
_FLOAT_OF = {int: float, float: float}  # JSON numbers; a string or a boolean is not one


def _add_feature(rows: _ZoneRows, feature, n: int) -> None:
    feature = feature if isinstance(feature, dict) else {}  # not an object: no zone_id
    props = feature.get("properties") or {}
    geom = feature.get("geometry") or {}
    if not isinstance(props, dict) or "zone_id" not in props:
        raise DataError(f"feature #{n}: missing property 'zone_id'")
    zone_id = str(props["zone_id"])
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype != "Polygon":
        raise DataError(
            f"zone {zone_id!r}: unsupported geometry type {gtype!r} "
            "(zones must be single polygons; split multipart zones upstream)")
    try:
        landuse = [(_LANDUSE_COLUMN[k], _FLOAT_OF[type(v)](v)) for k, v in props.items()
                   if k in _LANDUSE_COLUMN]
        numbers = [_FLOAT_OF[type(v)](v) for v in map(
            props.get, ("area_ha", "built_residential_m2", "built_total_m2"), (0.0,) * 3)]
    except (KeyError, OverflowError):
        raise DataError(f"zone {zone_id!r}: a numeric property is not a number") from None
    rows.add(zone_id, geom.get("coordinates", []), landuse, *numbers)


_decode, _skip = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match


def _token(text: str, pos: int) -> tuple[str, int]:
    """The next non-whitespace character from ``pos``, and the position past it and its blanks."""
    pos = _skip(text, pos).end()
    return text[pos:pos + 1], _skip(text, pos + 1).end()


# Characters of the zones file read at a time. The text read whole is one
# allocation above glibc's 128 KiB mmap threshold, and freeing it raises that
# threshold, so the event columns parsed next grow in the heap and fragment
# it: with the zones loaded before the events, city-253k runs (a 166 KB zones
# file) peaked up to 1 MB higher on some seeds
ZONES_READ = 1 << 14


class _Items:
    """A text stream taken an item at a time and read a block at a time: ``text``
    holds it from the last read's kept part on, ``pos`` is where the next item starts."""

    def __init__(self, fh) -> None:
        self.fh, self.text, self.pos, self.eof = fh, "", 0, False

    def take(self, parse):
        """The value of ``parse(text, pos) -> (value, end)``, taken once a character
        follows it in the text or the stream has ended, so that no read cuts it
        short; a parse that fails before the end is tried again with the next block."""
        while True:
            try:
                value, end = parse(self.text, self.pos)
                if self.eof or _skip(self.text, end).end() < len(self.text):
                    self.pos = end
                    return value
            except ValueError:
                if self.eof:
                    raise
            # a read at least as long as the kept part, so a long item takes few reads
            block = self.fh.read(max(ZONES_READ, len(self.text) - self.pos))
            self.text, self.pos, self.eof = self.text[self.pos:] + block, 0, not block

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]


def _features(src: _Items):
    """The features of a FeatureCollection one at a time, other members whole. A text
    off this path (a syntax error, a repeated key, no features, another type) raises."""
    members, sep = {}, src.take(_token)
    while sep == ("," if members else "{") and src.peek() == '"':
        key = src.take(lambda text, pos: json.decoder.scanstring(text, pos + 1))
        if src.take(_token) != ":" or key in members:
            raise ValueError
        if key != "features":
            members[key] = src.take(_decode)
        elif src.peek() == "[":
            members[key], sep = src.take(lambda text, pos: (None, _skip(text, pos + 1).end())), ","
            while sep == ",":
                yield src.take(_decode)
                sep = src.take(_token)
            if sep != "]":
                raise ValueError
        sep = src.take(_token)
    if sep != "}" or src.pos < len(src.text) or "features" not in members \
            or members.get("type") != "FeatureCollection":
        raise ValueError


def _gather(features) -> _ZoneRows:
    rows = _ZoneRows()
    try:
        for n, feature in enumerate(features):
            _add_feature(rows, feature, n)
    except Exception:
        # a fault in a zone before the failing feature comes first
        fault = _first_fault(*rows.columns())
        if fault is not None:
            raise DataError(fault)
        raise
    return rows


def load_zones_geojson(path) -> ZoneTable:
    """Read a FeatureCollection of zone polygons with land-use properties, one feature at a time.

    A text that is not valid JSON raises json's error, whatever else is wrong with it; a bad
    zone raises DataError naming the first offending feature in file order.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            rows = _gather(_features(_Items(fh)))
    except (OSError, UnicodeDecodeError, ValueError, RecursionError, DataError):
        # off the path: read and decode the text whole
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read zones file {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"zones file {path} is not valid JSON: {exc}") from exc
        features = doc.get("features", []) if isinstance(doc, dict) else None
        if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
            raise DataError(f"zones file {path}: expected a GeoJSON FeatureCollection")
        rows = _gather(features)
        del doc, features, text
    table = rows.table()
    del rows
    # The zone ids were decoded amid the features' dicts, lists and floats, so
    # they would keep that heap resident. They go with the first replace, once
    # the rest of it is freed, and are sliced again from one joined string.
    joined = "".join(table.zone_ids)
    ends = np.cumsum(np.fromiter(map(len, table.zone_ids), np.int64, len(table)))
    table = replace(table, zone_ids=())
    ends = ends.tolist()
    table = replace(table, zone_ids=tuple(map(joined.__getitem__, map(slice, [0, *ends], ends))))
    logger.info("loaded %d zones from %s", len(table), path)
    return table
