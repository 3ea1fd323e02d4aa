import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse import spatial
from citypulse.errors import DataError
from citypulse.spatial import (CityCentre, Zone, ZoneTable, build_zone_index, haversine_m,
                               load_zones_geojson)
from citypulse.synth import SynthConfig, generate_city

from scalar_reference import (distance_to_centre, locate, point_in_rings, polygon_centroid,
                              zone_rows)


def square(zone_id, x0, y0, size=1.0, **kwargs):
    ring = ((x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size), (x0, y0))
    defaults = dict(area_ha=1.0, built_residential_m2=0.0, built_total_m2=0.0)
    defaults.update(kwargs)
    return Zone(zone_id, (ring,), **defaults)


def brute_force_locate(zones, lon, lat):
    """Independent oracle: numpy even-odd test over every zone, smallest id wins."""
    hits = []
    for zone in sorted(zones, key=lambda z: z.zone_id):
        inside = False
        for ring in zone.rings:
            xs = np.array([p[0] for p in ring])
            ys = np.array([p[1] for p in ring])
            x1, y1 = xs[:-1], ys[:-1]
            x2, y2 = xs[1:], ys[1:]
            crosses = (y1 > lat) != (y2 > lat)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = (x2 - x1) * (lat - y1) / (y2 - y1) + x1
            inside ^= bool(np.sum(crosses & (lon < xint)) % 2)
        if inside:
            hits.append(zone.zone_id)
    return hits[0] if hits else None


def test_single_zone_locate():
    index = build_zone_index(ZoneTable.from_zones([square("z1", 0, 0)]))
    assert locate(index, 0.5, 0.5) == "z1"
    assert locate(index, 2.0, 2.0) is None


def test_index_cardinality_584_zones():
    zones = [square(f"z{i:04d}", i % 25, i // 25) for i in range(584)]
    index = build_zone_index(ZoneTable.from_zones(zones))
    assert len(index.zone_ids) == 584


def test_shared_edge_claimed_by_exactly_one_zone():
    zones = [square("left", 0, 0), square("right", 1, 0)]
    claims = []
    for _ in range(2):  # deterministic across rebuilt indexes
        index = build_zone_index(ZoneTable.from_zones(zones))
        claims.append([locate(index, 1.0, y) for y in (0.25, 0.5, 0.75)])
    assert claims[0] == claims[1]
    assert all(c in ("left", "right") for c in claims[0])
    assert len(set(claims[0])) == 1


def test_shared_corner_claimed_by_exactly_one_zone():
    zones = [square("a", 0, 0), square("b", 1, 0), square("c", 0, 1), square("d", 1, 1)]
    index = build_zone_index(ZoneTable.from_zones(zones))
    owner = locate(index, 1.0, 1.0)
    assert owner is not None
    assert owner == brute_force_locate(zones, 1.0, 1.0)


def _random_tessellation(rng, nx, ny):
    """Grid tessellation with random cell widths/heights."""
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, nx))])
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, ny))])
    zones = []
    for j in range(ny):
        for i in range(nx):
            ring = ((xs[i], ys[j]), (xs[i + 1], ys[j]), (xs[i + 1], ys[j + 1]),
                    (xs[i], ys[j + 1]), (xs[i], ys[j]))
            zones.append(Zone(f"z{j * nx + i:03d}", (ring,), area_ha=1.0))
    return zones, xs, ys


def test_locate_matches_brute_force_on_random_tessellation():
    rng = np.random.default_rng(17)
    zones, xs, ys = _random_tessellation(rng, 10, 5)
    index = build_zone_index(ZoneTable.from_zones(zones))
    pts = np.column_stack([rng.uniform(-1, xs[-1] + 1, 1000),
                           rng.uniform(-1, ys[-1] + 1, 1000)])
    for lon, lat in pts:
        assert locate(index, lon, lat) == brute_force_locate(zones, lon, lat)


def test_no_double_counting_in_tessellation():
    rng = np.random.default_rng(3)
    zones, xs, ys = _random_tessellation(rng, 6, 6)
    index = build_zone_index(ZoneTable.from_zones(zones))
    pts = np.column_stack([rng.uniform(0, xs[-1], 500), rng.uniform(0, ys[-1], 500)])
    assigned = sum(1 for lon, lat in pts if locate(index, lon, lat) is not None)
    unassigned = len(pts) - assigned
    assert assigned + unassigned == 500


def test_overlapping_zones_warn_and_pick_smallest_id():
    zones = [square("zzz", 0, 0), square("aaa", 0, 0)]
    index = build_zone_index(ZoneTable.from_zones(zones))
    assert locate(index, 0.5, 0.5) == "aaa"
    assert index.overlap_warnings == 1


def test_duplicate_zone_id_fatal():
    with pytest.raises(DataError, match="duplicate zone_id"):
        build_zone_index(ZoneTable.from_zones([square("z", 0, 0), square("z", 1, 0)]))


def test_degenerate_polygon_fatal_names_zone():
    bad = Zone("flat", (((0, 0), (1, 1), (0, 0)),), area_ha=1.0)
    with pytest.raises(DataError, match="flat"):
        build_zone_index(ZoneTable.from_zones([bad]))


def test_unclosed_ring_fatal():
    bad = Zone("open", (((0, 0), (1, 0), (1, 1), (0, 1)),), area_ha=1.0)
    with pytest.raises(DataError, match="not closed"):
        build_zone_index(ZoneTable.from_zones([bad]))


def test_point_in_hole_is_outside():
    outer = ((0, 0), (4, 0), (4, 4), (0, 4), (0, 0))
    hole = ((1, 1), (3, 1), (3, 3), (1, 3), (1, 1))
    assert point_in_rings((outer, hole), 0.5, 0.5)
    assert not point_in_rings((outer, hole), 2.0, 2.0)


def test_centroid_of_square():
    lon, lat = polygon_centroid(square("z", 2, 3).rings)
    assert lon == pytest.approx(2.5)
    assert lat == pytest.approx(3.5)


def test_centroid_with_hole_shifts_away():
    outer = ((0, 0), (4, 0), (4, 4), (0, 4), (0, 0))
    hole = ((2, 1), (4, 1), (4, 3), (2, 3), (2, 1))  # bite out of the right side
    lon, lat = polygon_centroid((outer, hole))
    assert lon < 2.0
    assert lat == pytest.approx(2.0)


def test_haversine_zero_iff_coincident():
    assert haversine_m(-3.7, 40.4, -3.7, 40.4) == 0.0
    assert haversine_m(-3.7, 40.4, -3.7, 40.5) > 0


def test_haversine_hand_computed_meridian_step():
    # 0.01 degrees of latitude is about 1112 m regardless of longitude
    assert haversine_m(-3.70, 40.00, -3.70, 40.01) == pytest.approx(1112.0, abs=1.0)


def test_haversine_symmetry():
    a, b = (-3.70, 40.42), (-3.58, 40.50)
    assert haversine_m(*a, *b) == pytest.approx(haversine_m(*b, *a))


def test_distance_to_centre_zero_at_centroid():
    zone = square("z", 0, 0)
    assert distance_to_centre(zone, CityCentre(0.5, 0.5)) == 0.0


def test_distance_to_centre_ordering():
    near = square("near", 0, 0, 0.01)
    far = square("far", 0.1, 0, 0.01)
    centre = CityCentre(0.005, 0.005)
    assert distance_to_centre(near, centre) < distance_to_centre(far, centre)


def _feature(zone_id, x0=0.0, y0=0.0, **props):
    base = {"zone_id": zone_id, "area_ha": 2.5, "built_residential_m2": 800.0,
            "built_total_m2": 1000.0, "lu_retail_m2": 200.0, "lu_residential_m2": 800.0}
    base.update(props)
    return {
        "type": "Feature",
        "properties": base,
        "geometry": {"type": "Polygon",
                     "coordinates": [[[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1],
                                      [x0, y0 + 1], [x0, y0]]]},
    }


def test_load_zones_geojson(tmp_path):
    doc = {"type": "FeatureCollection", "features": [_feature("z1"), _feature("z2", 1.0)]}
    path = tmp_path / "zones.geojson"
    path.write_text(json.dumps(doc))
    zones = zone_rows(load_zones_geojson(path))
    assert [z.zone_id for z in zones] == ["z1", "z2"]
    assert zones[0].area_ha == 2.5
    assert zones[0].landuse_m2["retail"] == 200.0
    assert zones[0].built_residential_m2 == 800.0


def test_load_zones_skips_a_byte_order_mark(tmp_path):
    doc = json.dumps({"type": "FeatureCollection", "features": [_feature("z1")]}).encode()
    path = tmp_path / "zones.geojson"
    path.write_bytes(doc)
    plain = zone_rows(load_zones_geojson(path))
    path.write_bytes(b"\xef\xbb\xbf" + doc)
    assert zone_rows(load_zones_geojson(path)) == plain


def test_load_zones_rejects_bad_documents(tmp_path):
    path = tmp_path / "zones.geojson"
    path.write_text(json.dumps({"type": "Feature"}))
    with pytest.raises(DataError, match="FeatureCollection"):
        load_zones_geojson(path)
    feature = _feature("z1")
    feature["geometry"]["type"] = "MultiPolygon"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
    with pytest.raises(DataError, match="geometry type"):
        load_zones_geojson(path)
    with pytest.raises(DataError, match="cannot read"):
        load_zones_geojson(tmp_path / "missing.geojson")


def test_zone_validate_residential_exceeds_total():
    zone = square("z", 0, 0, built_residential_m2=2000.0, built_total_m2=1000.0)
    with pytest.raises(DataError, match="exceeds"):
        ZoneTable.from_zones([zone])


def test_haversine_matches_spherical_law_small_angles():
    # cross-check against the spherical law of cosines on a generic pair
    lon1, lat1, lon2, lat2 = -3.70, 40.42, -3.60, 40.50
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    angle = math.acos(math.sin(phi1) * math.sin(phi2)
                      + math.cos(phi1) * math.cos(phi2) * math.cos(dl))
    assert haversine_m(lon1, lat1, lon2, lat2) == pytest.approx(6_371_000.0 * angle, rel=1e-9)


# --- array join against a brute-force point_in_rings scan ---------------------

LATTICE = st.integers(0, 8).map(lambda k: k * 0.5)


@st.composite
def zone_rings(draw):
    """A rectangle, a rectangle with a hole, or a triangle on a 0.5-degree lattice."""
    kind = draw(st.sampled_from(["rect", "holed", "triangle"]))
    if kind == "triangle":
        pts = draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=3, max_size=3,
                            unique=True))
        return (tuple(pts) + (pts[0],),)
    x0, x1 = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
    outer = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
    if kind == "rect" or x1 - x0 < 1.0 or y1 - y0 < 1.0:
        return (outer,)
    hx0, hy0 = x0 + 0.25, y0 + 0.25
    hx1, hy1 = draw(st.floats(hx0 + 0.25, x1)), draw(st.floats(hy0 + 0.25, y1))
    hole = ((hx0, hy0), (hx0, hy1), (hx1, hy1), (hx1, hy0), (hx0, hy0))
    return (outer, hole)


@st.composite
def join_cases(draw):
    rings = draw(st.lists(zone_rings(), min_size=1, max_size=6))
    names = draw(st.permutations([f"z{k}" for k in range(len(rings))]))
    zones = [Zone(name, r, area_ha=1.0) for name, r in zip(names, rings)]
    maxx = max(z.bbox()[2] for z in zones)
    maxy = max(z.bbox()[3] for z in zones)
    on_grid = st.integers(-2, 18).map(lambda k: k * 0.25)  # vertices, edges, outside
    anywhere = st.floats(-1.0, 5.0, allow_nan=False)
    coord = st.one_of(on_grid, anywhere)
    point = st.one_of(st.tuples(coord, coord),
                      st.tuples(st.just(maxx), coord),   # on the coverage's max edges
                      st.tuples(coord, st.just(maxy)),
                      st.tuples(st.just(maxx), st.just(maxy)))
    return zones, draw(st.lists(point, min_size=1, max_size=60))


def _scan(zones, points):
    """Per point the smallest zone_id whose rings claim it (or None), and the extra claims."""
    by_id = sorted(zones, key=lambda z: z.zone_id)
    expected, overlaps = [], 0
    for lon, lat in points:
        owners = [z.zone_id for z in by_id if point_in_rings(z.rings, lon, lat)]
        expected.append(owners[0] if owners else None)
        overlaps += max(0, len(owners) - 1)
    return expected, overlaps


@settings(max_examples=300, deadline=None)
@given(join_cases(), st.sampled_from([(8192, 1 << 17), (3, 2)]))
def test_array_join_matches_point_in_rings_scan(case, sizes):
    zones, points = case
    expected, overlaps = _scan(zones, points)
    saved = spatial.LOCATE_CHUNK, spatial.PAIR_EDGE_BUDGET
    spatial.LOCATE_CHUNK, spatial.PAIR_EDGE_BUDGET = sizes  # also tiny chunks and slices
    try:
        index = build_zone_index(ZoneTable.from_zones(zones))
        codes = index.locate_codes([p[0] for p in points], [p[1] for p in points])
    finally:
        spatial.LOCATE_CHUNK, spatial.PAIR_EDGE_BUDGET = saved
    assert [index.zone_ids[c] if c >= 0 else None for c in codes] == expected
    assert index.overlap_warnings == overlaps
    assert [locate(index, lon, lat) for lon, lat in points] == expected


def test_array_join_empty_input():
    index = build_zone_index(ZoneTable.from_zones([square("a", 0, 0)]))
    assert index.locate_codes([], []).tolist() == []
    assert index.overlap_warnings == 0


# --- half-open index cells ------------------------------------------------------

def _crossing_x(x1, y1, x2, y2, py):
    """Where the crossing test puts an edge at height ``py``, taken from ``(x1, y1)``."""
    return (x2 - x1) * (py - y1) / (y2 - y1) + x1


def _up(v):
    return math.nextafter(v, math.inf)


def _down(v):
    return math.nextafter(v, -math.inf)


# Vertex coordinates: a 0.25-degree lattice, so bbox maxima fall on cell
# boundaries, and values straddling 0 whose differences are not exact
SPLIT = st.one_of(st.integers(-4, 4).map(lambda k: k * 0.25),
                  st.sampled_from([-0.3, -0.1, 0.1, 0.3, 0.7, -0.7119942499614846]),
                  st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def slanted_cases(draw):
    """Triangles and quadrilaterals with slanted edges, and the points at their
    edges: each zone's bbox xmax and ymax, every cell boundary, and each slanted
    edge's crossing x (and the floats beside it) near the edge's ends."""
    rings = [tuple(pts) + (pts[0],) for pts in draw(st.lists(
        st.lists(st.tuples(SPLIT, SPLIT), min_size=3, max_size=4, unique=True),
        min_size=1, max_size=5))]
    zones = [Zone(f"z{k}", (ring,), area_ha=1.0) for k, ring in enumerate(rings)]
    table = ZoneTable.from_zones(zones)
    index = build_zone_index(table)
    xs = [index._minx + k * index._dx for k in range(index._n + 1)]
    ys = [index._miny + k * index._dy for k in range(index._n + 1)]
    points = []
    for x0, y0, x1, y1 in table.bbox.tolist():
        for y in [y0, y1, _down(y1), (y0 + y1) / 2] + ys:
            points += [(x1, y), (_down(x1), y), (_up(x1), y)]
        for x in [x0, x1, (x0 + x1) / 2] + xs:
            points += [(x, y1), (x, _down(y1)), (x, _up(y1))]
    for ring in rings:
        for edge in zip(ring, ring[1:]):
            (x1, y1), (x2, y2) = sorted(edge, key=lambda p: p[1])  # from its lower end
            if y1 == y2:
                continue
            for py in (_down(y2), y1, (y1 + y2) / 2):
                r = _crossing_x(x1, y1, x2, y2, py)
                points += [(r, py), (_down(r), py), (_up(r), py)]
    points += [(x, y) for x in xs for y in ys]
    return zones, draw(st.permutations(points))[:400]


@settings(max_examples=150, deadline=None)
@given(slanted_cases())
def test_half_open_cells_match_point_in_rings_scan(case):
    zones, points = case
    expected, overlaps = _scan(zones, points)
    index = build_zone_index(ZoneTable.from_zones(zones))
    codes = index.locate_codes([p[0] for p in points], [p[1] for p in points])
    assert [index.zone_ids[c] if c >= 0 else None for c in codes] == expected
    assert index.overlap_warnings == overlaps


def test_a_crossing_rounded_past_xmax_keeps_its_point():
    # The slanted edge's crossing x rounds one ulp past the triangle's xmax
    # (1.0) just below its top, so the crossing test claims (1.0, py), a point
    # in the cell right of that boundary; squares from x 0 to 2 put a cell
    # boundary at x = 1.0. Cells cut at xmax would lose the point.
    left, bottom, top = 0.002042029723804562, 0.32438732534705855, 0.9041034433073107
    triangle = ((left, bottom), (1.0, top), (left, top), (left, bottom))
    py = _down(top)
    assert _crossing_x(left, bottom, 1.0, top, py) > 1.0
    assert point_in_rings((triangle,), 1.0, py)
    zones = [Zone("a", (triangle,), area_ha=1.0), square("b", 0.0, 0.0, 0.25),
             square("c", 1.5, 0.0, 0.5)]
    index = build_zone_index(ZoneTable.from_zones(zones))
    assert index._cells(np.array([_down(1.0), 1.0]), index._minx, index._dx).tolist() == [0, 1]
    assert locate(index, 1.0, py) == "a"


def test_a_crossing_rounded_below_xmin_keeps_its_point():
    # Just below the slanted edge's upper end the crossing x rounds below the
    # triangle's xmin, so a point there crosses only the vertical edge and
    # is claimed; the bbox's x range would leave it out
    top, bottom = 0.22502784272288479, -0.8639623929776784
    right, xmin = 0.8848982719212887, -0.19482849080938758
    triangle = ((right, bottom), (xmin, top), (right, top), (right, bottom))
    py = _down(top)
    px = _crossing_x(right, bottom, xmin, top, py)
    assert px < xmin
    assert point_in_rings((triangle,), px, py)
    index = build_zone_index(ZoneTable.from_zones([Zone("a", (triangle,), area_ha=1.0)]))
    assert locate(index, px, py) == "a"


def _ulps_beside(x, n=2):
    """``x`` and the ``n`` floats on either side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        v = x
        for _ in range(n):
            v = math.nextafter(v, toward)
            out.append(v)
    return out


@st.composite
def jittered_grids(draw):
    """A grid of quadrilateral zones, 0.25 a side, whose interior vertices are
    moved by up to 0.1 each way, so that every edge between two zones is
    slanted and shared bit for bit; each ring walks its zone one way or the
    other. Points lie strictly inside the grid's outline: at every vertex,
    on each slanted edge at heights where the crossing is taken from either
    end, at 6-decimal splits of the edge, and a few floats beside them all."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs, ys = np.meshgrid(np.arange(nx + 1) * 0.25, np.arange(ny + 1) * 0.25, indexing="ij")
    for grid in (xs, ys):
        grid[1:-1, 1:-1] += rng.uniform(-0.1, 0.1, (nx - 1, ny - 1))
    xs, ys = xs.tolist(), ys.tolist()
    zones = []
    for i in range(nx):
        for j in range(ny):
            ring = [(xs[a][b], ys[a][b]) for a, b in
                    ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1), (i, j))]
            zones.append(Zone(f"z{i}{j}", (tuple(ring[::-1] if rng.random() < 0.5 else ring),),
                              area_ha=1.0))
    points = [(x, y) for column in zip(xs, ys) for x, y in zip(*column)]
    for zone in zones:
        for (x1, y1), (x2, y2) in zip(zone.rings[0], zone.rings[0][1:]):
            if y1 == y2:
                continue
            for t in [*rng.random(2).tolist(), 0.5]:
                py = y1 + t * (y2 - y1)
                points += [(_crossing_x(x1, y1, x2, y2, py), py),
                           (_crossing_x(x2, y2, x1, y1, py), py),
                           (round(x1 + t * (x2 - x1), 6), round(py, 6))]
    width, height = nx * 0.25, ny * 0.25
    points = [(px, py) for x, y in points for px in _ulps_beside(x) for py in _ulps_beside(y, 1)
              if 0.0 < px < width and 0.0 < py < height]
    return zones, points


@settings(max_examples=60, deadline=None)
@given(jittered_grids(), st.randoms(use_true_random=False))
def test_a_jittered_grid_gives_every_point_one_zone(case, random):
    # Neighbours walk a shared edge in opposite directions; were its crossing
    # taken from each ring's own order, the two walks could round it apart
    # and leave a point beside the edge in both zones or in neither
    zones, points = case
    index = build_zone_index(ZoneTable.from_zones(zones))
    codes = index.locate_codes([p[0] for p in points], [p[1] for p in points])
    assert [p for p, code in zip(points, codes.tolist()) if code < 0] == []
    assert index.overlap_warnings == 0
    # the scalar rule on a sample: one owner each, the index's
    picks = random.sample(range(len(points)), min(len(points), 200))
    owners = {points[k]: [z.zone_id for z in zones if point_in_rings(z.rings, *points[k])]
              for k in picks}
    assert owners == {points[k]: [index.zone_ids[codes[k]]] for k in picks}


@pytest.mark.parametrize("ring", [
    ((-1e308, 0.0), (1e308, 1.0), (-1e308, 1.0), (-1e308, 0.0)),
    ((-1e308, 0.0), (1e308, 0.0), (1e308, 1.0), (-1e308, 1.0), (-1e308, 0.0)),
])
def test_zones_at_the_float_limits_match_point_in_rings_scan(ring):
    # x2 - x1 overflows: the grid step is infinite, and the slanted edge's
    # crossing at its lower end is NaN, so no edge toggles there for a point
    # left of every vertex that the vertical edge still claims
    zones = [Zone("a", (ring,), area_ha=1.0), square("b", 2.0, 2.0)]
    points = [(-1.5e308, 0.0), (0.0, 0.5), (-1e308, 0.0), (-1.7e308, 0.5), (1e308, 0.5),
              (5e307, _down(1.0)), (2.5, 2.5)]
    expected, overlaps = _scan(zones, points)
    index = build_zone_index(ZoneTable.from_zones(zones))
    codes = index.locate_codes([p[0] for p in points], [p[1] for p in points])
    assert [index.zone_ids[c] if c >= 0 else None for c in codes] == expected
    assert index.overlap_warnings == overlaps


def test_grid_city_zones_sit_in_fewer_cells():
    # Every synth zone's non-horizontal edges are vertical, so each takes the
    # half-open cells in x and y; its bbox maxima on cell boundaries then
    # leave out a row and a column of cells that the closed ranges took
    table = ZoneTable.from_zones(generate_city(SynthConfig(seed=5, n_zones=400)).zones)
    index = build_zone_index(table)
    x0, y0, x1, y1 = table.bbox.T
    closed = ((index._cells(x1, index._minx, index._dx)
               - index._cells(x0, index._minx, index._dx) + 1)
              * (index._cells(y1, index._miny, index._dy)
                 - index._cells(y0, index._miny, index._dy) + 1)).sum()
    assert len(index._cell_zones) < 0.9 * closed
