import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse import spatial
from citypulse.errors import DataError
from citypulse.landuse import LandUseCategory
from citypulse.spatial import (CityCentre, Zone, ZoneTable, build_zone_index, haversine_m,
                               load_zones_geojson)

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
    assert zones[0].landuse_m2[LandUseCategory.RETAIL] == 200.0
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


@settings(max_examples=300, deadline=None)
@given(join_cases(), st.sampled_from([(8192, 1 << 17), (3, 2)]))
def test_array_join_matches_point_in_rings_scan(case, sizes):
    zones, points = case
    by_id = sorted(zones, key=lambda z: z.zone_id)
    expected, overlaps = [], 0
    for lon, lat in points:
        owners = [z.zone_id for z in by_id if point_in_rings(z.rings, lon, lat)]
        expected.append(owners[0] if owners else None)
        overlaps += max(0, len(owners) - 1)

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
