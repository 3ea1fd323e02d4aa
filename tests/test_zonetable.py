"""The columnar zone table against per-zone references.

The references are the row-at-a-time code the table replaced: a loader that
builds and validates one ``Zone`` per feature, the FeatureCollection built as
dicts and written with one ``json.dumps``, ``classify_zone`` and
``distance_to_centre`` per zone.
"""

import csv
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse import tables
from citypulse.config import PipelineConfig
from citypulse.errors import ClassificationError, DataError
from citypulse.ingest import write_events_ndjson
from citypulse.landuse import (ACTIVITY_CATEGORIES, CATEGORIES, CLASSES, classify_zone,
                               classify_zones)
from citypulse.pipeline import export_geojson, run_pipeline
from citypulse.spatial import (CityCentre, Zone, ZoneTable, distance_to_centre,
                               distances_to_centre, load_zones_geojson)
from citypulse.synth import SynthConfig, city_geojson, generate_city, generate_events
from citypulse.tables import write_csv

# --- references ---------------------------------------------------------------


def reference_load(path):
    """One Zone per feature, validated in file order; then the duplicate check."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    zones = []
    for n, feature in enumerate(doc["features"]):
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
        try:
            landuse = {cat: float(props[cat.column]) for cat in CATEGORIES if cat.column in props}
            area, residential, total = (float(props.get(k, 0.0)) for k in (
                "area_ha", "built_residential_m2", "built_total_m2"))
        except (TypeError, ValueError):
            raise DataError(f"zone {zone_id!r}: a numeric property is not a number")
        try:
            rings = tuple(tuple((float(x), float(y)) for x, y in ring)
                          for ring in geom.get("coordinates", []))
        except (TypeError, ValueError):
            raise DataError(f"zone {zone_id!r}: coordinates are not [lon, lat] number pairs")
        zone = Zone(zone_id, rings, area, landuse, residential, total)
        zone.validate()
        zones.append(zone)
    ids = [z.zone_id for z in zones]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        raise DataError(f"duplicate zone_id(s): {', '.join(dupes)}")
    return sorted(zones, key=lambda z: z.zone_id)


def reference_export(zones, columns, path):
    """The FeatureCollection as dicts, floats through float(format(v, ".6g")), one dumps."""
    features = []
    for zone in sorted(zones, key=lambda z: z.zone_id):
        props = {"zone_id": zone.zone_id, "area_ha": zone.area_ha,
                 "built_residential_m2": zone.built_residential_m2,
                 "built_total_m2": zone.built_total_m2}
        for cat in CATEGORIES:
            if cat in zone.landuse_m2:
                props[cat.column] = zone.landuse_m2[cat]
        for name in sorted(columns):
            value = columns[name].get(zone.zone_id)
            if isinstance(value, float):
                value = float(format(value, ".6g"))
            props[name] = value
        features.append({"type": "Feature", "properties": props,
                         "geometry": {"type": "Polygon", "coordinates": [
                             [list(p) for p in ring] for ring in zone.rings]}})
    doc = {"type": "FeatureCollection", "features": features}
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def zone_fields(zone):
    return (zone.zone_id, zone.rings, repr(zone.area_ha), dict(zone.landuse_m2),
            zone.built_residential_m2, zone.built_total_m2)


# --- random zone sets -----------------------------------------------------------

LATTICE = st.integers(0, 8).map(lambda k: k * 0.5)
IDS = st.text(alphabet=st.sampled_from('az09 ,;"\\\r\n\té中 \U0001f600'),
              min_size=1, max_size=6)
AREA = st.one_of(st.floats(0, 1e7, allow_nan=False), st.integers(0, 10 ** 6),
                 st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-7, 2.5e16]))
M2 = st.one_of(st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
               st.integers(0, 10 ** 9), st.just(0), st.just(0.0))
ACTIVITY_COLUMNS = [cat.column for cat in ACTIVITY_CATEGORIES]


@st.composite
def rings(draw):
    """A rectangle, a rectangle with a hole, or a triangle, on a lattice or off it."""
    kind = draw(st.sampled_from(["rect", "holed", "triangle"]))
    if kind == "triangle":
        pts = draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=3, max_size=3, unique=True))
        if len({(x, y) for x, y in pts}) < 3 or len({x for x, _ in pts}) == 1:
            pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        return [[list(p) for p in pts] + [list(pts[0])]]
    x0, x1 = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(LATTICE, min_size=2, max_size=2, unique=True)))
    x1 += draw(st.sampled_from([0.0, 1e-9, 0.1234567891234]))
    outer = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
    if kind == "rect" or x1 - x0 < 1.0 or y1 - y0 < 1.0:
        return [outer]
    hx0, hy0 = x0 + 0.25, y0 + 0.25
    hx1, hy1 = draw(st.floats(hx0 + 0.25, x1)), draw(st.floats(hy0 + 0.25, y1))
    return [outer, [[hx0, hy0], [hx0, hy1], [hx1, hy1], [hx1, hy0], [hx0, hy0]]]


@st.composite
def features(draw, n):
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    out = []
    for zone_id in ids:  # file order is the drawn order, not sorted
        props = {"zone_id": zone_id}
        landuse = {}
        for cat in CATEGORIES:  # absent, present zero, integer or float
            value = draw(st.one_of(st.none(), M2))
            if value is not None:
                landuse[cat.column] = value
        if draw(st.booleans()):  # two activity categories tie for the largest area
            a, b = draw(st.lists(st.sampled_from(ACTIVITY_COLUMNS), min_size=2, max_size=2,
                                 unique=True))
            landuse[a] = landuse[b] = max(landuse.get(c, 0) for c in ACTIVITY_COLUMNS)
        keys = list(landuse)
        for key in draw(st.permutations(keys)):
            props[key] = landuse[key]
        total = draw(M2)
        props["built_total_m2"] = total
        props["built_residential_m2"] = draw(st.sampled_from([0, total, total / 2]))
        if draw(st.booleans()):
            props["area_ha"] = draw(AREA)
        out.append({"type": "Feature", "properties": props,
                    "geometry": {"type": "Polygon", "coordinates": draw(rings())}})
    return out


def write_zones(path, feats):
    path.write_text(json.dumps({"type": "FeatureCollection", "features": feats},
                               ensure_ascii=False), encoding="utf-8")


VALUES = st.one_of(st.floats(allow_nan=True), st.integers(-5, 5).map(float),
                   st.sampled_from([0.0, -0.0, 1e6, 999999.5, 123456.0, 1e-5, 1.5e-7, 1e16,
                                    2.5e15, -3.25, 100000.0]))


@settings(max_examples=150, deadline=None)
@given(case=st.integers(1, 7).flatmap(lambda n: st.tuples(
    features(n), st.lists(VALUES, min_size=n, max_size=n),
    st.lists(st.sampled_from(["residential", "activity:park", None]), min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), VALUES), min_size=n, max_size=n))))
def test_table_path_matches_per_zone_references(case, tmp_path_factory):
    feats, metric, labels, sparse = case
    tmp = tmp_path_factory.mktemp("zones")
    path = tmp / "zones.geojson"
    write_zones(path, feats)
    table = load_zones_geojson(path)
    reference = reference_load(path)
    assert [zone_fields(z) for z in table] == [zone_fields(z) for z in reference]
    assert zone_fields(table[-1]) == zone_fields(reference[-1])
    assert [zone_fields(z) for z in ZoneTable.from_zones(reference)] == [
        zone_fields(z) for z in reference]

    ids = table.zone_ids
    columns = {"metric": np.array(metric), "landuse_class": labels, "sparse": sparse}
    reference_columns = {"metric": dict(zip(ids, metric)),
                         "landuse_class": {z: v for z, v in zip(ids, labels) if v is not None},
                         "sparse": {z: v for z, v in zip(ids, sparse) if v is not None}}
    export_geojson(table, columns, tmp / "new.geojson")
    reference_export(reference, reference_columns, tmp / "reference.geojson")
    assert (tmp / "new.geojson").read_bytes() == (tmp / "reference.geojson").read_bytes()
    # the export re-parses as zones input with the same table
    again = load_zones_geojson(tmp / "new.geojson")
    assert [zone_fields(z) for z in again] == [zone_fields(z) for z in table]

    codes = classify_zones(table)
    assert len(codes) == len(reference)
    for zone, code in zip(reference, codes.tolist()):
        try:
            expected_class = classify_zone(zone)
        except ClassificationError:
            assert code == -1
        else:
            assert CLASSES[code] == expected_class

    centre = CityCentre(1.25, 2.0)
    expected = np.array([distance_to_centre(z, centre) for z in reference])
    assert distances_to_centre(table, centre).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(IDS, VALUES, st.integers(-10 ** 12, 10 ** 12)), max_size=30),
       block=st.sampled_from([1, 7, 1024]))
def test_write_csv_matches_csv_writer(rows, block, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    ids = [r[0] for r in rows]
    floats = np.array([r[1] for r in rows], dtype=float)
    ints = np.array([r[2] for r in rows], dtype=np.int64)
    with mock.patch.object(tables, "BLOCK_ROWS", block):
        write_csv(tmp / "new.csv", ["zone_id", "x,y", "n"], [ids, floats, ints])
    with open(tmp / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zone_id", "x,y", "n"])
        for zone_id, value, count in rows:
            writer.writerow([zone_id, format(value, ".6g"), count])
    assert (tmp / "new.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


FAULTS = ["degenerate", "unclosed", "residential exceeds", "negative area", "nan area",
          "missing id", "multipolygon", "no rings", "nan vertex", "bad pair", "duplicate",
          "text area", "null vertex"]


def _break(feature, fault, other_id):
    """Apply one fault; faults may land on the same feature, so each skips when an
    earlier one already took away what it changes."""
    props, geom = feature["properties"], feature["geometry"]
    if not geom["coordinates"]:  # "no rings" came first
        return
    ring = geom["coordinates"][0]
    if len(ring) < {"unclosed": 1, "nan vertex": 2, "bad pair": 2, "null vertex": 3}.get(fault, 0):
        return  # "degenerate" and "unclosed" left too few vertices
    if fault == "degenerate":
        geom["coordinates"][-1] = [[0, 0], [1, 1], [0, 0]]
    elif fault == "unclosed":
        del ring[-1]
    elif fault == "residential exceeds":
        props["built_total_m2"], props["built_residential_m2"] = 1.0, 2.0
    elif fault == "negative area":
        props["lu_park_m2"] = -1.0
    elif fault == "nan area":
        props["lu_office_m2"] = math.nan
    elif fault == "missing id":
        props.pop("zone_id", None)
    elif fault == "multipolygon":
        geom["type"] = "MultiPolygon"
    elif fault == "no rings":
        geom["coordinates"] = []
    elif fault == "nan vertex":
        ring[1] = [math.nan, ring[1][1]]
    elif fault == "bad pair":
        ring[1] = ring[1] + [0.0]
    elif fault == "duplicate":
        props["zone_id"] = other_id
    elif fault == "text area":
        props["built_total_m2"] = "many"
    elif fault == "null vertex":
        ring[2] = [ring[2][0], None]


def _outcome(load, path):
    try:
        return [z.zone_id for z in load(path)]
    except DataError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(2, 6).flatmap(lambda n: st.tuples(
    features(n), st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(FAULTS)),
                          max_size=3))))
def test_bad_zones_file_raises_the_reference_error(case, tmp_path_factory):
    feats, faults = case
    for k, fault in faults:
        _break(feats[k], fault, feats[(k + 1) % len(feats)]["properties"].get("zone_id", "x"))
    path = tmp_path_factory.mktemp("bad") / "zones.geojson"
    write_zones(path, feats)
    assert _outcome(load_zones_geojson, path) == _outcome(reference_load, path)


def test_first_offender_in_file_order_not_id_order(tmp_path):
    square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    feats = [{"type": "Feature", "properties": {"zone_id": zone_id},
              "geometry": {"type": "Polygon", "coordinates": [ring]}}
             for zone_id, ring in (("b", square), ("c", square[:-1]), ("a", [[0, 0], [1, 1]]))]
    write_zones(tmp_path / "zones.geojson", feats)
    with pytest.raises(DataError, match="zone 'c': ring is not closed"):
        load_zones_geojson(tmp_path / "zones.geojson")


def test_array_check_and_validate_must_agree(tmp_path):
    """A fault the arrays see but Zone.validate accepts stops the load."""
    square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    write_zones(tmp_path / "zones.geojson", [
        {"type": "Feature", "properties": {"zone_id": "a"},
         "geometry": {"type": "Polygon", "coordinates": [square]}}])
    with mock.patch("citypulse.spatial._has_fault", return_value=True):
        with pytest.raises(RuntimeError, match="Zone.validate accepts"):
            load_zones_geojson(tmp_path / "zones.geojson")


# --- zones_metrics.geojson as zones input, at scale -----------------------------

ALL_CLASSES = ("residential", "mixed", "activity:office", "activity:industry",
               "activity:retail", "activity:health", "activity:education",
               "activity:culture", "activity:transport", "activity:park", "activity:other")


def test_zones_metrics_reparses_as_zones_input_at_scale(tmp_path):
    config = SynthConfig(seed=103, n_zones=2025, n_users=200, events_per_user_per_day=20.0,
                         n_days=3, home_bias=0.7, centre_decay_per_km=0.1,
                         class_mix={k: 1 / len(ALL_CLASSES) for k in ALL_CLASSES})
    city = generate_city(config)
    events, _ = generate_events(city)
    zones_path, events_path = tmp_path / "zones.geojson", tmp_path / "events.ndjson"
    zones_path.write_text(json.dumps(city_geojson(city)), encoding="utf-8")
    write_events_ndjson(events, events_path)
    run_pipeline(PipelineConfig(events_path=events_path, zones_path=zones_path,
                                output_dir=tmp_path / "out", timezone=config.timezone,
                                centre_lon=city.centre.lon, centre_lat=city.centre.lat))

    original = load_zones_geojson(zones_path)
    reloaded = load_zones_geojson(tmp_path / "out" / "zones_metrics.geojson")
    assert len(original) == 2025
    assert {CLASSES[c].key for c in classify_zones(original).tolist()} == set(ALL_CLASSES)
    assert reloaded.zone_ids == original.zone_ids
    for name in ("area_ha", "built_residential_m2", "built_total_m2", "landuse_m2",
                 "landuse_present", "vertices", "ring_start", "zone_ring_start", "bbox"):
        assert np.array_equal(getattr(reloaded, name), getattr(original, name)), name
    assert ZoneTable.from_zones(city.zones).vertices.tobytes() == original.vertices.tobytes()
