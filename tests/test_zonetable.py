"""The columnar zone table against per-zone references.

The references are the row-at-a-time code the table replaced: a loader that
builds and validates one ``Zone`` per feature, the FeatureCollection built as
dicts and written with one ``json.dumps``, and the ``scalar_reference``
functions: one table row as a ``Zone``, ``classify_zone`` and
``distance_to_centre`` per zone.
"""

import copy
import csv
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citypulse import pipeline, spatial, tables
from citypulse.config import PipelineConfig
from citypulse.errors import DataError
from citypulse.ingest import write_events_ndjson
from citypulse.landuse import ACTIVITY_CATEGORIES, CATEGORIES, CLASSES, classify_zones
from citypulse.pipeline import export_geojson, run_pipeline
from citypulse.spatial import (CityCentre, Zone, ZoneTable, distances_to_centre,
                               load_zones_geojson)
from citypulse.synth import SynthConfig, city_geojson, generate_city, generate_events
from citypulse.tables import write_csv

from scalar_reference import (ClassificationError, classify_zone, distance_to_centre, validate,
                              zone_row, zone_rows)

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
        validate(zone)
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
    assert [zone_fields(z) for z in zone_rows(table)] == [zone_fields(z) for z in reference]
    assert zone_fields(zone_row(table, -1)) == zone_fields(reference[-1])
    assert [zone_fields(z) for z in zone_rows(ZoneTable.from_zones(reference))] == [
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
    assert [zone_fields(z) for z in zone_rows(again)] == [zone_fields(z) for z in zone_rows(table)]

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


def test_zero_area_centroids_match_the_reference():
    # the vertex-mean fallback runs for zero-area geometry: a collinear ring,
    # and an outer ring whose hole has the same area
    square = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0))
    shifted = tuple((x + 0.3, y + 0.7) for x, y in square)
    zones = [Zone("a", (square,), 1.0),
             Zone("b", (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.0)),), 1.0),
             Zone("c", (square, shifted), 1.0),
             Zone("d", (((-3.1, 1.1), (-2.9, 1.1), (-3.0, 1.3), (-3.1, 1.1)),), 1.0),
             Zone("e", (((0.1, 0.2), (0.1, 0.2 + 1e-9), (0.1, 0.2 + 3e-9), (0.1, 0.2)),), 1.0)]
    centre = CityCentre(0.4, 0.9)
    expected = np.array([distance_to_centre(z, centre) for z in zones])
    assert distances_to_centre(ZoneTable.from_zones(zones), centre).tobytes() == expected.tobytes()


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
          "text area", "null vertex", "nan hole vertex", "empty ring"]


def _break(feature, fault, other_id):
    """Apply one fault; faults may land on the same feature, so each skips when an
    earlier one already took away what it changes. Ring faults damage ring 0, but
    "degenerate" replaces the last ring, "nan hole vertex" damages ring 1 (a copy
    of ring 0 when there is no hole) and "empty ring" appends an empty ring."""
    props, geom = feature["properties"], feature["geometry"]
    if not geom["coordinates"]:  # "no rings" came first
        return
    ring = geom["coordinates"][0]
    if len(ring) < {"unclosed": 1, "nan vertex": 2, "bad pair": 2, "null vertex": 3,
                    "nan hole vertex": 2}.get(fault, 0):
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
    elif fault == "nan hole vertex":
        if len(geom["coordinates"]) == 1:
            geom["coordinates"].append(copy.deepcopy(ring))
        hole = geom["coordinates"][1]
        if len(hole) >= 2:  # not an empty ring
            hole[1] = [math.nan, hole[1][1]]
    elif fault == "empty ring":
        geom["coordinates"].append([])


def _rows(zones):
    """A loader's zones as Zone rows: the reference's list, or each row of a table."""
    return zone_rows(zones) if isinstance(zones, ZoneTable) else zones


def _outcome(load, path):
    try:
        return [z.zone_id for z in _rows(load(path))]
    except DataError as exc:
        return str(exc)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def _feature(zone_id, ring=SQUARE, **props):
    return {"type": "Feature", "properties": {"zone_id": zone_id, **props},
            "geometry": {"type": "Polygon", "coordinates": [list(ring)]}}


@settings(max_examples=200, deadline=None)
@given(case=st.integers(2, 6).flatmap(lambda n: st.tuples(
    features(n), st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(FAULTS)),
                          max_size=3))))
# ring 0 breaks a later rule than ring 1: the first ring decides
@example(case=([_feature("a"), _feature("b")], [(1, "unclosed"), (1, "nan hole vertex")]))
@example(case=([_feature("a"), _feature("b")], [(1, "unclosed"), (1, "empty ring")]))
# one ring breaks two rules: the earlier rule names it
@example(case=([_feature("a"), _feature("b")], [(1, "degenerate"), (1, "nan vertex")]))
@example(case=([_feature("a"), _feature("b")], [(1, "degenerate"), (1, "unclosed")]))
# the empty ring of the last zone by zone_id ends the vertex array
@example(case=([_feature("b"), _feature("a")], [(0, "empty ring")]))
@example(case=([_feature("b"), _feature("a")], [(0, "empty ring"), (1, "missing id")]))
def test_bad_zones_file_raises_the_reference_error(case, tmp_path_factory):
    feats, faults = copy.deepcopy(case)
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
    assert {CLASSES[c] for c in classify_zones(original).tolist()} == set(ALL_CLASSES)
    assert reloaded.zone_ids == original.zone_ids
    for name in ("area_ha", "built_residential_m2", "built_total_m2", "landuse_m2",
                 "landuse_present", "vertices", "ring_start", "zone_ring_start", "bbox"):
        assert np.array_equal(getattr(reloaded, name), getattr(original, name)), name
    assert ZoneTable.from_zones(city.zones).vertices.tobytes() == original.vertices.tobytes()


# --- the zones reader: one feature at a time, json.load's verdict ----------------

def _fields_or_error(load, path):
    try:
        return [zone_fields(z) for z in _rows(load(path))]
    except DataError as exc:
        return str(exc)


def _reference_outcome(path):
    """What the loader must give for a file: json's own text for a syntax
    error, the document rules, then reference_load's zones or message. None
    where only some DataError is asked for (bytes that are not UTF-8, a
    document that json refuses otherwise, a feature reference_load cannot read)."""
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        return f"zones file {path} is not valid JSON: {exc}"
    except (ValueError, RecursionError):
        return None
    features = doc.get("features", []) if isinstance(doc, dict) else None
    if not isinstance(features, list) or doc.get("type") != "FeatureCollection":
        return f"zones file {path}: expected a GeoJSON FeatureCollection"
    try:
        return _fields_or_error(reference_load, path) if features else []
    except Exception:
        return None


def _json_error(path, text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"zones file {path} is not valid JSON: {exc}"
    raise AssertionError("the text is valid JSON")


GOOD_TEXT = json.dumps({"type": "FeatureCollection",
                        "features": [_feature("b", lu_park_m2=5), _feature("a")]})


def test_every_truncation_raises_the_json_error(tmp_path):
    path = tmp_path / "zones.geojson"
    for end in range(len(GOOD_TEXT)):
        path.write_text(GOOD_TEXT[:end], encoding="utf-8")
        assert _fields_or_error(load_zones_geojson, path) == _json_error(path, GOOD_TEXT[:end])


@pytest.mark.parametrize("old,new", [
    ('}, {"type"', '} {"type"'),  # no comma between features
    ('"features": [', '"features": [,'),
    ('"Feature"', "'Feature'"),
    ("]]}}]}", "]]}}]}}"),  # extra data
    ("]]}}]}", "]]}}]]"),
    ('{"type": "FeatureCollection"', '{"type": "FeatureCollection" "x": 1'),
    ('{"type"', '{type'),
    ('{"type"', ', "type"'),
    ('"FeatureCollection", ', '"FeatureCollection" { '),
    ('"features": [', '"features": , "x": ['),
    ("]]}}]}", ']]}}}, "n": 1}'),  # the features array closed by "}"
])
def test_garbled_text_raises_the_json_error(old, new, tmp_path):
    text = GOOD_TEXT.replace(old, new, 1)
    assert text != GOOD_TEXT
    path = tmp_path / "zones.geojson"
    path.write_text(text, encoding="utf-8")
    assert _fields_or_error(load_zones_geojson, path) == _json_error(path, text)


def test_syntax_error_after_a_bad_zone_wins(tmp_path):
    text = json.dumps({"type": "FeatureCollection",
                       "features": [_feature("a", SQUARE[:-1]), _feature("b")]})[:-1]
    path = tmp_path / "zones.geojson"
    path.write_text(text, encoding="utf-8")
    assert _fields_or_error(load_zones_geojson, path) == _json_error(path, text)


@pytest.mark.parametrize("text", [
    # a repeated key: the last one wins, as in json.load
    '{"type": "FeatureCollection", "features": [{"type": "Feature"}], "features": []}',
    '{"type": "FeatureCollection", "features": [%s], "features": [%s]}'
    % (json.dumps(_feature("a")), json.dumps(_feature("b"))),
    '{"type": "FeatureCollection", "features": [], "features": [%s]}'
    % json.dumps(_feature("a", SQUARE[:-1])),
    '{"features": [%s], "type": "Point", "type": "FeatureCollection"}'
    % json.dumps(_feature("a")),
    # whitespace and escapes between and inside features
    '\n {"\\u0074ype" :"FeatureCollection" ,\r\n"feat\\u0075res"\t: [ \n%s\n ,\t%s ] \n}\n '
    % (json.dumps(_feature('q"\\é', lu_park_m2=1.5)),
       json.dumps(_feature("\\u00e9", [[0, 0], [2, 0], [0, 2], [0, 0]]), indent=3)),
    json.dumps({"type": "FeatureCollection", "features": [_feature("b"), _feature("a")]},
               indent="\t", ensure_ascii=False),
    # no zones at all
    '{"type": "FeatureCollection", "features": []}',
    '{"type": "FeatureCollection", "features": [ ]}',
    '{"type": "FeatureCollection"}',
    # the last "type" member is the document's type
    '{"features": [], "type": "Feature"}',
    '{"type": "FeatureCollection", "type": "Feature", "features": []}',
    '{"type": "Feature", "type": "FeatureCollection", "features": []}',
])
def test_decoder_agrees_with_the_reference(text, tmp_path):
    path = tmp_path / "zones.geojson"
    path.write_text(text, encoding="utf-8")
    expected = _reference_outcome(path)
    assert expected is not None
    assert _fields_or_error(load_zones_geojson, path) == expected


@pytest.mark.parametrize("text", [
    GOOD_TEXT,
    json.dumps({"features": [_feature("b"), _feature("a")], "type": "FeatureCollection",
                "bbox": [0, 0, 1, 1], "name": {"x": [1, "]"]}}),
    '\t{ "type":"FeatureCollection","features":[%s,%s]}\r\n'
    % (json.dumps(_feature("\u00e9")), json.dumps(_feature("a\\b\"", SQUARE[:-1]))),
])
def test_valid_documents_are_decoded_one_feature_at_a_time(text, tmp_path):
    # json.loads of the whole text is the fallback for a text off the path
    # (the second zone of the last text is bad: that is not off the path)
    path = tmp_path / "zones.geojson"
    path.write_text(text, encoding="utf-8")
    expected = _reference_outcome(path)
    with mock.patch.object(json, "loads", side_effect=AssertionError("whole text")):
        assert _fields_or_error(load_zones_geojson, path) == expected


@pytest.mark.parametrize("content,message", [
    (b"[]", "expected a GeoJSON FeatureCollection"),
    (b"null", "expected a GeoJSON FeatureCollection"),
    (b'{"type": "FeatureCollection", "features": {"a": 1}}',
     "expected a GeoJSON FeatureCollection"),
    (b'{"type": "FeatureCollection", "features": null}', "expected a GeoJSON FeatureCollection"),
    (b'{"type": "FeatureCollection", "features": [1]}', "feature #0: missing property 'zone_id'"),
    (b'{"type": "FeatureCollection", "features": [{"properties": [], "geometry": 2}]}',
     "feature #0: missing property 'zone_id'"),
    (b'{"type": "FeatureCollection", "features": [{"properties": ["zone_id"]}]}',
     "feature #0: missing property 'zone_id'"),
    (b'{"type": "FeatureCollection", "features": [{"properties": {"zone_id": "a"}, '
     b'"geometry": "x"}]}', "zone 'a': unsupported geometry type None"),
    (b'{"type": "FeatureCollection", "features": []}\xff', "cannot read zones file"),
    (b'{"type": "FeatureCollection", "features": [' + b"[" * 100_000 + b"]" * 100_000 + b"]}",
     "is not valid JSON"),
    (b'{"type": "FeatureCollection", "features": [], "n": ' + b"9" * 5000 + b"}",
     "is not valid JSON"),
])
def test_malformed_zones_file_is_a_data_error(content, message, tmp_path):
    path = tmp_path / "zones.geojson"
    path.write_bytes(content)
    with pytest.raises(DataError, match=message):
        load_zones_geojson(path)


PAIRS = "coordinates are not [lon, lat] number pairs"
NOT_A_NUMBER = "a numeric property is not a number"


@pytest.mark.parametrize("feature,message", [
    (_feature("a", [["0", "0"], [1, 0], [1, 1], [0, 1], ["0", "0"]]), PAIRS),
    (_feature("a", [[False, 0], [1, 0], [1, 1], [0, 1], [False, 0]]), PAIRS),
    (_feature("a", [[0, 0], [1, 0], [1, True], [0, 1], [0, 0]]), PAIRS),
    (_feature("a", [[0, 0], [1, 0], [1, 1], [0, 1], [0, 10 ** 400]]), PAIRS),
    (_feature("a", area_ha="2.5"), NOT_A_NUMBER),
    (_feature("a", built_total_m2=True), NOT_A_NUMBER),
    (_feature("a", lu_park_m2="1"), NOT_A_NUMBER),
    (_feature("a", lu_park_m2=False), NOT_A_NUMBER),
    (_feature("a", area_ha=10 ** 400), NOT_A_NUMBER),
])
def test_zone_numbers_are_json_numbers(feature, message, tmp_path):
    path = tmp_path / "zones.geojson"
    write_zones(path, [_feature("b"), feature])
    with pytest.raises(DataError) as caught:
        load_zones_geojson(path)
    assert str(caught.value) == f"zone 'a': {message}"


JUNK = st.sampled_from([None, True, False, 0, 1, -2.5, 10 ** 400, "", "x", "2.5", [], {}, [1],
                        [1, "2"], [[1, 2]], {"type": "Polygon"}, {"zone_id": "j"}]
                       ).map(copy.deepcopy)  # a later mutation may change what this one put
NUMBER_RULE = r"^zone .*: (coordinates are not \[lon, lat\] number pairs|a numeric property is not a number)$"


def _nodes(value, found):
    """Every (container, key) of a decoded JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        found.append((value, key))
        _nodes(child, found)
    return found


@st.composite
def mutated_documents(draw):
    """A zones document with some of its values replaced, then some of its bytes."""
    doc = {"type": "FeatureCollection", "features": draw(features(draw(st.integers(1, 4))))}
    for _ in range(draw(st.integers(0, 3))):
        nodes = _nodes(doc, [])
        container, key = nodes[draw(st.integers(0, len(nodes) - 1))]
        container[key] = draw(JUNK)
    if draw(st.integers(0, 7)) == 0:
        doc = draw(JUNK)
    data = json.dumps(doc, ensure_ascii=False, indent=draw(st.sampled_from([None, 1]))).encode()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.sampled_from([0, 1]))
        data = data[:at] + draw(st.sampled_from([b"", b",", b"]", b"}", b"{", b"[", b'"', b" ",
                                                 b"\\", b":", b"\xff", b"1"])) + data[at + cut:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=mutated_documents())
def test_mutated_zones_file_raises_only_data_error(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated") / "zones.geojson"
    path.write_bytes(data)
    got = _fields_or_error(load_zones_geojson, path)  # any other exception fails the test
    expected = _reference_outcome(path)
    if isinstance(got, list):  # valid input: the reference's zones
        assert got == expected
    elif expected is not None and got != expected:
        # the reference takes strings and booleans for numbers, so a zone
        # fails earlier here
        assert re.match(NUMBER_RULE, got), (got, expected)


@settings(max_examples=200, deadline=None)
@given(data=mutated_documents(), block=st.sampled_from([1, 2, 3, 7, 64]))
def test_zones_read_in_small_blocks_match_one_read(data, block, tmp_path_factory):
    # the zones file is read spatial.ZONES_READ characters at a time: blocks
    # that cut tokens, strings, numbers and features anywhere give the zones
    # or the error of one read of the whole file
    path = tmp_path_factory.mktemp("blocks") / "zones.geojson"
    path.write_bytes(data)
    with mock.patch.object(spatial, "ZONES_READ", 1 << 30):
        whole = _fields_or_error(load_zones_geojson, path)
    with mock.patch.object(spatial, "ZONES_READ", block):
        assert _fields_or_error(load_zones_geojson, path) == whole


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_zones_read_in_blocks_stay_on_the_feature_path(block, tmp_path, monkeypatch):
    # a valid file is decoded feature by feature whatever the block size: the
    # whole-text json.loads, the error path, never runs
    doc = city_geojson(_synth_zones(49))
    doc["features"][3]["properties"]["zone_id"] = "z\u00e9\u4e2d\U0001f600"  # 2- to 4-byte UTF-8
    path = tmp_path / "zones.geojson"
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=1), encoding="utf-8")
    expected = [zone_fields(z) for z in zone_rows(load_zones_geojson(path))]

    def whole_text(*args, **kwargs):
        raise AssertionError("the zones file left the feature path")

    monkeypatch.setattr(spatial, "ZONES_READ", block)
    monkeypatch.setattr(json, "loads", whole_text)
    assert [zone_fields(z) for z in zone_rows(load_zones_geojson(path))] == expected


# --- memory per zone --------------------------------------------------------------


def _synth_zones(n_zones):
    config = SynthConfig(seed=19, n_zones=n_zones, n_users=10,
                         class_mix={k: 1 / len(ALL_CLASSES) for k in ALL_CLASSES})
    return generate_city(config)


def test_zone_load_memory_grows_by_bytes_per_zone(tmp_path):
    # 4,900 zones, a 2.0 MB file. Read 16,384 characters at a time and
    # decoded one feature at a time into flat arrays, the load peaks at
    # 3.7 MB traced (0.75 KB a zone): the gathered columns and the table made
    # from them. The text read whole peaked at 4.1 MB, and with it a list of
    # vertices, ring lengths, land-use pairs and numbers per zone at 5.9 MB
    # (1.2 KB a zone); json.load of the whole document and nested vertex
    # lists at 13.2 MB (2.7 KB a zone).
    path = tmp_path / "zones.geojson"
    path.write_text(json.dumps(city_geojson(_synth_zones(4900))), encoding="utf-8")
    tracemalloc.start()
    try:
        table = load_zones_geojson(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 4900
    assert peak < 1000 * len(table)


def test_export_geojson_peak_is_one_block(tmp_path):
    # Formatted pipeline.EXPORT_BLOCK_FEATURES (128) features at a time, the
    # export's traced peak is 0.50 MB at both 2,100 and 4,900 zones (3.9 MB
    # at 1,024 features a block): one block's text and the tail of the one
    # before it. Every column's text for the whole table at once peaked at
    # 6.3 and 14.7 MB.
    city = _synth_zones(4900)
    peaks = []
    for n in (2100, 4900):
        table = ZoneTable.from_zones(city.zones[:n])
        rng = np.random.default_rng(n)
        columns = {f"value_{j}": rng.random(n) for j in range(8)}
        columns["label"] = ["residential"] * n
        tracemalloc.start()
        try:
            export_geojson(table, columns, tmp_path / "zones_metrics.geojson")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert load_zones_geojson(tmp_path / "zones_metrics.geojson").zone_ids == table.zone_ids
    assert peaks[1] < 1.25 * peaks[0]


def _edge_zones(case):
    """Squares around a block edge of the export, or one zone of 10,000 vertices."""
    if case == "one 10,000-vertex zone":
        angle = np.linspace(0.0, 2 * math.pi, 9_999, endpoint=False)
        ring = np.column_stack([np.cos(angle), np.sin(angle) * 0.5]).tolist()
        return [Zone("round", (tuple(map(tuple, ring + ring[:1])),), 78.5,
                     {CATEGORIES[0]: 3.25}, 1.0, 2.0)]
    return [Zone(f"z{k:03d}", (((x, 0.0), (x + 1, 0.0), (x + 1, 0.1 * x + 1), (x, 0.0)),),
                 1.5 * x, {CATEGORIES[k % len(CATEGORIES)]: x / 7}, x / 3, x / 2)
            for k, x in enumerate(map(float, range(int(case.split()[0]))))]


@pytest.mark.parametrize("case", ["255 features", "256 features", "257 features",
                                  "one 10,000-vertex zone"])
def test_export_text_equals_one_dumps_across_block_edges(case, tmp_path):
    # features are formatted 128 at a time: 255, 256 and 257 end a block one
    # short, on and one past its edge; a 10,000-vertex zone is a block alone
    assert pipeline.EXPORT_BLOCK_FEATURES == 128
    zones = _edge_zones(case)
    table = ZoneTable.from_zones(zones)
    n = len(table)
    columns = {"share": np.arange(n) / 3.0,
               "label": [None, "retail"] * (n // 2) + [None] * (n % 2)}
    export_geojson(table, columns, tmp_path / "new.geojson")
    reference_export(zones, {"share": dict(zip(table.zone_ids, columns["share"].tolist())),
                             "label": {z: v for z, v in zip(table.zone_ids, columns["label"])}},
                     tmp_path / "reference.geojson")
    assert (tmp_path / "new.geojson").read_bytes() == (tmp_path / "reference.geojson").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_export_blocks_join_to_the_reference_text(block, tmp_path):
    feats = [_feature("c", lu_park_m2=2.5), _feature("a", [[0, 0], [2, 0], [0, 2], [0, 0]]),
             _feature("b", lu_office_m2=1, built_total_m2=3.0), _feature("d")]
    feats[3]["geometry"]["coordinates"].append([[0.2, 0.2], [0.4, 0.2], [0.2, 0.4], [0.2, 0.2]])
    write_zones(tmp_path / "zones.geojson", feats)
    table = load_zones_geojson(tmp_path / "zones.geojson")
    columns = {"x": np.array([0.5, 1e-7, math.nan, 3.0]), "y": [None, "m", "r", None]}
    with mock.patch.object(pipeline, "EXPORT_BLOCK_FEATURES", block):
        export_geojson(table, columns, tmp_path / "new.geojson")
    reference_export(zone_rows(table), {"x": dict(zip(table.zone_ids, columns["x"].tolist())),
                                   "y": {z: v for z, v in zip(table.zone_ids, columns["y"])
                                         if v is not None}}, tmp_path / "reference.geojson")
    assert (tmp_path / "new.geojson").read_bytes() == (tmp_path / "reference.geojson").read_bytes()
