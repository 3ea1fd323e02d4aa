import csv
import dataclasses
import hashlib
import json
import os
import re
import tracemalloc
from pathlib import Path

import pytest

from citypulse import activity, cli, pipeline, stats
from citypulse.config import (PipelineConfig, load_config, parse_slots,
                              parse_time_range, slots_to_text)
from citypulse.activity import DEFAULT_SLOTS
from citypulse.errors import ConfigError, DataError
from citypulse.pipeline import export_geojson, parse_events_file, run_pipeline
from citypulse.spatial import Zone, ZoneTable, load_zones_geojson
from citypulse.stats import bivariate_slot_ols
from citypulse.synth import SynthConfig, generate_city, generate_events

from scalar_reference import zone_rows

SQUARE = (((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)),)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- configuration -----------------------------------------------------------

def test_parse_time_range_quarter_grid():
    assert parse_time_range("08:00-14:00") == (32, 55)
    assert parse_time_range("22:00-24:00") == (88, 95)
    assert parse_time_range("00:00-00:15") == (0, 0)


@pytest.mark.parametrize("bad", ["8h-9h", "08:10-09:00", "14:00-08:00", "24:00-25:00"])
def test_parse_time_range_rejects(bad):
    with pytest.raises(ConfigError):
        parse_time_range(bad)


def test_parse_slots_round_trips_defaults():
    assert parse_slots(slots_to_text(DEFAULT_SLOTS)) == DEFAULT_SLOTS


def test_parse_slots_rejects_overlap():
    with pytest.raises(ConfigError, match="overlap"):
        parse_slots("a=08:00-10:00,b=09:45-11:00")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.config"
    path.write_text(
        "# comment\n"
        "events = data/events.ndjson\n"
        "zones = data/zones.geojson\n"
        "timezone = UTC\n"
        "alpha = 0.05\n"
        "slots = day=08:00-20:00,night=22:00-24:00\n")
    config = load_config(path)
    assert str(config.events_path) == "data/events.ndjson"
    assert config.timezone == "UTC"
    assert config.alpha == 0.05
    assert [s.name for s in config.slots] == ["day", "night"]


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.config"
    for line in ("tz = UTC\n", "workers = 2\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    path = tmp_path / "example.config"
    path.write_text(block, encoding="utf-8")
    config = load_config(path)
    config.validate()
    assert str(config.census_path) == "data/census.csv"
    assert config.night_range == (88, 95)
    assert config.slots == DEFAULT_SLOTS
    assert config.alpha == 0.01


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="alpha"):
        PipelineConfig(alpha=0.0).validate()
    with pytest.raises(ConfigError, match="timezone"):
        PipelineConfig(timezone="Nowhere/Null").validate()
    with pytest.raises(ConfigError, match="together"):
        PipelineConfig(centre_lon=1.0).validate()


# --- export_geojson ----------------------------------------------------------

def zones_pair():
    far = (((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0), (2.0, 0.0)),)
    return ZoneTable.from_zones([
        Zone("a", SQUARE, area_ha=1.0, built_residential_m2=10.0, built_total_m2=20.0),
        Zone("b", far, area_ha=2.0, built_residential_m2=5.0, built_total_m2=30.0)])


def one_zone():
    return ZoneTable.from_zones([Zone("z", SQUARE, area_ha=1.0)])


def test_export_geojson_values_and_nulls(tmp_path):
    path = tmp_path / "zones.geojson"
    export_geojson(zones_pair(), {"score": [1.23456789, None]}, path)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    by_id = {f["properties"]["zone_id"]: f["properties"] for f in doc["features"]}
    assert by_id["a"]["score"] == 1.23457  # 6 significant digits
    assert by_id["b"]["score"] is None


def test_export_geojson_misaligned_column_fatal(tmp_path):
    with pytest.raises(DataError, match="has 1 values for 2 zones"):
        export_geojson(zones_pair(), {"score": [1.0]}, tmp_path / "x.geojson")
    with pytest.raises(DataError, match="overwrite a zone property"):
        export_geojson(zones_pair(), {"area_ha": [1.0, 2.0]}, tmp_path / "x.geojson")


def test_export_geojson_round_trips_as_zone_input(tmp_path):
    path = tmp_path / "zones.geojson"
    export_geojson(zones_pair(), {}, path)
    zones = zone_rows(load_zones_geojson(path))
    assert [z.zone_id for z in zones] == ["a", "b"]
    assert zones[0].rings == SQUARE
    assert zones[1].area_ha == 2.0


# --- pipeline runs -----------------------------------------------------------

EXPECTED_ARTIFACTS = {
    "rejections.csv", "activity_matrix.csv", "slot_counts.csv", "normalized_slots.csv",
    "descriptives.csv", "landuse_classes.csv", "profiles.csv", "density.csv",
    "bivariate_r2.csv", "home_counts.csv", "zones_metrics.geojson", "manifest.json",
}


def test_full_run_produces_expected_artifacts(small_city):
    names = {p.name for p in small_city.out.iterdir()}
    assert EXPECTED_ARTIFACTS <= names
    for slot in ("morning", "afternoon", "evening", "night"):
        assert f"model_{slot}.csv" in names
        assert f"model_{slot}_residuals.csv" in names
        assert f"residuals_{slot}_vs_night.csv" in names or slot == "night"


def test_manifest_lists_every_output_with_digest(small_city):
    manifest = json.loads((small_city.out / "manifest.json").read_text())
    files = {p.name for p in small_city.out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == files
    for name, digest in manifest["outputs"].items():
        data = (small_city.out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert manifest["counts"]["rows_rejected"] == 0
    assert manifest["counts"]["events_parsed"] == len(small_city.events)
    assert manifest["counts"]["zones"] == 36


DIGEST_DATA = bytes(range(256)) * 12_289  # 3,145,984 bytes, every byte value


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, len(DIGEST_DATA)])
def test_file_digest_matches_hashlib(tmp_path, size):
    path = tmp_path / "data"
    path.write_bytes(DIGEST_DATA[:size])
    assert pipeline._sha256(path) == hashlib.sha256(DIGEST_DATA[:size]).hexdigest()


def test_file_digest_reads_into_one_small_buffer(tmp_path):
    # a 3 MB file, the size of fine-grid's events.ndjson: fresh 1 MiB reads,
    # each alive while the next one was read, peaked at 2 MiB traced
    path = tmp_path / "data"
    path.write_bytes(DIGEST_DATA)
    tracemalloc.start()
    try:
        pipeline._sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_rerun_is_byte_identical(small_city, tmp_path):
    import dataclasses
    config = dataclasses.replace(small_city.config, output_dir=tmp_path / "again")
    run_pipeline(config)
    assert sorted(p.name for p in (tmp_path / "again").iterdir()) == sorted(
        p.name for p in small_city.out.iterdir())
    for path in sorted(small_city.out.iterdir()):
        again = tmp_path / "again" / path.name
        if path.name == "manifest.json":
            # config echo differs only in output_dir
            a = json.loads(path.read_text())
            b = json.loads(again.read_text())
            assert a["outputs"] == b["outputs"]
            assert a["counts"] == b["counts"]
        else:
            assert again.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("weekend_row", [False, True], ids=["all workdays", "one weekend row"])
def test_events_stream_through_the_join_a_block_at_a_time(small_city, tmp_path, monkeypatch,
                                                          weekend_row):
    import dataclasses
    import weakref

    from citypulse import ingest, spatial
    events_path = small_city.events_path
    if weekend_row:  # 2013-03-09 is a Saturday
        events_path = tmp_path / "events.ndjson"
        events_path.write_bytes(small_city.events_path.read_bytes() + b'{"u": "w", '
                                b'"t": "2013-03-09T10:00:00+01:00", "lon": 0, "lat": 0}\n')
    blocks, order = [], []
    filter_workdays, assign_events = ingest.filter_workdays, pipeline.assign_events
    load_zones, parse_events = spatial.load_zones_geojson, pipeline.parse_events_file

    def traced_load(path):
        order.append("zones")
        return load_zones(path)

    def traced_parse(path, fmt, **kwargs):
        order.append("parse")
        result = parse_events(path, fmt, **kwargs)
        order.append("parsed")
        return result

    def traced_filter(events, tz):
        order.append("filter")
        workdays = filter_workdays(events, tz)
        blocks.append({"rows": len(events), "kept": len(workdays), "same": workdays is events,
                       "write_back": dict(events.write_back),
                       "alive": [weakref.ref(events), weakref.ref(workdays)]})
        return workdays

    def traced_assign(events, index, tz):
        order.append("assign")
        return assign_events(events, index, tz)

    def traced_count(assigned):
        order.append("count")
        alive.extend(ref() is not None for block in blocks for ref in block["alive"])
        return count_unique_users(assigned)

    alive = []
    count_unique_users = activity.count_unique_users
    monkeypatch.setattr(ingest, "EVENT_BLOCK_ROWS", 500)
    monkeypatch.setattr(spatial, "load_zones_geojson", traced_load)
    monkeypatch.setattr(pipeline, "parse_events_file", traced_parse)
    monkeypatch.setattr(ingest, "filter_workdays", traced_filter)
    monkeypatch.setattr(pipeline, "assign_events", traced_assign)
    monkeypatch.setattr(activity, "count_unique_users", traced_count)
    config = dataclasses.replace(small_city.config, events_path=events_path,
                                 output_dir=tmp_path / "out")
    result = run_pipeline(config, steps={"aggregate"})
    counts = result.manifest["counts"]
    assert counts["events_workdays"] == len(small_city.events)
    # the zones load before the events; each parsed block of at least 500
    # rows (but the last) goes through the workday filter and the zone join
    # before the next is parsed, and none is alive at the first aggregation
    assert order == ["zones", "parse", *["filter", "assign"] * len(blocks), "parsed", "count"]
    assert len(blocks) >= 3 and all(block["rows"] >= 500 for block in blocks[:-1])
    assert sum(block["rows"] for block in blocks) == counts["events_parsed"]
    assert sum(block["kept"] for block in blocks) == counts["events_workdays"]
    assert [block["rows"] - block["kept"] for block in blocks[:-1]] == [0] * (len(blocks) - 1)
    assert blocks[-1]["rows"] - blocks[-1]["kept"] == weekend_row
    # a filter that drops no row hands its input block on, not a copy
    assert [block["same"] for block in blocks] == [True] * (len(blocks) - 1) + [not weekend_row]
    assert alive == [False] * 2 * len(blocks)
    # no block of a run that writes no events back carries the write-back columns
    assert [block["write_back"] for block in blocks] == [{}] * len(blocks)


def test_bad_zones_file_is_reported_before_unreadable_events(tmp_path):
    # the zones load before the events parse, so with both inputs bad the
    # zones error is the one reported
    events, zones = tmp_path / "events.csv", tmp_path / "zones.geojson"
    events.write_text("")  # no header row
    zones.write_text("x")
    config = PipelineConfig(events_path=events, zones_path=zones, output_dir=tmp_path / "out")
    with pytest.raises(DataError, match="zones file .* is not valid JSON"):
        run_pipeline(config, steps={"aggregate"})
    zones.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"zone_id": "a"},
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}))
    with pytest.raises(DataError, match="no header row"):
        run_pipeline(config, steps={"aggregate"})
    assert not (tmp_path / "out").exists()


def test_event_path_memory_grows_by_bytes_per_row(monkeypatch):
    # ~52k synth rows through the workday filter and the zone join. The
    # assigned events keep 5 B a row (int32 zone code, int8 bin; the user
    # codes are the batch's own). The passes are shrunk so that their fixed
    # temporaries stay small next to what grows with the rows: measured 5.2 B
    # a row kept and 0.77 MB peak above the input (14.7 B a row). Masking
    # every column through the found mask and full-length int64 local times
    # kept 24.2 B a row and peaked at 2.57 MB (49.5 B a row).
    from citypulse import ingest, spatial
    monkeypatch.setattr(spatial, "LOCATE_CHUNK", 1024)
    monkeypatch.setattr(spatial, "PAIR_EDGE_BUDGET", 1 << 14)
    monkeypatch.setattr(ingest, "LOCAL_CHUNK", 4096)
    config = SynthConfig(seed=11, n_zones=100, n_users=1000, events_per_user_per_day=17.0,
                         n_days=3, home_bias=0.3, centre_decay_per_km=0.12)
    city = generate_city(config)
    events, _ = generate_events(city)
    index = spatial.build_zone_index(ZoneTable.from_zones(city.zones))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workdays = ingest.filter_workdays(events, config.timezone)
        assigned, unassigned, _ = pipeline.assign_events(workdays, index, config.timezone)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(events)
    assert rows >= 50_000 and len(assigned) == rows and unassigned == 0
    assert kept - before < 8 * rows
    assert peak - before < 1_000_000 + 8 * rows


@pytest.mark.parametrize("count", ["homes", "slots"])
def test_count_memory_grows_by_bytes_per_event(count):
    # ~52k assigned synth events. Each count sorts one int64 key a row, built
    # in place, beside one-byte masks and slot codes: measured 15 B an event
    # for home inference (half the zones residential) and 18 B for the slot
    # counts. np.unique with counts over every (user, zone) key peaked at
    # 33 B an event, and an int64 slot code per event and a key built through
    # temporaries at 32 B.
    from citypulse import spatial, stats
    config = SynthConfig(seed=11, n_zones=100, n_users=1000, events_per_user_per_day=17.0,
                         n_days=3, home_bias=0.3, centre_decay_per_km=0.12)
    city = generate_city(config)
    events, _ = generate_events(city)
    index = spatial.build_zone_index(ZoneTable.from_zones(city.zones))
    assigned, _, _ = pipeline.assign_events(events, index, config.timezone)
    del events
    residential = set(assigned.zone_ids[::2])
    call = {"homes": lambda: stats.infer_homes(assigned, stats.DEFAULT_NIGHT_BINS, residential),
            "slots": lambda: activity.aggregate_major_slots(assigned)}[count]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(assigned) >= 50_000
    assert peak - before < 24 * len(assigned)


def test_centre_outside_coverage_warns(small_city, tmp_path):
    import dataclasses
    config = dataclasses.replace(small_city.config, output_dir=tmp_path / "far",
                                 centre_lon=50.0, centre_lat=10.0)
    result = run_pipeline(config, steps={"aggregate"})
    assert any("outside the zone coverage" in w for w in result.warnings)


def test_missing_inputs_fail_before_writing(tmp_path):
    config = PipelineConfig(events_path=tmp_path / "absent.ndjson",
                            zones_path=tmp_path / "zones.geojson",
                            output_dir=tmp_path / "out")
    with pytest.raises(DataError, match="absent.ndjson"):
        run_pipeline(config)
    assert not (tmp_path / "out").exists()


def test_regress_without_centre_fails_before_parsing(small_city, tmp_path, monkeypatch):
    import dataclasses

    def parse_events_file(path, fmt):
        raise AssertionError("events parsed before the centre check")

    monkeypatch.setattr(pipeline, "parse_events_file", parse_events_file)
    out = tmp_path / "out"
    config = dataclasses.replace(small_city.config, output_dir=out,
                                 centre_lon=None, centre_lat=None)
    with pytest.raises(ConfigError, match="centre_lon and centre_lat"):
        run_pipeline(config)
    assert not out.exists() or not any(out.iterdir())


def test_geojson_metrics_match_normalized_csv(small_city):
    doc = json.loads((small_city.out / "zones_metrics.geojson").read_text())
    rows = {r["zone_id"]: r for r in read_csv(small_city.out / "normalized_slots.csv")}
    for feature in doc["features"]:
        props = feature["properties"]
        expected = float(rows[props["zone_id"]]["morning"])
        assert props["normalized_morning"] == pytest.approx(expected, rel=1e-5)


def test_bivariate_r2_adjacent_slots_correlate_higher(big_city):
    rows = {r["slot"]: r for r in read_csv(big_city.out / "bivariate_r2.csv")}
    morning_afternoon = float(rows["afternoon"]["morning"])
    night_morning = float(rows["night"]["morning"])
    assert morning_afternoon > night_morning
    assert float(rows["morning"]["morning"]) == 1.0
    # r-squared is symmetric across the exported matrix
    assert float(rows["morning"]["afternoon"]) == pytest.approx(morning_afternoon, rel=1e-5)


def test_bivariate_r2_edge_cells_match_simple_regressions(small_city, tmp_path, monkeypatch):
    # synth places no event before 08:00, so the dawn slot is all zero
    import dataclasses
    slots = parse_slots("dawn=00:00-08:00," + slots_to_text(DEFAULT_SLOTS))
    names = [s.name for s in slots]
    normalized = []
    real_normalize = activity.normalize_counts

    def normalize_counts(matrix, total):
        result = real_normalize(matrix, total)
        if list(result.bin_labels) == names:
            normalized.append(result.values)
        return result

    monkeypatch.setattr(activity, "normalize_counts", normalize_counts)
    config = dataclasses.replace(small_city.config, output_dir=tmp_path / "dawn", slots=slots)
    run_pipeline(config)
    monkeypatch.undo()
    (values,) = normalized
    assert not values[:, 0].any()
    rows = {r["slot"]: r for r in read_csv(tmp_path / "dawn" / "bivariate_r2.csv")}
    for j, response in enumerate(names):
        for i, predictor in enumerate(names):
            cell = rows[response][predictor]
            if i == j:
                assert cell == "1"
            elif predictor == "dawn":
                assert cell == ""
            elif response == "dawn":
                assert cell == "0"
            else:
                assert cell == format(
                    bivariate_slot_ols(values[:, i], values[:, j]).r2, ".6g"), (response, predictor)


def test_bivariate_r2_with_one_slot(small_city, tmp_path):
    import dataclasses
    config = dataclasses.replace(small_city.config, output_dir=tmp_path / "one",
                                 slots=parse_slots("night=00:00-06:00"))
    run_pipeline(config)
    text = (tmp_path / "one" / "bivariate_r2.csv").read_text(encoding="utf-8")
    assert text == "slot,night\nnight,1\n"


def test_normalized_slots_columns_sum_to_total(small_city):
    rows = read_csv(small_city.out / "normalized_slots.csv")
    for slot in ("morning", "afternoon", "evening", "night"):
        total = sum(float(r[slot]) for r in rows)
        assert total == pytest.approx(100000.0, rel=1e-4)


def test_model_csv_has_summary_row(small_city):
    rows = read_csv(small_city.out / "model_morning.csv")
    summary = [r for r in rows if r["predictor"] == "(summary)"]
    assert len(summary) == 1
    assert 0.0 <= float(summary[0]["r2"]) <= 1.0
    assert int(summary[0]["n"]) == 36


def test_perfect_model_fit_writes_zero_std_residuals(small_city, tmp_path, monkeypatch):
    """Each slot's response replaced by 3a + 2b + 7 of the first two predictors."""
    real_stepwise = stats.stepwise_fit

    def perfect_fit(y, X, **kwargs):
        return real_stepwise(3.0 * X[:, 0] + 2.0 * X[:, 1] + 7.0, X, **kwargs)

    monkeypatch.setattr(stats, "stepwise_fit", perfect_fit)
    run_pipeline(dataclasses.replace(small_city.config, output_dir=tmp_path / "out"))
    for slot in ("morning", "afternoon", "evening", "night"):
        rows = read_csv(tmp_path / "out" / f"model_{slot}_residuals.csv")
        assert len(rows) == 36
        assert {r["std_residual"] for r in rows} == {"0"}, slot


def test_unicode_line_separators_in_text_stay_inside_one_row(tmp_path):
    # json.dumps(ensure_ascii=False) writes U+2028 and U+0085 raw; only "\n" ends a row
    texts = ["para\u2028graph", "next\u0085line", "both\u2028and\u0085", "plain"]
    events_path = tmp_path / "events.ndjson"
    events_path.write_text("".join(
        json.dumps({"u": f"u{i}", "t": "2013-03-05T10:00:00Z", "lon": 0.5, "lat": 0.5,
                    "text": text}, ensure_ascii=False) + "\n"
        for i, text in enumerate(texts)), encoding="utf-8")
    physical_lines = events_path.read_bytes().count(b"\n")
    assert physical_lines == 4

    events, report = parse_events_file(events_path, "ndjson")
    assert [e.text for e in events] == texts
    assert report.entries == []
    assert report.total_rows == physical_lines
    # streamed to a sink, the blocks hold the same rows and the report is the same
    blocks = []
    assert parse_events_file(events_path, None, sink=blocks.append,
                             write_back=True) == (None, report)
    assert [e.text for block in blocks for e in block] == texts
    with pytest.raises(ValueError, match="write_back"):
        parse_events_file(events_path, None, write_back=True)

    zones_path = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones_path)
    config = PipelineConfig(events_path=events_path, zones_path=zones_path,
                            output_dir=tmp_path / "out", timezone="UTC")
    counts = run_pipeline(config, {"ingest"}).manifest["counts"]
    assert counts["rows_total"] == physical_lines
    assert counts["rows_rejected"] == 0
    assert counts["events_parsed"] == 4


def test_out_of_range_instant_is_a_rejected_row(tmp_path):
    # its UTC instant, 0000-12-31T23:30Z, is before datetime's first day
    events_path = tmp_path / "events.ndjson"
    events_path.write_text(
        '{"u":"a","t":"2013-03-05T10:00:00Z","lon":0.5,"lat":0.5}\n'
        '{"u":"b","t":"0001-01-01T00:30:00+01:00","lon":0.5,"lat":0.5}\n')
    zones_path = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones_path)
    config = PipelineConfig(events_path=events_path, zones_path=zones_path,
                            output_dir=tmp_path / "out", timezone="Europe/Madrid")
    counts = run_pipeline(config, {"ingest"}).manifest["counts"]
    assert (counts["rows_total"], counts["rows_rejected"], counts["events_parsed"],
            counts["events_workdays"], counts["events_assigned"]) == (2, 1, 1, 1, 1)
    assert read_csv(tmp_path / "out" / "rejections.csv") == [
        {"line": "2", "reason": "timestamp out of range"}]


# --- command-line interface --------------------------------------------------

def test_cli_missing_zones_exits_2(tmp_path, capsys):
    events = tmp_path / "events.ndjson"
    events.write_text('{"u":"a","t":"2013-03-05T10:00:00Z","lon":0.5,"lat":0.5}\n')
    code = cli.main(["run", "--events", str(events),
                     "--zones", str(tmp_path / "nope.geojson"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "nope.geojson" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.config"
    bad.write_text("mystery = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_cli_synth_then_run(tmp_path, capsys):
    out = tmp_path / "demo"
    assert cli.main(["synth", "--out", str(out), "--seed", "3", "--n-zones", "16",
                     "--n-users", "50", "--events-per-day", "4"]) == 0
    for name in ("zones.geojson", "events.ndjson", "profiles_truth.csv",
                 "homes_truth.csv", "pipeline.config"):
        assert (out / name).exists()
    assert cli.main(["run", "--config", str(out / "pipeline.config")]) == 0
    assert (out / "run" / "manifest.json").exists()


def test_cli_ingest_writes_clean_events(tmp_path):
    events = tmp_path / "events.ndjson"
    events.write_text(
        '{"u":"a","t":"2013-03-05T10:00:00Z","lon":0.5,"lat":0.5}\n'
        'garbage\n'
        '{"u":"b","t":"2013-03-09T10:00:00Z","lon":0.5,"lat":0.5}\n')  # saturday
    zones = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones)
    out = tmp_path / "out"
    code = cli.main(["ingest", "--events", str(events), "--zones", str(zones),
                     "--out", str(out), "--timezone", "UTC"])
    assert code == 0
    clean = (out / "events_clean.ndjson").read_text().splitlines()
    assert len(clean) == 1
    assert '"u": "a"' in clean[0]  # the Saturday user is filtered out
    rows = read_csv(out / "rejections.csv")
    assert rows[0]["line"] == "2"


@pytest.mark.parametrize("steps", [{"ingest"}, {"aggregate"}, {"profiles"}])
def test_optional_fields_reach_only_the_ingest_step(tmp_path, monkeypatch, steps):
    # events_clean.ndjson, written by the ingest step alone, is the one reader
    # of the optional fields, the microseconds and the written offsets; every
    # other step set drops them before the workday filter copies the rows it keeps
    from citypulse import ingest
    events = tmp_path / "events.csv"
    events.write_text("user_id,timestamp,lon,lat,lang\n"
                      "a,2013-03-05T10:00:00Z,0.5,0.5,es\n"
                      "b,2013-03-09T10:00:00Z,0.5,0.5,en\n")  # saturday
    zones = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones)
    seen = []
    filter_workdays = ingest.filter_workdays

    def traced_filter(batch, tz):
        seen.append((sorted(batch.optional), batch.micro is None, batch.offset_us is None))
        return filter_workdays(batch, tz)

    monkeypatch.setattr(ingest, "filter_workdays", traced_filter)
    config = PipelineConfig(events_path=events, zones_path=zones, output_dir=tmp_path / "out",
                            timezone="UTC", centre_lon=0.5, centre_lat=0.5)
    run_pipeline(config, steps)
    dropped = steps != {"ingest"}
    assert seen == [([] if dropped else ["lang"], dropped, dropped)]
    if steps == {"ingest"}:
        assert '"lang": "es"' in (tmp_path / "out" / "events_clean.ndjson").read_text()


def test_cli_ingest_rejects_invalid_utf8_row(tmp_path, capsys):
    events = tmp_path / "events.ndjson"
    events.write_bytes(
        b'{"u":"a","t":"2013-03-05T10:00:00Z","lon":0.5,"lat":0.5,"text":"ok"}\n'
        b'{"u":"b","t":"2013-03-05T11:00:00Z","lon":0.5,"lat":0.5,"text":"bad \xff byte"}\n')
    zones = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones)
    out = tmp_path / "out"
    code = cli.main(["ingest", "--events", str(events), "--zones", str(zones),
                     "--out", str(out), "--timezone", "UTC"])
    assert code == 0, capsys.readouterr().err
    clean = (out / "events_clean.ndjson").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["u"] for line in clean] == ["a"]
    assert read_csv(out / "rejections.csv") == [{"line": "2", "reason": "invalid utf-8"}]
    counts = json.loads((out / "manifest.json").read_text())["counts"]
    assert (counts["rows_total"], counts["rows_rejected"]) == (2, 1)


CSV_HEADER = "user_id,timestamp,lon,lat,text\n"
CSV_ROW = "a,2013-03-05T10:00:00Z,0.5,0.5,"


@pytest.mark.parametrize("rows,message", [
    # csv's default field size limit is 131,072 characters
    ([CSV_ROW + "x" * 200_000, CSV_ROW + "ok"],
     "malformed csv: line 2: field larger than field limit (131072)"),
    # a quote opened and never closed would take in every later line
    ([CSV_ROW + "ok", CSV_ROW + '"open', CSV_ROW + "ok"],
     "malformed csv: line 4: unexpected end of data"),
    ([CSV_ROW + '"a"b'], "malformed csv: line 2: ',' expected after '\"'"),
], ids=["long cell", "open quote", "text after a closing quote"])
def test_cli_csv_framing_fault_exits_2_naming_the_line(tmp_path, capsys, rows, message):
    events = tmp_path / "events.csv"
    events.write_text(CSV_HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    zones = tmp_path / "zones.geojson"
    export_geojson(one_zone(), {}, zones)
    code = cli.main(["ingest", "--events", str(events), "--zones", str(zones),
                     "--out", str(tmp_path / "out"), "--timezone", "UTC"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_synth_class_mix_and_census_round_trip(tmp_path):
    out = tmp_path / "mixed"
    code = cli.main(["synth", "--out", str(out), "--seed", "8", "--n-zones", "25",
                     "--n-users", "120", "--events-per-day", "5", "--home-bias", "0.8",
                     "--class-mix",
                     "residential:0.5,mixed:0.25,activity:retail:0.25"])
    assert code == 0
    truth_rows = read_csv(out / "homes_truth.csv")
    census_counts = {}
    for row in truth_rows:
        census_counts[row["zone_id"]] = census_counts.get(row["zone_id"], 0) + 1
    zones = load_zones_geojson(out / "zones.geojson")
    census_path = tmp_path / "census.csv"
    with open(census_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zone_id", "population"])
        for zone_id in zones.zone_ids:
            writer.writerow([zone_id, 120 * census_counts.get(zone_id, 0)])
    code = cli.main(["run", "--config", str(out / "pipeline.config"),
                     "--census", str(census_path)])
    assert code == 0
    manifest = json.loads((out / "run" / "manifest.json").read_text())
    assert 0.0 <= manifest["stats"]["census_home_r2"] <= 1.0
    assert manifest["stats"]["census_home_r2"] > 0.5  # strong home bias, aligned census


@pytest.mark.parametrize("row,shown", [
    ("z0000,abc", "'abc'"), ("z0000,nan", "'nan'"), ("z0000,-inf", "'-inf'"),
    ("z0000,", "''"), ("z0000", "missing")])
def test_cli_bad_census_population_exits_2_before_parsing(small_city, tmp_path, monkeypatch,
                                                          capsys, row, shown):
    def parse_events_file(path, fmt):
        raise AssertionError("events parsed before the census was read")

    monkeypatch.setattr(pipeline, "parse_events_file", parse_events_file)
    census = tmp_path / "census.csv"
    census.write_text(f"zone_id,population\nz0001,12\n{row}\n", encoding="utf-8")
    out = tmp_path / "out"
    config = small_city.config
    code = cli.main(["run", "--events", str(config.events_path),
                     "--zones", str(config.zones_path), "--census", str(census),
                     "--timezone", config.timezone, "--centre-lon", str(config.centre_lon),
                     "--centre-lat", str(config.centre_lat), "--out", str(out)])
    assert code == 2
    assert f"line 3: population {shown} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_census_zone_id_twice_is_fatal_naming_both_lines(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("zone_id,population\nz0000,900\nz0001,12\nz0000,40\n", encoding="utf-8")
    with pytest.raises(DataError, match="lines 2 and 4: zone_id 'z0000' appears twice"):
        pipeline.load_census(census)


def test_census_negative_population_is_fatal_naming_its_line(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("zone_id,population\nz0000,900\nz0001,-40\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3: population '-40' is negative"):
        pipeline.load_census(census)
    census.write_text("zone_id,population\nz0000,0\nz0001,-0\n", encoding="utf-8")
    assert pipeline.load_census(census) == {"z0000": 0.0, "z0001": 0.0}


def test_census_byte_order_mark_is_skipped(tmp_path):
    census = tmp_path / "census.csv"
    census.write_bytes(b"\xef\xbb\xbfzone_id,population\nz0000,900\nz0001,12\n")
    assert pipeline.load_census(census) == {"z0000": 900.0, "z0001": 12.0}


def test_census_rows_for_unknown_zones_are_one_warning(small_city, tmp_path):
    census = tmp_path / "census.csv"
    rows = [f"{z},{10 + k}" for k, z in enumerate(small_city.city.zone_ids[1:])]
    census.write_text("\n".join(["zone_id,population", *rows, "ghost,7", "phantom,3"]) + "\n",
                      encoding="utf-8")
    config = small_city.config
    result = run_pipeline(PipelineConfig(
        events_path=config.events_path, zones_path=config.zones_path,
        census_path=census, output_dir=tmp_path / "out", timezone=config.timezone,
        centre_lon=config.centre_lon, centre_lat=config.centre_lat))
    assert "1 zones missing from census default to 0" in result.warnings
    assert "2 census rows name zones not in the zones file and are ignored" in result.warnings


def _head_truth_csvs(truth, out):
    """profiles_truth.csv and homes_truth.csv as csv.writer loops write them."""
    with open(out / "profiles_truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "bin", "share"])
        for label in sorted(truth.profiles):
            for b, share in enumerate(truth.profiles[label]):
                writer.writerow([label, b, format(float(share), ".6g")])
    with open(out / "homes_truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "zone_id"])
        for user_id in sorted(truth.homes):
            writer.writerow([user_id, truth.homes[user_id]])


def test_cli_synth_truth_csvs_match_csv_writer_loops(tmp_path):
    out = tmp_path / "city"
    assert cli.main(["synth", "--out", str(out), "--seed", "6", "--n-zones", "30",
                     "--n-users", "200", "--events-per-day", "4", "--class-mix",
                     "residential:0.4,mixed:0.2,activity:retail:0.2,activity:park:0.2"]) == 0
    city = generate_city(SynthConfig(
        seed=6, n_zones=30, n_users=200, events_per_user_per_day=4.0,
        class_mix={"residential": 0.4, "mixed": 0.2, "activity:retail": 0.2,
                   "activity:park": 0.2}))
    _, truth = generate_events(city)
    reference = tmp_path / "reference"
    reference.mkdir()
    _head_truth_csvs(truth, reference)
    for name in ("profiles_truth.csv", "homes_truth.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


def test_cli_bad_class_mix_exits_2(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "x"),
                     "--class-mix", "residential"]) == 2
    assert "class mix" in capsys.readouterr().err


def test_cli_flag_overrides_config(tmp_path, small_city):
    config_file = tmp_path / "run.config"
    config_file.write_text(
        f"events = {small_city.events_path}\n"
        f"zones = {small_city.zones_path}\n"
        f"output_dir = {tmp_path / 'ignored'}\n"
        "alpha = 0.5\n")
    out = tmp_path / "flagged"
    code = cli.main(["aggregate", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "ignored").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.5


# --- output directory commit -------------------------------------------------

def _listing(out):
    """File name -> content digest of every entry in ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _committed_set(out):
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return set(manifest["outputs"]) | {"manifest.json"}


def test_profiles_after_run_leaves_only_its_own_outputs(small_city, tmp_path):
    out = tmp_path / "out"
    config = dataclasses.replace(small_city.config, output_dir=out)
    run_pipeline(config)
    assert set(_listing(out)) == _committed_set(out)
    run_pipeline(config, {"profiles"})
    assert set(_listing(out)) == _committed_set(out)
    assert "model_morning.csv" not in _listing(out)
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".stage-")]


@pytest.mark.parametrize("failing_call", [1, 2])
def test_failed_rename_leaves_the_old_outputs_whole(small_city, tmp_path, monkeypatch,
                                                    failing_call):
    out = tmp_path / "out"
    config = dataclasses.replace(small_city.config, output_dir=out)
    run_pipeline(config)
    before = _listing(out)
    rename, calls = os.rename, []

    def flaky_rename(src, dst):
        calls.append((src, dst))
        if len(calls) == failing_call:
            raise OSError("injected rename failure")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", flaky_rename)
    with pytest.raises(OSError, match="injected"):
        run_pipeline(config, {"profiles"})
    monkeypatch.undo()
    assert _listing(out) == before
    assert len(calls) == failing_call + (failing_call == 2)  # the second failure renames back
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    run_pipeline(config, {"profiles"})
    assert set(_listing(out)) == _committed_set(out)


@pytest.mark.parametrize("content", [
    {"notes.txt": "field notes"},
    {"manifest.json": '{"tool": "something else"}'},
    {"manifest.json": "not json"},
])
def test_foreign_output_dir_is_refused_before_the_parse(small_city, tmp_path, monkeypatch,
                                                        capsys, content):
    def parse_events_file(path, fmt):
        raise AssertionError("events parsed before the output directory was checked")

    monkeypatch.setattr(pipeline, "parse_events_file", parse_events_file)
    out = tmp_path / "mine"
    out.mkdir()
    for name, text in content.items():
        (out / name).write_text(text, encoding="utf-8")
    before = _listing(out)
    config = small_city.config
    code = cli.main(["run", "--events", str(config.events_path),
                     "--zones", str(config.zones_path), "--timezone", config.timezone,
                     "--centre-lon", str(config.centre_lon),
                     "--centre-lat", str(config.centre_lat), "--out", str(out)])
    assert code == 2
    assert "is not an empty directory and holds no citypulse manifest.json" in (
        capsys.readouterr().err)
    assert _listing(out) == before


def test_output_dir_holding_an_input_is_refused(small_city, tmp_path):
    out = tmp_path / "out"
    config = dataclasses.replace(small_city.config, output_dir=out)
    run_pipeline(config, {"ingest"})
    before = _listing(out)
    with pytest.raises(ConfigError, match="holds an input of the run"):
        run_pipeline(dataclasses.replace(config, events_path=out / "events_clean.ndjson"),
                     {"ingest"})
    assert _listing(out) == before


def test_symlinked_output_dir_is_replaced_at_its_target(small_city, tmp_path):
    real = tmp_path / "disk" / "results"
    config = dataclasses.replace(small_city.config, output_dir=real)
    run_pipeline(config)
    link = tmp_path / "out"
    link.symlink_to(real, target_is_directory=True)
    run_pipeline(dataclasses.replace(config, output_dir=link), {"ingest"})
    assert link.is_symlink()
    assert set(_listing(real)) == _committed_set(real) == {
        "events_clean.ndjson", "rejections.csv", "manifest.json"}
    assert sorted(p.name for p in real.parent.iterdir()) == ["results"]


def test_empty_output_dir_is_replaced(small_city, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    run_pipeline(dataclasses.replace(small_city.config, output_dir=out), {"ingest"})
    assert set(_listing(out)) == _committed_set(out) == {
        "events_clean.ndjson", "rejections.csv", "manifest.json"}
