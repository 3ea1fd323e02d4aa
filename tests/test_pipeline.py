import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from citypulse import activity, cli, pipeline
from citypulse.config import (PipelineConfig, load_config, parse_slots,
                              parse_time_range, slots_to_text)
from citypulse.activity import DEFAULT_SLOTS
from citypulse.errors import ConfigError, DataError
from citypulse.pipeline import export_geojson, parse_events_file, run_pipeline
from citypulse.spatial import Zone, load_zones_geojson
from citypulse.stats import bivariate_slot_ols

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
    return [Zone("a", SQUARE, area_ha=1.0, built_residential_m2=10.0, built_total_m2=20.0),
            Zone("b", far, area_ha=2.0, built_residential_m2=5.0, built_total_m2=30.0)]


def test_export_geojson_values_and_nulls(tmp_path):
    path = tmp_path / "zones.geojson"
    export_geojson(zones_pair(), {"score": {"a": 1.23456789}}, path)
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    by_id = {f["properties"]["zone_id"]: f["properties"] for f in doc["features"]}
    assert by_id["a"]["score"] == 1.23457  # 6 significant digits
    assert by_id["b"]["score"] is None


def test_export_geojson_unknown_zone_fatal(tmp_path):
    with pytest.raises(DataError, match="unknown zone_id"):
        export_geojson(zones_pair(), {"score": {"ghost": 1.0}}, tmp_path / "x.geojson")


def test_export_geojson_round_trips_as_zone_input(tmp_path):
    path = tmp_path / "zones.geojson"
    export_geojson(zones_pair(), {}, path)
    zones = load_zones_geojson(path)
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


def test_rerun_is_byte_identical(small_city, tmp_path):
    import dataclasses
    config = dataclasses.replace(small_city.config, output_dir=tmp_path / "again")
    run_pipeline(config)
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
                assert cell == pipeline._fmt(
                    bivariate_slot_ols(values[:, i], values[:, j]).r2), (response, predictor)


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
    assert [e.text for e in events.events()] == texts
    assert report.entries == []
    assert report.total_rows == physical_lines

    zones_path = tmp_path / "zones.geojson"
    export_geojson([Zone("z", SQUARE, area_ha=1.0)], {}, zones_path)
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
    export_geojson([Zone("z", SQUARE, area_ha=1.0)], {}, zones_path)
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
    export_geojson([Zone("z", SQUARE, area_ha=1.0)], {}, zones)
    out = tmp_path / "out"
    code = cli.main(["ingest", "--events", str(events), "--zones", str(zones),
                     "--out", str(out), "--timezone", "UTC"])
    assert code == 0
    clean = (out / "events_clean.ndjson").read_text().splitlines()
    assert len(clean) == 1
    assert '"u": "a"' in clean[0]  # the Saturday user is filtered out
    rows = read_csv(out / "rejections.csv")
    assert rows[0]["line"] == "2"


def test_cli_ingest_rejects_invalid_utf8_row(tmp_path, capsys):
    events = tmp_path / "events.ndjson"
    events.write_bytes(
        b'{"u":"a","t":"2013-03-05T10:00:00Z","lon":0.5,"lat":0.5,"text":"ok"}\n'
        b'{"u":"b","t":"2013-03-05T11:00:00Z","lon":0.5,"lat":0.5,"text":"bad \xff byte"}\n')
    zones = tmp_path / "zones.geojson"
    export_geojson([Zone("z", SQUARE, area_ha=1.0)], {}, zones)
    out = tmp_path / "out"
    code = cli.main(["ingest", "--events", str(events), "--zones", str(zones),
                     "--out", str(out), "--timezone", "UTC"])
    assert code == 0, capsys.readouterr().err
    clean = (out / "events_clean.ndjson").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["u"] for line in clean] == ["a"]
    assert read_csv(out / "rejections.csv") == [{"line": "2", "reason": "invalid utf-8"}]
    counts = json.loads((out / "manifest.json").read_text())["counts"]
    assert (counts["rows_total"], counts["rows_rejected"]) == (2, 1)


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
        for zone in zones:
            writer.writerow([zone.zone_id, 120 * census_counts.get(zone.zone_id, 0)])
    code = cli.main(["run", "--config", str(out / "pipeline.config"),
                     "--census", str(census_path)])
    assert code == 0
    manifest = json.loads((out / "run" / "manifest.json").read_text())
    assert 0.0 <= manifest["stats"]["census_home_r2"] <= 1.0
    assert manifest["stats"]["census_home_r2"] > 0.5  # strong home bias, aligned census


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
