"""Each pipeline setting has one parser, one default and one check.

A command-line flag and a config-file line go through the same parser, so
they give the same configuration and the same error. Whatever text a setting
is given, a run ends with exit code 0 or 2.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citypulse import cli, config as config_module, ingest
from citypulse.config import NORMALIZATION_RANGE, PipelineConfig, load_config
from citypulse.errors import ConfigError
from citypulse.pipeline import run_pipeline
from citypulse.synth import SynthConfig, city_geojson, generate_city, generate_events

# config-file key: (flag, a text, another text, a bad text or None when every
# text is valid, a fragment of the bad text's error)
SETTINGS = {
    "events": ("--events", "data/events.csv", "other.ndjson", None, None),
    "zones": ("--zones", "data/zones.geojson", "other.geojson", None, None),
    "census": ("--census", "data/census.csv", "other.csv", None, None),
    "output_dir": ("--out", "results", "elsewhere", None, None),
    "format": ("--format", "csv", "ndjson", "json", "format must be ndjson or csv"),
    "timezone": ("--timezone", "Asia/Tokyo", "UTC", "Mars/Olympus_Mons", "unknown timezone"),
    "centre_lon": ("--centre-lon", "-3.7", "2.35", "abc",
                   "config key 'centre_lon': 'abc' is not a number"),
    "centre_lat": ("--centre-lat", "40.4", "-33.9", "91", "centre_lat in [-90, 90]"),
    "slots": ("--slots", "a=06:00-12:00,b=12:00-24:00", "day=08:00-20:00", "a=08:00-07:00",
              "time range"),
    "night_range": ("--night-range", "23:00-24:00", "00:00-06:00", "22:00", "bad time range"),
    "normalization_total": ("--normalization-total", "1000", "1e100", "nan",
                            "normalization_total must be a number in"),
    "alpha": ("--alpha", "0.05", "1", "2", "alpha must be in"),
    "predominance_threshold": ("--threshold", "0.7", "0.5", "0.4",
                               "predominance_threshold must be in"),
}
# both centre coordinates are set first, so that either can be checked alone
BASE = {"centre_lon": "1", "centre_lat": "1"}


def from_file(tmp_path, items):
    path = tmp_path / "run.config"
    path.write_text("".join(f"{key} = {text}\n" for key, text in items), encoding="utf-8")
    return load_config(path)


def from_flags(items, config_file=None):
    argv = ["run"] + (["--config", str(config_file)] if config_file else [])
    for key, text in items:
        argv += [SETTINGS[key][0], text]
    return cli._build_config(cli.build_parser().parse_args(argv))


def error_of(build) -> str:
    with pytest.raises(ConfigError) as info:
        build().validate()
    return str(info.value)


def test_every_setting_has_one_flag_and_one_key():
    assert {key: flag for flag, key, _help in cli._SETTINGS} == {
        key: row[0] for key, row in SETTINGS.items()}
    assert set(config_module.KEYS) == set(SETTINGS)
    assert len(SETTINGS) == len(dataclasses.fields(PipelineConfig))


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_flag_and_config_line_are_one_setting(tmp_path, key):
    _flag, text, other, bad, message = SETTINGS[key]
    items = [*BASE.items(), (key, text)]
    config = from_flags(items)
    assert config == from_file(tmp_path, items)
    assert config != from_flags(BASE.items())
    # a flag overrides the file
    config_file = tmp_path / "other.config"
    config_file.write_text(f"{key} = {other}\n", encoding="utf-8")
    assert from_flags(items, config_file) == config
    if bad is not None:
        items = [*BASE.items(), (key, bad)]
        shown = error_of(lambda: from_flags(items))
        assert shown == error_of(lambda: from_file(tmp_path, items))
        assert message in shown


@pytest.mark.parametrize("flag,value,message", [
    ("--centre-lon", "abc", "config key 'centre_lon': 'abc' is not a number"),
    ("--normalization-total", "nan", "normalization_total must be a number in [1, 1e+100]"),
], ids=["centre-lon abc", "normalization-total nan"])
def test_bad_flag_value_gives_the_parser_message(tmp_path, capsys, flag, value, message):
    assert cli.main(["run", flag, value, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("changes", [
    {"normalization_total": NORMALIZATION_RANGE[0]},
    {"normalization_total": NORMALIZATION_RANGE[1]},
    {"centre_lon": -180.0, "centre_lat": 90.0}, {"centre_lon": 180.0, "centre_lat": -90.0},
])
def test_settings_at_the_ends_of_their_ranges_are_valid(changes):
    dataclasses.replace(PipelineConfig(), **changes).validate()


@pytest.mark.parametrize("changes,message", [
    ({"normalization_total": math.nan}, "normalization_total"),
    ({"normalization_total": math.inf}, "normalization_total"),
    ({"normalization_total": 0.0}, "normalization_total"),
    ({"normalization_total": 0.999}, "normalization_total"),
    ({"normalization_total": 1.01e100}, "normalization_total"),
    ({"centre_lon": math.nan, "centre_lat": 0.0}, "centre_lon must be in"),
    ({"centre_lon": 0.0, "centre_lat": -math.inf}, "centre_lat in"),
    ({"centre_lon": 180.5, "centre_lat": 0.0}, "centre_lon must be in"),
    ({"centre_lon": 0.0, "centre_lat": 90.5}, "centre_lat in"),
])
def test_settings_outside_their_ranges_are_refused(changes, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(PipelineConfig(), **changes).validate()


def _model_p_values(out: Path) -> dict[str, list[tuple[str, str]]]:
    """(predictor, p) rows of every model_<slot>.csv, blank p for a dropped predictor."""
    models = {}
    for path in sorted(out.glob("model_*.csv")):
        if not path.name.endswith("_residuals.csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                models[path.name] = [(row["predictor"], row["p"]) for row in csv.DictReader(fh)]
    return models


def test_models_do_not_depend_on_the_normalization_total(small_city, tmp_path):
    default = _model_p_values(small_city.out)
    assert default and all(default.values())
    for total in NORMALIZATION_RANGE:
        out = tmp_path / f"total_{total:g}"
        run_pipeline(dataclasses.replace(small_city.config, output_dir=out,
                                         normalization_total=total))
        assert _model_p_values(out) == default, total


@pytest.fixture(scope="module")
def tiny_city(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["synth", "--out", str(root), "--seed", "3", "--n-zones", "16",
                     "--n-users", "40", "--events-per-day", "4"]) == 0
    return root


EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1e308, 1e100, 1e101, 180.0, -90.0, 0.5, 0.99]
TEXTS = st.one_of(st.sampled_from(EXTREMES).map(repr), st.floats().map(repr),
                  st.sampled_from(["1_5", " 2 ", "infinity", "-NaN", "", "0x10", "22:00-24:00",
                                   "23:45-24:00", "00:00-00:00", "night=00:00-24:00",
                                   "a=08:00-12:00,b=11:00-13:00", "x=24:00-24:00"]))
FLAGS = ["--centre-lon", "--centre-lat", "--normalization-total", "--alpha", "--threshold",
         "--slots", "--night-range"]


@settings(max_examples=50, deadline=None)
@given(flag=st.sampled_from(FLAGS), text=TEXTS)
@example(flag="--alpha", text="5e-324")
@example(flag="--normalization-total", text="1e100")
@example(flag="--normalization-total", text="1e101")
@example(flag="--centre-lon", text="-180")
@example(flag="--threshold", text="0.9999999999999999")
@example(flag="--slots", text="night=00:00-24:00")
def test_any_setting_text_ends_in_exit_0_or_2(tiny_city, flag, text):
    with tempfile.TemporaryDirectory(dir=tiny_city) as work:
        out = Path(work) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(tiny_city / "pipeline.config"),
                             "--out", str(out), f"{flag}={text}"])
        shown = stderr.getvalue()
        assert code in (0, 2), shown
        assert "RuntimeWarning" not in shown and "Traceback" not in shown
        if code == 0:
            assert {p.name for p in out.iterdir()} == {
                "manifest.json", *json.loads((out / "manifest.json").read_text())["outputs"]}
        else:
            assert not out.exists()


def _exit_code(argv) -> int:
    """cli.main's exit code; argparse refuses a malformed flag value by exiting with 2."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# a 16-zone, 40-user city; a flag given again overrides these
SYNTH_BASE = ["--seed", "3", "--n-zones", "16", "--n-users", "40", "--events-per-day", "4"]
FRACTIONS = st.sampled_from(["0.5", "1", "0", "-0.5", "1.5", "nan", "inf", "-inf", "", "x"])
# Accepted event rates stay below 50 a day, because the generator allocates
# every event of a rate under the cap; the rates past the cap (40 users over 3
# days: 83,333.3 a day) are refused before any event exists.
SYNTH_TEXTS = {
    "--seed": st.integers(-2, 5).map(str) | TEXTS,
    "--n-zones": st.integers(-1, 20).map(str) | TEXTS,
    "--n-users": st.integers(-1, 50).map(str) | TEXTS,
    "--days": st.integers(-2, 3).map(str) | TEXTS,
    "--events-per-day": st.floats(0, 50).map(repr) | st.floats(83_334, 1e308).map(repr)
                        | st.sampled_from(["nan", "-nan", "inf", "-inf", "-1", "-0.0", "5e-324",
                                           "1_5", "", "x", "1e300", "83333.34"]),
    "--home-bias": TEXTS,
    "--centre-decay": TEXTS,
    "--timezone": st.sampled_from(["UTC", "Asia/Kathmandu", "Mars/X", "", "Europe", "../UTC",
                                   "/etc/localtime", "UTC\x00"]),
    "--class-mix": st.builds("residential:{},mixed:{}".format, FRACTIONS, FRACTIONS)
                   | st.sampled_from(["residential:1", "foo:1", "activity:retail:1",
                                      "activity:foo:1", "residential", ",", ""]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SYNTH_TEXTS)).flatmap(
    lambda flag: st.tuples(st.just(flag), SYNTH_TEXTS[flag])))
@example(("--timezone", "Mars/X"))
@example(("--events-per-day", "nan"))
@example(("--events-per-day", "-1"))
@example(("--events-per-day", "1e300"))
@example(("--class-mix", "residential:nan"))
@example(("--days", "0"))
@example(("--centre-decay", "nan"))
@example(("--centre-decay", "1e308"))
@example(("--class-mix", "residential:1.5,mixed:-0.5"))
def test_any_synth_setting_text_ends_in_exit_0_or_2(tmp_path_factory, case):
    flag, text = case
    out = tmp_path_factory.mktemp("synth") / "city"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = _exit_code(["synth", "--out", str(out), *SYNTH_BASE, f"{flag}={text}"])
    shown = stderr.getvalue()
    assert code in (0, 2), shown
    assert "RuntimeWarning" not in shown and "Traceback" not in shown
    if code == 0:
        assert (out / "events.ndjson").exists() and (out / "pipeline.config").exists()
    else:
        assert not out.exists()


@pytest.mark.parametrize("flag,text,message", [
    ("--timezone", "Mars/X", "unknown timezone id 'Mars/X'"),
    ("--events-per-day", "nan", "events_per_user_per_day must be a finite number >= 0"),
    ("--events-per-day", "-1", "events_per_user_per_day must be a finite number >= 0"),
    ("--events-per-day", "inf", "events_per_user_per_day must be a finite number >= 0"),
    ("--events-per-day", "1e300",
     "n_users * n_days * events_per_user_per_day must be <= 10,000,000"),
    ("--days", "0", "n_days must be >= 1"),
    ("--centre-decay", "nan", "centre_decay_per_km must be a finite number >= 0"),
    ("--centre-decay", "-0.1", "centre_decay_per_km must be a finite number >= 0"),
    ("--centre-decay", "1e308", "centre_decay_per_km leaves no residential zone any weight"),
    ("--class-mix", "residential:nan", "class mix fraction for 'residential' must be a finite"),
    ("--class-mix", "residential:1.5,mixed:-0.5", "class mix fraction for 'mixed' must be"),
    ("--class-mix", "foo:1", "unknown class mix key 'foo'"),
    ("--seed", "-1", "seed must be >= 0"),
])
def test_bad_synth_setting_gives_its_error(tmp_path, capsys, flag, text, message):
    assert cli.main(["synth", "--out", str(tmp_path / "city"), *SYNTH_BASE, flag, text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "city").exists()


def test_synth_event_cap_admits_its_bound():
    # 40 users over 5 days at 50,000 events a day expect exactly the cap; the
    # check needs no event generated
    at_cap = SynthConfig(n_users=40, n_days=5, events_per_user_per_day=50_000.0)
    at_cap.validate()
    with pytest.raises(ConfigError, match="events_per_user_per_day must be <= 10,000,000"):
        dataclasses.replace(at_cap, events_per_user_per_day=50_000.001).validate()
    with pytest.raises(ConfigError, match="events_per_user_per_day must be <= 10,000,000"):
        dataclasses.replace(at_cap, n_days=6).validate()


def test_flagless_synth_writes_the_synth_config_defaults(tmp_path):
    out = tmp_path / "flagless"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out)]) == 0
    city = generate_city(SynthConfig())
    events, _truth = generate_events(city)
    ingest.write_events_ndjson(events, tmp_path / "events.ndjson")
    assert (out / "events.ndjson").read_bytes() == (tmp_path / "events.ndjson").read_bytes()
    assert (out / "zones.geojson").read_text(encoding="utf-8") == json.dumps(
        city_geojson(city), ensure_ascii=False)
    assert f"timezone = {SynthConfig().timezone}\n" in (out / "pipeline.config").read_text()
