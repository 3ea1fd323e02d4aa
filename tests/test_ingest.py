import csv
import io
import json
import re
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import cycle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citypulse import ingest
from citypulse.errors import ConfigError, DataError
from citypulse.ingest import (GeoEvent, RejectionReport, filter_workdays, get_timezone,
                              local_seconds, quarter_bins, write_events_ndjson)
from citypulse.synth import SynthConfig, generate_city, generate_events

from scalar_reference import (checked_rows_batch, events_batch, gathered_instants, quarter_bin,
                              whole_file)
from timestamp_reference import (FRACTION_CASES, TIMESTAMP_CASES, instant, instant_or_reason,
                                 parse_timestamp)

NDJSON_ROW = '{"u":"a1","t":"2013-03-05T10:07:00+01:00","lon":-3.70,"lat":40.42}'


def _parse(data, fmt="ndjson"):
    """Parse ``data`` (text or bytes) from a file that holds exactly its bytes.

    Text is written as UTF-8 with its line ends as they stand. The file lies in
    a fresh temporary directory, not the function-scoped ``tmp_path``, so that
    a Hypothesis test may write one per example.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "events")
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return whole_file(path, fmt)


def test_parse_ndjson_row_maps_fields():
    batch, report = _parse(NDJSON_ROW)
    assert report.rejected == 0
    (event,) = batch
    assert event.user_id == "a1"
    assert event.lon == -3.70
    assert event.lat == 40.42
    assert event.timestamp.isoformat() == "2013-03-05T10:07:00+01:00"


def test_lat_out_of_range_rejected():
    row = '{"u":"a1","t":"2013-03-05T10:07:00+01:00","lon":-3.70,"lat":95.0}'
    events, report = _parse(row)
    assert len(events) == 0
    assert report.entries == [(1, "lat out of range")]


def test_ten_row_file_with_two_malformed():
    good = [f'{{"u":"u{i}","t":"2013-03-05T0{i}:00:00+01:00","lon":1.0,"lat":2.0}}'
            for i in range(8)]
    rows = good[:4] + ["not json"] + good[4:] + ['{"u":"x","lon":1.0,"lat":2.0}']
    events, report = _parse("\n".join(rows))
    assert len(events) == 8
    assert report.rejected == 2
    assert report.total_rows == 10
    assert [line for line, _ in report.entries] == [5, 10]


def test_parse_csv_with_optional_columns():
    csv_text = ("user_id,timestamp,lon,lat,lang,device,text\n"
                "a1,2013-03-05T10:07:00+01:00,-3.70,40.42,es,android,hola\n"
                "a2,2013-03-05T11:00:00+01:00,-3.71,40.43,,,\n")
    batch, report = _parse(csv_text, "csv")
    assert report.rejected == 0
    events = list(batch)
    assert events[0].lang == "es" and events[0].text == "hola"
    assert events[1].lang is None and events[1].device is None


def test_csv_missing_required_column_is_fatal():
    with pytest.raises(DataError, match="missing column"):
        _parse("user_id,timestamp,lon\na,2013-01-01T00:00:00Z,1\n", "csv")


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        _parse("", "parquet")


def test_naive_timestamp_rejected():
    row = '{"u":"a1","t":"2013-03-05T10:07:00","lon":-3.70,"lat":40.42}'
    events, report = _parse(row)
    assert len(events) == 0
    assert "no UTC offset" in report.entries[0][1]


def test_zulu_suffix_accepted():
    row = '{"u":"a1","t":"2013-03-05T10:07:00Z","lon":-3.70,"lat":40.42}'
    batch, report = _parse(row)
    assert report.entries == []
    assert batch.offset_us.tolist() == [0]


def test_ordering_preserved_and_empty_lines_skipped():
    rows = "\n".join([
        '{"u":"b","t":"2013-03-05T10:00:00Z","lon":0.0,"lat":0.0}',
        "",
        '{"u":"a","t":"2013-03-05T11:00:00Z","lon":0.0,"lat":0.0}',
    ])
    events, _ = _parse(rows)
    assert [e.user_id for e in events] == ["b", "a"]


events_strategy = st.lists(
    st.builds(
        GeoEvent,
        user_id=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
        timestamp=st.datetimes(
            min_value=datetime(2012, 1, 1), max_value=datetime(2013, 12, 31),
            timezones=st.just(timezone.utc)),
        lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
        lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
        lang=st.none() | st.just("es"),
        device=st.none() | st.just("android"),
        text=st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=1000),
                                 min_size=1, max_size=20),
    ),
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(events_strategy)
def test_ndjson_round_trip_identity(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("rt") / "events.ndjson"
    write_events_ndjson(events_batch(events), path)
    parsed, report = whole_file(path, "ndjson")
    assert report.rejected == 0
    assert list(parsed) == events
    # the clean-events writer prints every timestamp back as it was read
    rewritten = path.with_name("rewritten.ndjson")
    write_events_ndjson(parsed, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()


def test_a_batch_read_without_write_back_says_so(tmp_path):
    source = tmp_path / "events.ndjson"
    source.write_text(NDJSON_ROW + "\n")
    (batch,) = ingest.read_event_blocks(source, "ndjson", RejectionReport(), write_back=False)
    with pytest.raises(ValueError, match="iterating a batch .* write_back=False"):
        list(batch)
    out = tmp_path / "out.ndjson"
    with pytest.raises(ValueError, match="writing events .* write_back=False"):
        write_events_ndjson(batch, out)
    assert not out.exists()


def _event(ts: str) -> GeoEvent:
    return GeoEvent("u", parse_timestamp(ts), 0.0, 0.0)


def _workdays(events, tz):
    return list(filter_workdays(events_batch(events), tz))


def test_filter_workdays_keeps_tue_wed_thu():
    wednesday = _event("2013-03-06T12:00:00+01:00")
    saturday = _event("2013-03-09T12:00:00+01:00")
    assert _workdays([wednesday, saturday], "Europe/Madrid") == [wednesday]


def test_filter_workdays_uses_local_weekday():
    # Monday 23:30 UTC is Tuesday 00:30 in Madrid (UTC+1 in March)
    boundary = _event("2013-03-04T23:30:00Z")
    assert _workdays([boundary], "Europe/Madrid") == [boundary]
    assert _workdays([boundary], "UTC") == []


def test_filter_workdays_idempotent():
    events = events_batch([
        _event("2013-03-05T10:00:00Z"), _event("2013-03-09T10:00:00Z"),
        _event("2013-03-07T01:00:00Z")])
    once = filter_workdays(events, "Europe/Madrid")
    assert list(filter_workdays(once, "Europe/Madrid")) == list(once)


def test_unknown_timezone_is_fatal():
    with pytest.raises(ConfigError, match="timezone"):
        filter_workdays(events_batch([]), "Mars/Olympus_Mons")


@pytest.mark.parametrize("clock,expected", [
    ("00:00", 0), ("10:07", 40), ("23:59", 95), ("12:00", 48), ("07:59", 31),
])
def test_quarter_bin_examples(clock, expected):
    ts = parse_timestamp(f"2013-03-05T{clock}:00+01:00")
    assert quarter_bin(ts, "Europe/Madrid") == expected


def test_quarter_bin_partitions_the_day():
    hits = [0] * 96
    for minute in range(24 * 60):
        ts = parse_timestamp(f"2013-03-05T{minute // 60:02d}:{minute % 60:02d}:30+01:00")
        hits[quarter_bin(ts, "Europe/Madrid")] += 1
    assert hits == [15] * 96


def test_quarter_bin_converts_timezone():
    ts = parse_timestamp("2013-03-05T23:30:00Z")  # 00:30 next day in Madrid
    assert quarter_bin(ts, "Europe/Madrid") == 2
    assert quarter_bin(ts, "UTC") == 94


# stands for a 5,000-digit integer literal, which json.dumps cannot print
LONG_INTEGER = "<5000 digits>"
DEEP_ARRAY = "<array nested 100,000 deep>"
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
# (field overrides or the whole line, accepted (user_id, lon, lat) or rejection reason)
ROW_CASES = {
    "string id": ({"u": "a1"}, ("a1", -3.7, 40.42)),
    "integer id": ({"u": 42}, ("42", -3.7, 40.42)),
    "zero id": ({"u": 0}, ("0", -3.7, 40.42)),
    "negative id": ({"u": -7}, ("-7", -3.7, 40.42)),
    "null id": ({"u": None}, "empty user_id"),
    "empty id": ({"u": ""}, "empty user_id"),
    "true id": ({"u": True}, "user_id not a string or integer"),
    "false id": ({"u": False}, "user_id not a string or integer"),
    "float id": ({"u": 1.5}, "user_id not a string or integer"),
    "list id": ({"u": ["a"]}, "user_id not a string or integer"),
    "integer lon": ({"lon": 3}, ("a1", 3.0, 40.42)),
    "numeric string lat": ({"lat": "40.5"}, ("a1", -3.7, 40.5)),
    "lon on the limit": ({"lon": -180.0}, ("a1", -180.0, 40.42)),
    "true lon": ({"lon": True}, "lon not a number"),
    "false lat": ({"lat": False}, "lat not a number"),
    "null lon": ({"lon": None}, "lon not a number"),
    "object lat": ({"lat": {"deg": 1}}, "lat not a number"),
    "word lon": ({"lon": "west"}, "lon not a number"),
    # a coordinate string must be ASCII with no whitespace and no "_", though float() takes them
    "padded string lon": ({"lon": " -3.7 "}, "lon not a number"),
    "underscored string lon": ({"lon": "-3_7"}, "lon not a number"),
    "full-width string lat": ({"lat": "\uff14\uff10"}, "lat not a number"),
    "nan string lon": ({"lon": "nan"}, "lon not finite"),
    "inf string lat": ({"lat": "inf"}, "lat not finite"),
    "1e400 string lon": ({"lon": "1e400"}, "lon not finite"),
    "nan lon": ({"lon": float("nan")}, "lon not finite"),
    "infinite lat": ({"lat": float("inf")}, "lat not finite"),
    "minus infinite lon": ({"lon": float("-inf")}, "lon not finite"),
    "lon out of range": ({"lon": 180.5}, "lon out of range"),
    # float() of an integer this long raises OverflowError
    "huge integer lon": ({"lon": 10 ** 400}, "lon out of range"),
    "huge negative integer lat": ({"lat": -10 ** 400}, "lat out of range"),
    "numeric timestamp": ({"t": 5}, "bad timestamp 5"),
    # json.loads refuses integer literals beyond sys.get_int_max_str_digits()
    "5000-digit lon": ({"lon": LONG_INTEGER}, "invalid json: integer too long"),
    "5000-digit id": ({"u": LONG_INTEGER}, "invalid json: integer too long"),
    # json.loads raises RecursionError past the interpreter's recursion limit
    "unclosed deep array": ("[" * 100_000, "invalid json: nesting too deep"),
    # the last line of a source without a final line end is decoded as it stands
    "unterminated string": ('{"u": "a', "invalid json: Unterminated string starting at"),
    "deep array in an extra field": ({"x": DEEP_ARRAY}, "invalid json: nesting too deep"),
    # UTC instants are kept in [0001-01-02T00:00Z, 9999-12-31T00:00Z)
    "first instant": ({"t": "0001-01-02T00:00:00Z"}, ("a1", -3.7, 40.42)),
    "first instant at an offset": ({"t": "0001-01-01T23:00:00-01:00"}, ("a1", -3.7, 40.42)),
    "before the first instant": ({"t": "0001-01-01T23:59:59.999999Z"},
                                 "timestamp out of range"),
    "year 1 ahead of UTC": ({"t": "0001-01-01T00:30:00+01:00"}, "timestamp out of range"),
    "year 1 behind UTC": ({"t": "0001-01-01T22:00:00-01:00"}, "timestamp out of range"),
    "last instant": ({"t": "9999-12-30T23:59:59.999999Z"}, ("a1", -3.7, 40.42)),
    "last day ahead of UTC": ({"t": "9999-12-31T00:30:00+01:00"}, ("a1", -3.7, 40.42)),
    "end instant": ({"t": "9999-12-31T00:00:00Z"}, "timestamp out of range"),
    "year 9999 behind UTC": ({"t": "9999-12-30T23:30:00-01:00"}, "timestamp out of range"),
    "string lang": ({"lang": "es"}, ("a1", -3.7, 40.42)),
    "null lang": ({"lang": None}, ("a1", -3.7, 40.42)),
    "empty device": ({"device": ""}, ("a1", -3.7, 40.42)),
    "number lang": ({"lang": 7}, "lang not a string"),
    "false lang": ({"lang": False}, "lang not a string"),
    "list device": ({"device": ["ios"]}, "device not a string"),
    "object text": ({"text": {"k": 1}}, "text not a string"),
    "number text": ({"text": 0}, "text not a string"),
}


@pytest.mark.parametrize("overrides,expected", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_ndjson_row_field_rules(overrides, expected):
    if isinstance(overrides, str):
        line = overrides
    else:
        obj = {"u": "a1", "t": "2013-03-05T10:07:00+01:00", "lon": -3.7, "lat": 40.42}
        obj.update(overrides)
        line = (json.dumps(obj).replace(json.dumps(LONG_INTEGER), "9" * 5000)
                .replace(json.dumps(DEEP_ARRAY), DEEP_NESTING))
    events, report = _parse(line)
    if isinstance(expected, str):
        assert len(events) == 0
        assert report.entries == [(1, expected)]
    else:
        assert report.entries == []
        (event,) = events
        assert (event.user_id, event.lon, event.lat) == expected
        for name in ("lang", "device", "text"):  # null, absent and "" all mean none
            assert getattr(event, name) == (overrides.get(name) or None)


@pytest.mark.parametrize("lon,reason", [
    ("", "lon not a number"), ("abc", "lon not a number"), ("nan", "lon not finite"),
    ("-inf", "lon not finite"), ("1e400", "lon not finite"), ("181", "lon out of range"),
    ("1_0", "lon not a number"), (" 1.5 ", "lon not a number"), ("1.5\t", "lon not a number"),
    ("\uff11", "lon not a number"),
])
def test_csv_coordinate_rules(lon, reason):
    csv_text = f"user_id,timestamp,lon,lat\n0,2013-03-05T10:07:00+01:00,{lon},40.42\n"
    events, report = _parse(csv_text, "csv")
    assert len(events) == 0
    assert report.entries == [(2, reason)]


@pytest.mark.parametrize("fmt,data,line", [
    ("ndjson", b'{"u":"a","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"\xff"}\n'
               b'{"u":"b","t":"2013-03-05T10:07:00Z","lon":1,"lat":2}\n', 1),
    ("ndjson", b'{"u":"a","t":"2013-03-05T10:07:00Z","lon":1,"lat":2}\n'
               b'{"u":"b","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"caf\xc3"}\n', 2),
    ("csv", b"user_id,timestamp,lon,lat,text\n"
            b"a,2013-03-05T10:07:00Z,1,2,\"two\nlines \xfe\"\n"
            b"b,2013-03-05T10:07:00Z,1,2,fine\n", 3),
    ("csv", b"user_id,timestamp,lon,lat,extra\n"
            b"a,2013-03-05T10:07:00Z,1,2,ok\n"
            b"b,2013-03-05T10:07:00Z,1,2,\x80\n", 3),
])
def test_invalid_utf8_rejects_only_its_row(fmt, data, line):
    events, report = _parse(data, fmt)
    assert report.entries == [(line, "invalid utf-8")]
    assert report.total_rows == 2
    assert len(events) == 1


def test_valid_non_ascii_text_is_kept():
    # JSON escapes, surrogate pair included, and the same text as raw UTF-8
    row = r'{"u":"a","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"caf\u00e9 \ud83d\ude00"}'
    raw = '{"u":"b","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"café 😀"}'
    events, report = _parse(row + "\n" + raw + "\n")
    assert report.entries == []
    assert [e.text for e in events] == ["café 😀", "café 😀"]


@pytest.mark.parametrize("fields,reason", [
    (r'"u":"a\ud800"', "user_id holds a lone surrogate"),
    (r'"u":"\udc80"', "user_id holds a lone surrogate"),
    (r'"u":"a","text":"x\udc80y"', "text holds a lone surrogate"),
    (r'"u":"a","lang":"\udbff"', "lang holds a lone surrogate"),
    (r'"u":"a","device":"\ud83d"', "device holds a lone surrogate"),
    (r'"u":"a","text":"\ude00\ud83d"', "text holds a lone surrogate"),  # halves swapped
    (r'"u":"a\ud800","lon":"west"', "user_id holds a lone surrogate"),  # the first field
], ids=["user", "user low half", "text", "lang", "device", "swapped pair", "user before lon"])
def test_a_lone_surrogate_rejects_its_row(fields, reason, tmp_path):
    # a JSON \u escape of half a surrogate pair decodes to a character that
    # UTF-8 cannot write; its row is refused, naming the field
    clean = '{"u":"b","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"\\ud83d\\ude00"}'
    bad = '{"t":"2013-03-05T10:07:00Z","lon":1,"lat":2,%s}' % fields  # a repeated key: the last
    events, report = _parse("\n".join([clean, bad, clean]) + "\n")
    assert report.entries == [(2, reason)]
    assert [e.text for e in events] == ["\U0001f600"] * 2
    write_events_ndjson(events, tmp_path / "clean.ndjson")
    assert (tmp_path / "clean.ndjson").read_text(encoding="utf-8").count("\U0001f600") == 2


def test_clean_chunks_take_one_surrogate_test_of_their_user_ids(tmp_path):
    # beside the undecodable-byte test of the chunk's text, a clean chunk
    # tests only its user ids, joined, for a lone surrogate
    config = SynthConfig(seed=5, n_zones=16, n_users=100, events_per_user_per_day=10.0, n_days=2)
    events, _ = generate_events(generate_city(config))
    path = tmp_path / "events.ndjson"
    write_events_ndjson(events, path)
    tested, chunks = [], []

    def unencodable(text):
        tested.append(text)
        return False

    add_rows = ingest._add_rows
    with mock.patch.multiple(ingest, _unencodable=unencodable,
                             _add_rows=lambda *args: chunks.append(args[2][0]) or add_rows(*args)):
        batch, report = whole_file(path, "ndjson")
    assert len(chunks) > 3 and len(batch) == len(events)
    assert tested[1::2] == ["".join(users) for users in chunks]
    assert len(tested) == 2 * len(chunks)


def test_rejection_report_csv(tmp_path):
    report = RejectionReport(entries=[(3, "lat out of range"), (1, "invalid json")])
    path = tmp_path / "rej.csv"
    report.write_csv(path)
    assert path.read_text() == "line,reason\n1,invalid json\n3,lat out of range\n"


# --- array workday filter and bins against per-event astimezone ---------------

def _utc(*args) -> int:
    return int(datetime(*args, tzinfo=timezone.utc).timestamp())


# Madrid kept local mean time (-00:14:44, not a multiple of 900 s) until
# 1901-01-01 00:00 UTC. Paris Mean Time (+00:09:21) ended at 23:50:39 UTC, a
# second that splits a UTC quarter-hour, so that one falls back per event.
MADRID_LMT_END = _utc(1901, 1, 1)
PARIS_PMT_END = _utc(1911, 3, 10, 23, 50, 39)
# (timezone, first second, last second) of the instants drawn in each family
TIME_WINDOWS = [
    ("Europe/Madrid", _utc(2013, 3, 30), _utc(2013, 4, 1)),     # spring forward
    ("Europe/Madrid", _utc(2013, 10, 26), _utc(2013, 10, 28)),  # fall back
    ("Asia/Kathmandu", _utc(2013, 3, 1), _utc(2013, 3, 15)),    # +05:45
    ("Asia/Kathmandu", _utc(1985, 12, 30), _utc(1986, 1, 2)),   # +05:30 -> +05:45
    ("Europe/Madrid", MADRID_LMT_END - 3 * 86400, MADRID_LMT_END + 86400),
    ("Europe/Paris", PARIS_PMT_END - 3600, PARIS_PMT_END + 3600),
    ("Europe/Madrid", _utc(1900, 1, 1), _utc(1969, 12, 31)),    # before 1970
    ("America/New_York", _utc(1883, 11, 17), _utc(1883, 11, 20)),  # LMT -04:56:02 ends
]


def _per_event(seconds, tz):
    zone = get_timezone(tz)
    stamps = [datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=s)
              for s in seconds]
    workday = [ts.astimezone(zone).weekday() in (1, 2, 3) for ts in stamps]
    return stamps, workday, [quarter_bin(ts, zone) for ts in stamps]


def _check_against_per_event(seconds, tz):
    stamps, workday, bins = _per_event(seconds, tz)
    batch = events_batch(GeoEvent(f"u{i}", ts, 0.0, 0.0)
                                   for i, ts in enumerate(stamps))
    kept = filter_workdays(batch, tz)
    assert [e.user_id for e in kept] == [
        f"u{i}" for i, keep in enumerate(workday) if keep]
    assert quarter_bins(batch.epoch, get_timezone(tz)).tolist() == bins


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TIME_WINDOWS).flatmap(
    lambda w: st.tuples(st.just(w[0]), st.lists(st.integers(w[1], w[2]), max_size=40))))
def test_array_time_matches_per_event_astimezone(case):
    tz, seconds = case
    _check_against_per_event(seconds, tz)


def test_quarter_hour_split_by_a_transition_falls_back_per_event():
    # every second of the half hour around the end of Paris Mean Time
    seconds = np.arange(PARIS_PMT_END - 900, PARIS_PMT_END + 900)
    local = local_seconds(seconds, get_timezone("Europe/Paris"))
    np.testing.assert_array_equal(local - seconds, np.where(seconds < PARIS_PMT_END, 561, 0))
    _check_against_per_event(seconds.tolist(), "Europe/Paris")


def test_local_mean_time_offset_off_the_quarter_grid():
    seconds = np.arange(MADRID_LMT_END - 86400, MADRID_LMT_END + 3600, 7)
    local = local_seconds(seconds, get_timezone("Europe/Madrid"))
    np.testing.assert_array_equal(local - seconds, np.where(seconds < MADRID_LMT_END, -884, 0))
    _check_against_per_event(seconds.tolist(), "Europe/Madrid")


@pytest.mark.parametrize("tz, seconds", [
    ("Europe/Madrid", [
        *range(_utc(2013, 3, 31, 1) - 20, _utc(2013, 3, 31, 1) + 20, 3),    # spring forward
        *range(_utc(2013, 10, 27, 1) - 20, _utc(2013, 10, 27, 1) + 20, 3),  # fall back
        *range(_utc(2013, 3, 7, 23) - 900, _utc(2013, 3, 7, 23) + 13),      # Thu -> Fri
        *range(MADRID_LMT_END - 900, MADRID_LMT_END + 900, 61)]),
    ("Europe/Paris", [*range(PARIS_PMT_END - 900, PARIS_PMT_END + 900, 61)])],
    ids=["Madrid DST and LMT", "Paris PMT"])
def test_local_time_of_a_block_matches_per_event(tz, seconds):
    # one block in one pass: quarter-hours a transition splits are looked up
    # row by row, the rest once, in either order of the rows
    assert quarter_bins(np.array(seconds), get_timezone(tz)).dtype == np.int8
    _check_against_per_event(seconds, tz)
    _check_against_per_event(seconds[::-1], tz)


@pytest.mark.parametrize("tz", ["Etc/GMT-14", "Etc/GMT+12", "Europe/Madrid", "Asia/Kathmandu"])
def test_instants_at_both_accepted_ends_bin_in_every_zone(tz):
    first, end = _utc(1, 1, 2), _utc(9999, 12, 31)
    _check_against_per_event([first, first + 899, end - 900, end - 1], tz)


def test_parsed_timestamps_keep_instant_offset_and_microseconds():
    # (timestamp, UTC epoch seconds, microseconds, offset seconds)
    rows = [("2013-03-05T10:07:00.250000+05:45", _utc(2013, 3, 5, 4, 22), 250000, 20700),
            ("1901-01-01T00:00:00-00:14", _utc(1901, 1, 1, 0, 14), 0, -840),
            ("1969-12-31T23:59:59.999999Z", -1, 999999, 0)]
    text = "\n".join(json.dumps({"u": "a", "t": t, "lon": 0, "lat": 0}) for t, *_ in rows)
    batch, report = _parse(text)
    assert report.entries == []
    assert batch.epoch.tolist() == [r[1] for r in rows]
    assert batch.micro.tolist() == [r[2] for r in rows]
    assert batch.offset_us.tolist() == [r[3] * 1_000_000 for r in rows]
    assert [e.timestamp.isoformat() for e in batch] == [
        parse_timestamp(t).isoformat() for t, *_ in rows]


# --- block-decoded NDJSON against the per-line reference ----------------------

def _checked_row(user_id, raw_ts, lon, lat, lang, device, text) -> tuple:
    """One row through the per-row checks, its timestamp read by the reference.

    The row as :func:`scalar_reference.checked_rows_batch` takes it; ValueError
    names the first fault.
    """
    instant = instant_or_reason(raw_ts)
    refusal = instant if isinstance(instant, str) else None
    user_id, *fields = ingest._check_row(user_id, refusal, lon, lat, lang, device, text)
    return (user_id, instant, *fields)


def _checked_object(obj: dict) -> tuple:
    """One NDJSON object through the per-row checks, after its required keys."""
    missing = [k for k in ingest.NDJSON_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return _checked_row(obj["u"], obj["t"], obj["lon"], obj["lat"],
                        obj.get("lang"), obj.get("device"), obj.get("text"))


def _text(data: bytes) -> io.StringIO:
    """A file's bytes decoded as the reader decodes them, split at "\\n", "\\r\\n" and "\\r"."""
    return io.StringIO(data.decode("utf-8", "surrogateescape"), newline="")


def _parse_per_line(data: bytes):
    """The NDJSON reader one line at a time: json.loads and the per-row checks.

    The file's bytes are read as lines by :func:`_text`, after a leading
    byte-order mark.
    """
    rows, report = [], RejectionReport()
    for n, line in enumerate(_text(data.removeprefix(b"\xef\xbb\xbf")), start=1):
        if not line.strip():
            continue
        report.total_rows += 1
        try:
            rows.append(_checked_object(ingest._load_row(line)))
        except ValueError as exc:
            report.entries.append((n, str(exc)))
    return checked_rows_batch(rows), report


def _parse_csv_per_row(data: bytes):
    """The CSV reader one row at a time: csv.reader over :func:`_text` and the per-row checks."""
    rows, report = [], RejectionReport()
    reader = csv.reader(_text(data))
    header = next(reader)
    if header:  # a leading byte-order mark opens the first (unquoted) name
        header[0] = header[0].removeprefix("\ufeff")
    # a repeated name: the last wins
    position = {name: i for i, name in enumerate(header)}
    columns = [position.get(name) for name in ingest.CSV_COLUMNS + ingest.OPTIONAL_FIELDS]
    for row in reader:
        if not row:
            continue
        report.total_rows += 1
        # a short row leaves its last columns empty (None), as csv.DictReader does
        cells = [row[i] if i is not None and i < len(row) else None for i in columns]
        try:
            if any(map(ingest._unencodable, row)):
                raise ValueError("invalid utf-8")
            user_id, raw_ts, lon, lat, lang, device, text = cells
            rows.append(_checked_row(user_id, raw_ts or "", lon, lat, lang, device, text))
        except ValueError as exc:
            report.entries.append((reader.line_num, str(exc)))
    return checked_rows_batch(rows), report


def _write_csv_copy(ndjson_path, csv_path):
    """The rows of an NDJSON events file as CSV, written by Python's csv module."""
    with open(ndjson_path, encoding="utf-8") as src, \
            open(csv_path, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow([*ingest.CSV_COLUMNS, *ingest.OPTIONAL_FIELDS])
        for line in src:
            obj = json.loads(line)
            writer.writerow([obj["u"], obj["t"], repr(obj["lon"]), repr(obj["lat"]),
                             *(obj.get(name, "") for name in ingest.OPTIONAL_FIELDS)])


def _columns(batch):
    return (batch.user_ids, batch.users.tolist(), batch.epoch.tolist(), batch.micro.tolist(),
            batch.offset_us.tolist(), batch.lon.tobytes(), batch.lat.tobytes(),
            {name: col.tolist() for name, col in batch.optional.items()})


ROW_TIMES = ["2013-03-05T10:07:00+01:00", "2013-03-05T10:07:00Z", "2013-03-05T10:07:00-00:00",
             "2012-02-29T23:59:59+05:45", "2013-03-05t10:07:00z", "2013-03-05 10:07:00+01:00",
             "2013-03-05T10:07:00.250+01:00", "2013-03-05T10:07:00", "2013-02-29T10:07:00Z",
             "2013-03-05T10:07:00+01:60", "0001-01-01T00:30:00+01:00", " 2013-03-05T10:07:00Z"]
row_objects = st.fixed_dictionaries(
    {"u": st.sampled_from(["a", "b", "ü", "", None]) | st.integers(-2, 2),
     "t": st.sampled_from(ROW_TIMES) | st.integers(0, 2),
     "lon": st.floats(-200, 200) | st.integers(-200, 200)
            | st.sampled_from([float("nan"), True, None, "1.5", " -3.7 ", "1_5", "west", "",
                               "nan", "1e400"]),
     "lat": st.floats(-90, 90) | st.sampled_from([90.5, float("inf"), "40.5", "\uff14"])},
    optional={"text": st.text(max_size=6) | st.sampled_from(["a{b", "}", "x\u2028y\x85", 3]),
              "lang": st.sampled_from(["es", "", None, False]),
              "extra": st.sampled_from([{"k": {"z": [1]}}, [1, [2, {}]], "}{"])})


def _dumps(obj, ascii_only):
    return json.dumps(obj, ensure_ascii=ascii_only).encode("utf-8")


@st.composite
def ndjson_lines(draw):
    """One or more physical lines (bytes, no terminator): a clean row or an adversarial one."""
    obj = draw(row_objects)
    line = _dumps(obj, draw(st.booleans()))
    kind = draw(st.sampled_from(["row"] * 6 + ["split", "split at a comma", "merge", "trailing",
                                                "blank", "raw", "undecodable", "long integer",
                                                "carriage return inside"]))
    if kind == "split":  # one object over two lines
        cut = draw(st.integers(1, len(line) - 1))
        return [line[:cut], line[cut:]]
    if kind == "carriage return inside":  # a lone "\r" ends a line in a file of any line end
        cut = draw(st.integers(1, len(line) - 1))
        return [line[:cut] + b"\r" + line[cut:]]
    if kind == "split at a comma":  # the block's inserted comma would join the halves again
        cut = draw(st.sampled_from([i for i in range(len(line)) if line.startswith(b", ", i)]))
        return [line[:cut], line[cut + 2:]]
    if kind == "merge":  # two objects on one line
        return [line + draw(st.sampled_from([b"", b" ", b","])) + _dumps(draw(row_objects), True)]
    if kind == "trailing":
        return [line + draw(st.sampled_from([b" ", b"\r", b"\t ", b"\x0b", b"\xe2\x80\xa8"]))]
    if kind == "blank":
        return [draw(st.sampled_from([b"", b"  ", b"\t", b"\x0b", b"\x1c", b"\xe2\x80\xa8"]))]
    if kind == "raw":
        return [draw(st.sampled_from([b"[1]", b"null", b"{", b"}", b"{}", b"NaN",
                                      b'{"u":"a","t":"2013-03-05T10:07:00Z","lon":NaN,"lat":1}',
                                      b"\x0b" + line, b"\x1c" + line, b"[" + line + b"]"]))]
    if kind == "undecodable":
        return [line[:-1] + b', "text": "\xff"}']
    if kind == "long integer":
        return [line[:-1] + b', "lon": ' + b"9" * 5000 + b"}"]
    return [line]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(ndjson_lines(), max_size=12),
       terminator=st.sampled_from([b"\n", b"\r\n", b"\r"]), final=st.booleans(),
       bom=st.booleans(), block_chars=st.sampled_from([1, 40, 300, ingest._BLOCK_CHARS]))
def test_block_decoding_matches_per_line_parse(lines, terminator, final, bom, block_chars):
    data = terminator.join(line for group in lines for line in group)
    data = (b"\xef\xbb\xbf" if bom else b"") + data + (terminator if final else b"")
    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        batch, report = _parse(data)
    expected, expected_report = _parse_per_line(data)
    assert _columns(batch) == _columns(expected)
    assert report.entries == expected_report.entries
    assert report.total_rows == expected_report.total_rows


# --- CSV blocks against the per-row reference ------------------------------

# stands for bytes that are not UTF-8; replaced after the row is written
UNDECODABLE = "@@ff@@"
CSV_CELLS = {
    "user_id": st.sampled_from(["a", "b", "ü", "", "42", "-7", "007", " 7"]),
    "timestamp": st.sampled_from(ROW_TIMES + ["", "5"]),
    "lon": st.floats(-200, 200).map(repr) | st.integers(-200, 200).map(str) | st.sampled_from(
        ["-3.7", " -3.7 ", "1_5", "１５", "west", "", "nan", "-inf", "1e400", "0x10"]),
    "lat": st.floats(-90, 90).map(repr) | st.sampled_from(
        ["40.5", "\t40.5\n", "90.5", "inf", "", "1e-400", "4_0"]),
    "lang": st.sampled_from(["es", "", "x,y"]),
    "device": st.sampled_from(["ios", ""]),
    "text": st.text(max_size=6) | st.sampled_from(['say "hi"', "two\nlines", "a\r\nb", ",", ""]),
    "extra": st.sampled_from(["", "k", "x\ny"]),
}


@st.composite
def csv_sources(draw):
    """CSV bytes: a header, possibly with repeated or extra names, then adversarial rows."""
    optional = draw(st.lists(st.sampled_from(["lang", "device", "text", "extra", "lon"]),
                             max_size=4))
    header = draw(st.permutations([*ingest.CSV_COLUMNS, *optional]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(CSV_CELLS[name]) for name in header]
        kind = draw(st.sampled_from(["row"] * 5 + ["short", "long", "blank", "undecodable"]))
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += ["more"]
        elif kind == "blank":
            row = []
        elif kind == "undecodable":
            row[draw(st.integers(0, len(row) - 1))] += UNDECODABLE
        rows.append(row)
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *rows])
    return text.getvalue().encode("utf-8").replace(UNDECODABLE.encode(), b"\xff")


@settings(max_examples=300, deadline=None)
@given(data=csv_sources(), block_rows=st.sampled_from([1, 2, 5, ingest._CSV_BLOCK_ROWS]),
       bom=st.booleans())
def test_csv_blocks_match_per_row_parse(data, block_rows, bom):
    data = (b"\xef\xbb\xbf" if bom else b"") + data
    with mock.patch.object(ingest, "_CSV_BLOCK_ROWS", block_rows):
        batch, report = _parse(data, "csv")
    expected, expected_report = _parse_csv_per_row(data)
    assert _columns(batch) == _columns(expected)
    assert report.entries == expected_report.entries
    assert report.total_rows == expected_report.total_rows


# Lines whose block decodes as one JSON array although no line is an object;
# each case below fails exactly one of the block decoder's conditions
SPLIT_AFTER_NESTED = [b'{"x": {"k": 1}',
                      b'"u": "a", "t": "2013-03-05T10:07:00Z", "lon": 1, "lat": 2}']
SPLIT_AT_A_COMMA = [b'{"u": "a", "t": "2013-03-05T10:07:00Z"', b'"lon": 1, "lat": 2}']
TWO_OBJECTS = [b'{"u": "b", "t": "2013-03-05T10:08:00Z", "lon": 1, "lat": 2}, '
               b'{"u": "c", "t": "2013-03-05T10:09:00Z", "lon": 1, "lat": 2}']
# a string that would run from one line into the next, over the inserted comma
STRING_OVER_A_LINE_END = [b'{"u": "b", "t": "2013-03-05T10:08:00Z", "lon": 1, "lat": 2}, '
                          b'{"u": "c", "t": "2013-03-05T10:09:00Z", "lon": 1, "lat": 2, "text": "}',
                          b'"}']


@pytest.mark.parametrize("lines", [
    SPLIT_AFTER_NESTED,  # as many "{" as lines and a "}" at each end, but one object
    SPLIT_AFTER_NESTED + TWO_OBJECTS,  # one object per line on average, but a "{" too many
    SPLIT_AT_A_COMMA + TWO_OBJECTS,  # as many "{" as lines and objects, but a line ends in '"'
    # as many "{" as lines and objects and a "}" at each end, but a string spans a line end
    STRING_OVER_A_LINE_END,
], ids=["one object", "nested", "line end", "string over a line end"])
def test_block_decoder_conditions_each_needed(lines):
    data = b"\n".join(lines) + b"\n"
    json.loads(b"[" + b",".join(lines) + b"]")  # the block alone would decode
    batch, report = _parse(data)
    expected, expected_report = _parse_per_line(data)
    assert len(batch) == 0 and report.rejected == len(lines)
    assert _columns(batch) == _columns(expected)
    assert report.entries == expected_report.entries
    assert report.total_rows == len(lines)


def test_lone_carriage_return_between_tokens_ends_its_line():
    # JSON reads a "\r" between two tokens as whitespace, but the reader ends
    # a line there: the chunk must not decode as one object per "\n"
    clean = b'{"u": "a", "t": "2013-03-05T10:07:00Z", "lon": 1, "lat": 2}'
    data = b"\n".join([clean, clean.replace(b', "lon"', b',\r "lon"'), clean]) + b"\n"
    batch, report = _parse(data)
    expected, expected_report = _parse_per_line(data)
    assert [line for line, _ in report.entries] == [2, 3]
    assert report.entries == expected_report.entries
    assert len(batch) == 2 and _columns(batch) == _columns(expected)


def test_deeply_nested_row_in_a_provable_block_rejects_only_itself():
    # one "{" per line and a "}" at each end, so the block decode is tried and raises
    clean = b'{"u": "a", "t": "2013-03-05T10:07:00Z", "lon": 1, "lat": 2}'
    deep = clean.replace(b'"u": "a"', b'"u": "b", "x": ' + DEEP_NESTING.encode())
    data = b"\n".join([clean, deep, clean]) + b"\n"
    batch, report = _parse(data)
    expected, expected_report = _parse_per_line(data)
    assert report.entries == [(2, "invalid json: nesting too deep")]
    assert report.entries == expected_report.entries
    assert len(batch) == 2 and _columns(batch) == _columns(expected)


# --- the clean block goes into the columns with no per-row step --------------

def _per_row_step(*args):
    raise AssertionError(f"per-row step called with {args!r}")


@pytest.mark.parametrize("fmt,line_end", [("ndjson", b"\n"), ("ndjson", b"\r\n"),
                                           ("csv", b"\n")])
def test_clean_blocks_skip_the_per_row_checks(tmp_path, fmt, line_end):
    # a synth file of several blocks, each row a string id, a bulk-shape
    # timestamp and two coordinates in range (CSV cells are strings)
    config = SynthConfig(seed=5, n_zones=16, n_users=100, events_per_user_per_day=10.0, n_days=2)
    events, _ = generate_events(generate_city(config))
    path = tmp_path / "events.ndjson"
    write_events_ndjson(events, path)
    expected, expected_report = _parse_per_line(path.read_bytes())
    path.write_bytes(path.read_bytes().replace(b"\n", line_end))
    assert path.stat().st_size > 3 * ingest._BLOCK_CHARS
    if fmt == "csv":
        _write_csv_copy(path, tmp_path / "events.csv")
        path = tmp_path / "events.csv"
        assert len(events) > 3 * ingest._CSV_BLOCK_ROWS
        assert _columns(_parse_csv_per_row(path.read_bytes())[0]) == _columns(expected)
    with mock.patch.multiple(ingest, _check_row=_per_row_step, _rfc3339_instants=_per_row_step,
                             _load_row=_per_row_step, _float_or_nan=_per_row_step):
        batch, report = whole_file(path, fmt)
    assert report.entries == expected_report.entries == []
    assert report.total_rows == len(batch) == len(events)
    assert _columns(batch) == _columns(expected)


# Rows padded to one width, so that each read of k * ROW_WIDTH characters is a
# chunk of k whole rows
ROW_WIDTH = 100
LON_TIME = "2013-03-05T11:00:00+01:00"
FRACTION_TIME = "2013-03-05T10:07:00.5Z"


def _padded_lines(rows) -> str:
    """NDJSON lines of ROW_WIDTH characters each, line feed included: spaces pad before the "}"."""
    return "".join(json.dumps(obj)[:-1].ljust(ROW_WIDTH - 2) + "}\n" for obj in rows)


def _clean_rows(first, count):
    return [{"u": f"u{i % 3}", "t": f"2013-03-05T10:{i:02d}:00+01:00", "lon": -3.7, "lat": 40.4}
            for i in range(first, first + count)]


@pytest.mark.parametrize("lon", ["-3.7", "west"], ids=["numeric", "word"])
@pytest.mark.parametrize("layout", ["LcccF", "FcccL", "L", "F"],
                         ids=["lon first", "fraction first", "lon alone", "fraction alone"])
def test_rows_off_the_bulk_path_alone_take_the_per_row_checks(layout, lon):
    # a string lon (L) and a timestamp with a fraction (F) in the middle block
    # of three; "alone" gives every row its own block, the other row following
    special = {"L": {"u": "lon row", "t": LON_TIME, "lon": lon, "lat": 40.4},
               "F": {"u": "fraction row", "t": FRACTION_TIME, "lon": -3.7, "lat": 40.4}}
    size = len(layout)
    middle = [special[c] if c in special else row
              for c, row in zip(layout, _clean_rows(size, size))]
    rows = _clean_rows(0, size) + middle + _clean_rows(2 * size, size)
    if size == 1:
        rows.insert(3, special["F" if layout == "L" else "L"])
    text = _padded_lines(rows)
    assert len(text) == len(rows) * ROW_WIDTH
    expected, expected_report = _parse_per_line(text.encode())
    calls = []

    def spy(step):
        def record(*args):
            calls.append((step.__name__, args))
            return step(*args)
        return record

    with mock.patch.multiple(ingest, _check_row=spy(ingest._check_row),
                             _rfc3339_instants=spy(ingest._rfc3339_instants),
                             _load_row=spy(ingest._load_row),
                             _BLOCK_CHARS=size * ROW_WIDTH):
        batch, report = _parse(text)
    # the word lon row takes the per-row checks, its timestamp read in bulk
    # with its block's; the fraction row only the grammar step, with no other
    # timestamp of its block. A numeric string lon is read on the column
    # path, as a CSV cell is.
    word = lon == "west"
    checked = [("lon row", None, lon, 40.4, None, None, None)] if word else []
    assert [args for step, args in calls if step == "_check_row"] == checked
    assert [args for step, args in calls if step == "_rfc3339_instants"] == [([FRACTION_TIME],)]
    assert len(calls) == len(checked) + 1
    assert _columns(batch) == _columns(expected)
    assert report.entries == expected_report.entries
    assert report.total_rows == expected_report.total_rows == len(rows)
    assert len(batch) == len(rows) - (lon == "west")


def test_user_codes_follow_the_first_accepted_row():
    # "b" is rejected on its first row (a bad date), then accepted later in
    # that block and in the next one: its code comes from its first accepted row
    ok = "2013-03-05T10:07:00+01:00"
    rows = [{"u": user, "t": t, "lon": -3.7, "lat": 40.4} for user, t in [
        ("a", ok), ("b", "2013-02-29T10:07:00+01:00"), ("c", ok), ("b", ok), ("d", ok),
        ("e", ok), ("b", ok), ("a", ok), ("f", ok), ("c", ok)]]
    text = _padded_lines(rows)
    with mock.patch.object(ingest, "_BLOCK_CHARS", 5 * ROW_WIDTH):
        batch, report = _parse(text)
    expected, expected_report = _parse_per_line(text.encode())
    assert [line for line, _ in report.entries] == [2]
    assert report.entries == expected_report.entries
    assert batch.user_ids == expected.user_ids == ("a", "c", "b", "d", "e", "f")
    assert batch.users.tolist() == expected.users.tolist() == [0, 1, 2, 3, 4, 2, 0, 5, 1]


def _case_rows(raws, fmt) -> tuple[bytes, list[tuple[int, object]]]:
    """A source of rows for each timestamp of ``raws``, and each row's line and outcome.

    Per timestamp a clean row, a row with a word lon and, in NDJSON, a row
    with an integer user id: the last two take the per-row checks, which give
    the timestamp's reason before the lon's. The outcome is the reference's
    ``(epoch, micro, offset_us)`` or rejection reason.
    """
    rows, expected = [], []
    line = 1 if fmt == "ndjson" else 2  # a CSV header takes line 1
    for raw in raws:
        outcome = instant_or_reason(raw)
        for user, lon in [("a", 1.0), ("b", "west")] + ([(7, 1.0)] if fmt == "ndjson" else []):
            rows.append((user, raw, lon, 2.0))
            if fmt == "csv":  # a quoted line end: the row ends on a later line
                line += len(re.findall("\r\n|\r|\n", raw))
            refused = isinstance(outcome, str) or lon == 1.0
            expected.append((line, outcome if refused else "lon not a number"))
            line += 1
    if fmt == "ndjson":
        data = "".join(json.dumps(dict(zip(ingest.NDJSON_KEYS, row))) + "\n" for row in rows)
    else:
        text = io.StringIO()
        csv.writer(text).writerows([ingest.CSV_COLUMNS, *rows])
        data = text.getvalue()
    return data.encode("utf-8"), expected


def _check_cases(raws, fmt) -> None:
    """Every row of :func:`_case_rows` in one source parses to its reference outcome."""
    data, expected = _case_rows(raws, fmt)
    batch, report = _parse(data, fmt)
    rejected = dict(report.entries)
    instants = iter(zip(batch.epoch.tolist(), batch.micro.tolist(), batch.offset_us.tolist()))
    assert [(n, rejected[n] if n in rejected else next(instants)) for n, _ in expected] == expected
    assert report.total_rows == len(expected)


CASES = [raw for raw, _ in TIMESTAMP_CASES]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
@pytest.mark.parametrize("raw", CASES, ids=[repr(raw) for raw in CASES])
def test_timestamps_match_the_reference(raw, fmt):
    _check_cases([raw], fmt)


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_every_case_in_one_block_matches_the_reference(fmt):
    # one block holds every case, so the grammar step reads them all at once
    _check_cases(CASES, fmt)


@pytest.mark.parametrize("raw,micro", FRACTION_CASES, ids=[raw for raw, _ in FRACTION_CASES])
def test_fractions_of_any_length_read_alike_on_every_python(raw, micro):
    assert parse_timestamp(raw).microsecond == micro
    batch, report = _parse(json.dumps({"u": "a", "t": raw, "lon": 1, "lat": 2}))
    assert report.entries == [] and batch.micro.tolist() == [micro]


# Characters a timestamp may be mutated with: its own, the other separators
# and zone letters, signs, whitespace, a non-ASCII digit and a full-width one
MUTATION_CHARS = "0123456789-:.+TtZz ,Xx_\t\n\r\x00١２é"
VALID_TIMESTAMPS = st.sampled_from(
    ["2013-03-05T10:07:00+01:00", "2013-03-05T10:07:00Z", "2012-02-29t23:59:59.999999z",
     "0001-01-02 00:00:00.5-05:30", "9999-12-30T23:59:59+23:59", "1969-12-31T23:59:59.25Z"])


@st.composite
def mutated_timestamps(draw):
    """A valid timestamp with up to four characters replaced, inserted or deleted."""
    raw = draw(VALID_TIMESTAMPS)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(raw)))
        char = draw(st.sampled_from(MUTATION_CHARS))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        raw = (raw[:at] + char + raw[at + 1:] if kind == "replace"
               else raw[:at] + char + raw[at:] if kind == "insert" else raw[:at] + raw[at + 1:])
    return raw


@settings(max_examples=300, deadline=None)
@given(raws=st.lists(mutated_timestamps(), min_size=1, max_size=6),
       fmt=st.sampled_from(["ndjson", "csv"]))
def test_mutated_timestamps_match_the_reference(raws, fmt):
    try:
        _check_cases(raws, fmt)
    except (DataError, ConfigError):
        pass  # the only errors that may escape the parse


@pytest.mark.parametrize("raws", [
    # 24 and 26 characters: read 25 at a time, both would look valid
    ["2013-03-05T10:00:00+01:0", "12013-03-05T10:00:00+01:00"],
    # a line feed inside a string: read between line feeds, the first two would look valid
    ["2013-03-05T10:00:00+01:00\n2013-03-05T11:00:00+01:00", "", "2013-03-05T10:00:00+01:0"],
], ids=["24 and 26", "line feed inside"])
def test_bulk_timestamps_of_other_lengths_are_never_read_shifted(raws):
    assert ingest._fixed_instants(raws)[0].tolist() == [False] * len(raws)


def test_bulk_timestamps_in_one_call():
    valid, epoch, offset = ingest._fixed_instants(CASES)
    assert valid.tolist() == [bulk for _, bulk in TIMESTAMP_CASES]
    for raw, ok, e, o in zip(CASES, valid.tolist(), epoch.tolist(), offset.tolist()):
        if ok:
            ts = parse_timestamp(raw)
            assert (e, o) == (ts.timestamp(), ts.utcoffset().total_seconds())


# The bulk shape: a date, "T", a time, then "Z" or a numeric offset, ASCII digits
BULK_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                        r"(?:Z|[+-][0-9]{2}:[0-9]{2})")


def _bulk_reference(raw):
    """The stdlib reading of one string: (epoch, offset) seconds, or None off the shape."""
    if type(raw) is not str or not BULK_SHAPE.fullmatch(raw):
        return None
    try:
        epoch, _, offset_us = instant(parse_timestamp(raw))
    except ValueError:  # a date, time or offset out of its range
        return None
    return epoch, offset_us // 1_000_000


@st.composite
def bulk_timestamps(draw, zulu=False):
    """A string of the bulk shape, every field a little past its range at times."""
    y, mo, d, h, mi, s = (draw(st.integers(lo, hi)) for lo, hi in
                          [(0, 9999), (0, 13), (0, 32), (0, 24), (0, 60), (0, 60)])
    zone = "Z" if zulu else (draw(st.sampled_from("+-")) + f"{draw(st.integers(0, 24)):02d}:"
                             f"{draw(st.integers(0, 60)):02d}")
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}{zone}"


# what a fixed-width string is resized with, or has a character replaced by
ODD_CHARS = "\n\x00é２0Z"


@st.composite
def bulk_lists(draw):
    """Lists of timestamps for the bulk reader: all of the fixed width, or the same
    with one string cut to 24 characters or grown to 26 (or one cut and the next
    grown, which keeps the total length), with a line feed, NUL or non-ASCII
    character inside one 25-character string; all-Z lists and mixed widths."""
    kind = draw(st.sampled_from(["fixed", "resized", "shifted", "inside", "zulu", "mixed"]))
    if kind == "zulu":
        return draw(st.lists(bulk_timestamps(zulu=True), min_size=1, max_size=8))
    if kind == "mixed":
        return draw(st.lists(st.one_of(bulk_timestamps(), bulk_timestamps(zulu=True),
                                       mutated_timestamps()), min_size=1, max_size=8))
    raws = draw(st.lists(bulk_timestamps(), min_size=2 if kind == "shifted" else 1,
                         max_size=8))
    i = draw(st.integers(0, len(raws) - (2 if kind == "shifted" else 1)))
    char = draw(st.sampled_from(ODD_CHARS))
    if kind == "resized":
        raws[i] = raws[i][:-1] if draw(st.booleans()) else raws[i] + char
    elif kind == "shifted":
        raws[i], raws[i + 1] = raws[i][:-1], char + raws[i + 1]
    elif kind == "inside":
        at = draw(st.integers(0, 24))
        raws[i] = raws[i][:at] + char + raws[i][at + 1:]
    return raws


@settings(max_examples=400, deadline=None)
@given(raws=bulk_lists())
@example(raws=["2013-03-05T10:00:00+01:0", "\n2013-03-05T10:00:00+01:00"])
def test_bulk_reader_matches_the_references(raws):
    valid, epoch, offset = ingest._fixed_instants(raws)
    gathered = gathered_instants(raws)
    assert valid.tolist() == gathered[0].tolist()
    assert epoch.dtype == offset.dtype == np.int64
    assert epoch[valid].tolist() == gathered[1][valid].tolist()
    assert offset[valid].tolist() == gathered[2][valid].tolist()
    expected = [_bulk_reference(raw) for raw in raws]
    assert valid.tolist() == [pair is not None for pair in expected]
    assert list(zip(epoch[valid].tolist(), offset[valid].tolist())) == [
        pair for pair in expected if pair is not None]


# --- the events file: a path, its line ends, byte-order mark and size --------

@pytest.mark.parametrize("source", [b"events.ndjson", bytearray(b"events.ndjson"),
                                    io.BytesIO(b"{}\n"), io.StringIO("{}\n")],
                         ids=["bytes", "bytearray", "BytesIO", "StringIO"])
def test_only_a_path_is_read(source):
    # bytes are not taken for a file name, nor a stream read
    with pytest.raises(TypeError, match=r"expected a str or os\.PathLike path, not "):
        whole_file(source, "ndjson")


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read events file"):
        whole_file(tmp_path / "missing.ndjson", "ndjson")


# Per format, a header (CSV) and rows a-d: a text holding U+2028, which ends
# no line; bytes that are not UTF-8; then two clean rows, the last with no line end
SOURCE_LINES = {
    "ndjson": [b'{"u":"a","t":"2013-03-05T10:07:00Z","lon":1,"lat":2,"text":"x\xe2\x80\xa8y"}',
               b'{"u":"b","t":"2013-03-05T10:08:00Z","lon":1,"lat":2,"text":"bad \xff"}',
               b'{"u":"c","t":"2013-03-05T10:09:00Z","lon":1,"lat":2}',
               b'{"u":"d","t":"2013-03-05T10:10:00Z","lon":1,"lat":2}'],
    "csv": [b'"user_id",timestamp,lon,lat,text',
            b'a,2013-03-05T10:07:00Z,1,2,"x\xe2\x80\xa8y"',
            b"b,2013-03-05T10:08:00Z,1,2,bad \xff",
            b"c,2013-03-05T10:09:00Z,1,2,",
            b"d,2013-03-05T10:10:00Z,1,2,"],
}


def _source_bytes(fmt, line_ends=(b"\n",)):
    """The lines of ``fmt``, each but the last ended by the next of ``line_ends`` in turn."""
    ends = cycle(line_ends)
    return b"".join(line + next(ends) for line in SOURCE_LINES[fmt][:-1]) + SOURCE_LINES[fmt][-1]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
@pytest.mark.parametrize("line_ends", [[b"\n"], [b"\r\n"], [b"\r"], [b"\n", b"\r\n", b"\r"]],
                         ids=["LF", "CRLF", "CR", "mixed"])
def test_every_line_end_ends_a_row_in_a_file(fmt, line_ends):
    batch, report = _parse(_source_bytes(fmt, line_ends), fmt)
    assert batch.user_ids == ("a", "c", "d")
    assert [e.text for e in batch] == ["x\u2028y", None, None]
    assert report.entries == [(2 if fmt == "ndjson" else 3, "invalid utf-8")]
    assert report.total_rows == 4


def test_lone_carriage_return_between_csv_records_splits_them():
    # a reader that splits lines at "\n" only, as io.StringIO does, reads
    # "c\rd,e" as one line and stops: "new-line character seen in unquoted field"
    batch, report = _parse("user_id,timestamp,lon,lat\na,b\nc\rd,e\n", "csv")
    assert len(batch) == 0 and report.total_rows == 3
    assert report.entries == [(2, "bad timestamp 'b'"), (3, "bad timestamp ''"),
                              (4, "bad timestamp 'e'")]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_leading_byte_order_mark_is_skipped(fmt, tmp_path):
    # spreadsheet tools write EF BB BF at the start of a UTF-8 file. The
    # reader skips it and line numbers stay physical; a quoted first header
    # cell still reads as its name. A mark anywhere else is the row's own text.
    data = _source_bytes(fmt, [b"\n", b"\r\n"])
    batch, report = _parse(data, fmt)
    assert batch.user_ids == ("a", "c", "d")
    path = tmp_path / "events"
    path.write_bytes(b"\xef\xbb\xbf" + data)
    for source in (path, str(path)):
        other, other_report = whole_file(source, fmt)
        assert _columns(other) == _columns(batch)
        assert (other_report.entries, other_report.total_rows) == (
            report.entries, report.total_rows)
    if fmt == "ndjson":
        batch, report = _parse(data + b"\n\xef\xbb\xbf" + data.split(b"\n")[0], fmt)
        assert report.entries == [(2, "invalid utf-8"),
                                  (5, "invalid json: Unexpected UTF-8 BOM (decode using utf-8-sig)")]


@pytest.mark.parametrize("line_end", [b"\n", b"\r"])
def test_events_file_is_not_held_whole(line_end, tmp_path):
    # 20,000 rows; reading the file whole and copying it into a StringIO
    # peaked at about five times its size
    data = line_end.join(b'{"u":"u%d","t":"2013-03-05T10:07:00Z","lon":1.5,"lat":2.5}' % (i % 500)
                         for i in range(20000)) + line_end
    path = tmp_path / "events.ndjson"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        batch, _ = whole_file(path, "ndjson")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == 20000
    assert peak < 2 * len(data)


@pytest.mark.parametrize("block_chars", [40, ingest._BLOCK_CHARS])
def test_line_longer_than_a_read_parses_intact(block_chars):
    # a 200,000-character line between two short ones, gathered from many reads
    text = "x" * 200_000
    rows = [{"u": u, "t": "2013-03-05T10:07:00Z", "lon": 1.5, "lat": 2.5, "text": t}
            for u, t in [("a", "short"), ("b", text), ("c", "short")]]
    data = "".join(json.dumps(row) + "\n" for row in rows)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
        batch, report = _parse(data)
    assert report.entries == [] and report.total_rows == 3
    assert [e.text for e in batch] == ["short", text, "short"]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_parse_memory_grows_by_bytes_per_row(tmp_path, fmt):
    # ~52k synth rows holding ~44k distinct timestamp strings. The batch keeps
    # six 8-byte columns (48 B a row, measured 52 B with the user ids); the
    # parse peaks ~0.6 MB above that, one 48 KiB block's objects. A table keyed by
    # timestamp string, kept for the whole parse, adds ~8 MB to the peak here.
    # The CSV copy's 512-row blocks of cells peak about as high (~0.6 MB).
    config = SynthConfig(seed=11, n_zones=100, n_users=1000, events_per_user_per_day=17.0,
                         n_days=3, home_bias=0.3, centre_decay_per_km=0.12)
    events, _ = generate_events(generate_city(config))
    path = tmp_path / "events.ndjson"
    write_events_ndjson(events, path)
    del events
    if fmt == "csv":
        _write_csv_copy(path, tmp_path / "events.csv")
        path = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch, report = whole_file(path, fmt)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(batch)
    assert rows >= 50_000 and report.rejected == 0
    assert kept - before < 64 * rows
    assert peak - kept < 1_000_000


def test_ndjson_writer_peak_grows_by_bytes_per_row(tmp_path):
    # ~52k synth rows. Each column is formatted a block of tables.BLOCK_ROWS
    # rows at a time, so the writer peaks at 2.2 MB traced (42 B a row), most
    # of it np.unique's offset codes. The local-time and optional-field texts
    # of the whole batch, built before the first write, peaked at 9.6 MB
    # (185 B a row).
    config = SynthConfig(seed=11, n_zones=100, n_users=1000, events_per_user_per_day=17.0,
                         n_days=3, home_bias=0.3, centre_decay_per_km=0.12)
    events, _ = generate_events(generate_city(config))
    tracemalloc.start()
    try:
        write_events_ndjson(events, tmp_path / "events.ndjson")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) >= 50_000
    assert peak < 64 * len(events)
