"""The column generator, truth and NDJSON writer against their per-event references.

``synth_reference`` holds the per-event forms: one ``GeoEvent`` per event
sorted with ``list.sort``, one zones x 96 matrix per home group, one
``json.dumps`` per row. The columns must give the same bytes and bits.
"""

import json
import re
from unittest import mock
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference as reference
from scalar_reference import whole_file
from citypulse import tables
from citypulse.errors import ConfigError
from citypulse.ingest import EventBatch, write_events_ndjson
from citypulse.synth import SynthConfig, generate_city, generate_events

MIX = {"residential": 0.40, "mixed": 0.25, "activity:education": 0.15,
       "activity:retail": 0.10, "activity:office": 0.10}

CONFIGS = {
    "centre decay": dict(seed=9, n_zones=49, n_users=300, centre_decay_per_km=0.12,
                         home_bias=0.3),
    "night event": dict(seed=21, n_zones=30, n_users=400, home_bias=1.0,
                        ensure_night_event=True),
    # ids past u99999 sort as strings: "u100000" < "u10001"
    "many users": dict(seed=11, n_zones=25, n_users=120_000, events_per_user_per_day=0.02),
    # Wednesday 2012-03-21 00:00-01:00 does not exist in Tehran; every bin carries mass
    "dst gap": dict(seed=3, n_zones=16, n_users=400, timezone="Asia/Tehran",
                    start_date=date(2012, 3, 20), intensities={k: np.ones(96) for k in MIX}),
    # Thursday 2012-09-20 23:00-24:00 happens twice in Tehran
    "dst overlap": dict(seed=4, n_zones=16, n_users=400, timezone="Asia/Tehran",
                        start_date=date(2012, 9, 18)),
    "one zone": dict(seed=4, n_zones=1, n_users=60, class_mix={"residential": 1.0}),
}
# a line each config must write for it to test what it is there for
WITNESS = {"dst gap": rb'"t": "2012-03-21T00:', "dst overlap": rb'"t": "2012-09-20T23:',
           "many users": rb'"u": "u\d{6}"'}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_columns_match_per_event_reference(name, tmp_path):
    city = generate_city(SynthConfig(**CONFIGS[name]))
    batch, truth = generate_events(city)
    events, expected = reference.generate_events(city)

    write_events_ndjson(batch, tmp_path / "columns.ndjson")
    reference.write_events_ndjson(events, tmp_path / "reference.ndjson")
    text = (tmp_path / "columns.ndjson").read_bytes()
    assert text == (tmp_path / "reference.ndjson").read_bytes()
    assert re.search(WITNESS.get(name, b""), text)
    # isoformat, not ==: a ZoneInfo time in a repeated hour equals no other zone's time
    assert ([(e.user_id, e.timestamp.isoformat(), e.lon, e.lat) for e in batch]
            == [(e.user_id, e.timestamp.isoformat(), e.lon, e.lat) for e in events])

    for field in ("expected_quarter", "expected_slots"):
        assert getattr(truth, field).tobytes() == getattr(expected, field).tobytes(), field
    for field in ("profiles", "slot_class_totals"):
        ours, theirs = getattr(truth, field), getattr(expected, field)
        assert list(ours) == list(theirs)
        assert all(ours[k].tobytes() == theirs[k].tobytes() for k in ours), field
    assert truth.homes == expected.homes


def test_local_mean_time_offset_is_a_config_error():
    # Madrid kept local mean time, -00:14:44, until 1901; RFC 3339 cannot write it
    city = generate_city(SynthConfig(seed=1, n_zones=16, n_users=10,
                                     events_per_user_per_day=2.0, n_days=1,
                                     start_date=date(1890, 3, 4)))
    with pytest.raises(ConfigError, match="-884 s off UTC"):
        generate_events(city)


def test_batch_equals_the_parse_of_its_file(tmp_path):
    city = generate_city(SynthConfig(**CONFIGS["dst overlap"]))
    batch, _ = generate_events(city)
    write_events_ndjson(batch, tmp_path / "events.ndjson")
    parsed, report = whole_file(tmp_path / "events.ndjson", "ndjson")
    assert report.rejected == 0
    assert parsed.user_ids == batch.user_ids
    for name in ("users", "epoch", "micro", "offset_us", "lon", "lat"):
        assert getattr(parsed, name).tobytes() == getattr(batch, name).tobytes(), name


def test_iterating_yields_fixed_offset_rows():
    city = generate_city(SynthConfig(**CONFIGS["dst gap"]))
    batch, _ = generate_events(city)
    offsets = {e.timestamp.utcoffset() for e in batch}
    assert offsets == {timedelta(hours=3, minutes=30), timedelta(hours=4, minutes=30)}
    assert all(type(e.timestamp.tzinfo) is timezone for e in batch)


# UTC instants a batch may hold, in epoch seconds: [0001-01-02, 9999-12-31)
FIRST_S = (datetime(1, 1, 2) - datetime(1970, 1, 1)) // timedelta(seconds=1)
END_S = (datetime(9999, 12, 31) - datetime(1970, 1, 1)) // timedelta(seconds=1)
DAY_S = 86_400

epochs = st.one_of(st.integers(FIRST_S, FIRST_S + 2 * DAY_S), st.integers(END_S - 2 * DAY_S,
                   END_S - 1), st.integers(FIRST_S, END_S - 1))
micros = st.one_of(st.just(0), st.integers(0, 999_999))
offsets = st.one_of(
    st.integers(-1439, 1439).map(lambda m: m * 60_000_000),  # whole minutes
    st.integers(-86_399, 86_399).map(lambda s: s * 1_000_000),  # with seconds
    st.integers(-86_399_999_999, 86_399_999_999))  # with microseconds
texts = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u2028\u2029\u00e9\U0001f600'),
                          st.characters(exclude_categories=("Cs",))), max_size=12)
coordinates = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def batches(draw):
    user_ids = draw(st.lists(texts.filter(bool), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    optional = {}
    for name in ("lang", "device", "text"):
        if draw(st.booleans()):
            optional[name] = np.empty(n, dtype=object)
            optional[name][:] = draw(st.lists(st.none() | texts.filter(bool),
                                              min_size=n, max_size=n))
    users, epoch, micro, offset_us = (column(st.integers(0, len(user_ids) - 1), np.int64),
                                      column(epochs, np.int64), column(micros, np.int64),
                                      column(offsets, np.int64))
    return EventBatch(tuple(user_ids), users, epoch, column(coordinates, np.float64),
                      column(coordinates, np.float64),
                      {"micro": micro, "offset_us": offset_us, **optional})


@settings(max_examples=200, deadline=None)
@given(batches())
def test_writer_matches_json_dumps_per_row(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("writer")
    write_events_ndjson(batch, path / "columns.ndjson")
    reference.write_events_ndjson(list(batch), path / "reference.ndjson")
    assert (path / "columns.ndjson").read_bytes() == (path / "reference.ndjson").read_bytes()


@settings(max_examples=100, deadline=None)
@given(batch=batches(), block=st.sampled_from([1, 2, 5]))
def test_writer_blocks_join_to_the_per_row_text(tmp_path_factory, batch, block):
    # every column is formatted a block of rows at a time; the blocks, some
    # with a fine time or an optional field and some without, join to the
    # per-row text
    path = tmp_path_factory.mktemp("blocks")
    with mock.patch.object(tables, "BLOCK_ROWS", block):
        write_events_ndjson(batch, path / "columns.ndjson")
    reference.write_events_ndjson(list(batch), path / "reference.ndjson")
    assert (path / "columns.ndjson").read_bytes() == (path / "reference.ndjson").read_bytes()


def test_writer_prints_offsets_and_years_as_isoformat(tmp_path):
    rows = [("0001-01-01T00:00:00.000001-23:59:59.999999", FIRST_S, 0, -86_399_999_999),
            ("9999-12-31T23:59:58+23:59:59", END_S - 1, 0, 86_399_000_000),
            ("2013-03-05T10:00:00.500000+01:00", 1362474000, 500_000, 3_600_000_000),
            ("2013-03-05T09:00:00-00:00:00.000001", 1362474000, 1, -1),
            ("2013-03-05T09:00:00+00:00", 1362474000, 0, 0)]
    n = len(rows)
    epoch, micro, offset_us = (np.array(col, dtype=np.int64) for col in list(zip(*rows))[1:])
    batch = EventBatch(("u",), np.zeros(n, dtype=np.int64), epoch, np.zeros(n), np.zeros(n),
                       {"micro": micro, "offset_us": offset_us})
    write_events_ndjson(batch, tmp_path / "events.ndjson")
    lines = (tmp_path / "events.ndjson").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["t"] for line in lines] == [t for t, *_ in rows]
