"""A run streams its events: blocks of parsed rows go through the workday
filter and the zone join at once, and only their codes are kept.

The whole-file batch (``scalar_reference.whole_file``, then one workday
filter and one zone join) is the reference: the streamed codes, the counts read off
their one sorted key and the homes must equal what it gives, whatever the
block size.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse import activity, cli, ingest, pipeline, stats
from citypulse.activity import DEFAULT_SLOTS, N_QUARTER_BINS
from citypulse.config import PipelineConfig
from citypulse.spatial import Zone, ZoneTable, build_zone_index
from citypulse.stats import DEFAULT_NIGHT_BINS
from citypulse.synth import SynthConfig, city_geojson, generate_city, generate_events

from scalar_reference import dedup_matrix, quarter_matrix, whole_file

REPO = Path(__file__).resolve().parents[1]
TZ = "Europe/Madrid"


def square(x: float, y: float):
    return (((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)),)


# four unit squares; a point at lon 5 lies outside every one
ZONES = ZoneTable.from_zones([Zone(z, square(x, y), area_ha=1.0) for z, x, y in (
    ("a", 0, 0), ("b", 1, 0), ("c", 0, 1), ("d", 1, 1))])
INDEX = build_zone_index(ZONES)
# 2013-03-04 is a Monday: the days run Monday to Saturday, three of them workdays
FIRST_DAY = datetime(2013, 3, 4, tzinfo=timezone(timedelta(hours=1)))

rows = st.fixed_dictionaries({
    "user": st.integers(0, 5),
    "day": st.integers(0, 5),
    "minute": st.integers(0, 24 * 60 - 1),
    "lon": st.sampled_from([0.5, 1.5, 5.0]),
    "lat": st.sampled_from([0.5, 1.5]),
    "fault": st.sampled_from([None] * 6 + ["lat", "timestamp", "line"]),
})


def write_events(path: Path, fmt: str, drawn: list[dict]) -> None:
    """The drawn rows as an events file; the last row's user is seen nowhere before it."""
    lines = []
    for i, row in enumerate(drawn):
        user = "late" if i == len(drawn) - 1 else f"u{row['user']}"
        stamp = (FIRST_DAY + timedelta(days=row["day"], minutes=row["minute"])).isoformat()
        lat = row["lat"]
        if row["fault"] == "timestamp":
            stamp = stamp[:10]
        if fmt == "ndjson":
            line = json.dumps({"u": user, "t": stamp, "lon": row["lon"], "lat": lat})
            if row["fault"] == "lat":
                line = line.replace('"lat"', '"lat_"')
            lines.append("{" if row["fault"] == "line" else line)
        else:
            lines.append(",".join([user, stamp, str(row["lon"]),
                                   "x" if row["fault"] in ("lat", "line") else str(lat)]))
    header = ["user_id,timestamp,lon,lat"] if fmt == "csv" else []
    path.write_text("".join(line + "\n" for line in header + lines), encoding="utf-8")


def whole_batch(path: Path, fmt: str):
    """The reference: the file parsed as one batch, then one workday filter and one zone join."""
    batch, report = whole_file(path, fmt)
    workdays = ingest.filter_workdays(batch, TZ)
    assigned, unassigned, _ = pipeline.assign_events(workdays, INDEX, TZ)
    return assigned, report, len(workdays), unassigned


def homes_by_dict_count(events: activity.AssignedEvents, residential) -> dict[str, str]:
    """Home inference over (user, zone, bin) tuples: night and total counts per pair."""
    night, total = {}, {}
    for u, z, b in zip(events.users.tolist(), events.zones.tolist(), events.bins.tolist()):
        user, zone = events.user_ids[u], events.zone_ids[z]
        total[user, zone] = total.get((user, zone), 0) + 1
        if b in DEFAULT_NIGHT_BINS and zone in residential:
            night[user, zone] = night.get((user, zone), 0) + 1
    best = {}
    for (user, zone), count in night.items():
        best[user] = min(best.get(user, (math.inf,)), (-count, -total[user, zone], zone))
    return {user: best[user][2] for user in sorted(best)}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=st.lists(rows, max_size=40), fmt=st.sampled_from(["ndjson", "csv"]))
def test_streamed_events_match_the_whole_batch(tmp_path_factory, data, drawn, fmt):
    path = tmp_path_factory.mktemp("stream") / f"events.{fmt}"
    write_events(path, fmt, drawn)
    expected, expected_report, workdays, unassigned = whole_batch(path, fmt)
    parsed = expected_report.parsed
    # blocks of one row, and blocks that end one row before, at or one row
    # after the last row; every chunk and CSV block holds a row or two, so
    # the blocks end where the block size asks
    block_rows = data.draw(st.sampled_from([1, 2, max(parsed - 1, 1), max(parsed, 1), parsed + 1])
                           | st.integers(1, max(parsed, 1)), label="block_rows")
    with mock.patch.object(ingest, "EVENT_BLOCK_ROWS", block_rows), \
            mock.patch.object(ingest, "_BLOCK_CHARS", 64), \
            mock.patch.object(ingest, "_CSV_BLOCK_ROWS", 2):
        located, report = pipeline.parse_events_file(path, fmt, INDEX, TZ)
    assigned = located.finish()

    assert (report.entries, report.total_rows, report.parsed) == (
        expected_report.entries, expected_report.total_rows, expected_report.parsed)
    assert (located.workdays, located.unassigned) == (workdays, unassigned)
    assert tuple(assigned.user_ids) == expected.user_ids
    assert assigned.zone_ids == expected.zone_ids
    for name, dtype in (("users", np.int32), ("zones", np.int32), ("bins", np.int8)):
        column = getattr(assigned, name)
        assert column.dtype == dtype and column.tolist() == getattr(expected, name).tolist(), name

    # the counts off the streamed codes' one sorted key, read in parts of a
    # few entries so that runs of a pair span parts, against the dense
    # reference of the whole batch's codes
    slot_of = np.full(N_QUARTER_BINS, -1)
    for i, slot in enumerate(DEFAULT_SLOTS):
        slot_of[slot.bins] = i
    residential = {"a", "d"}
    key_chunk = data.draw(st.sampled_from([1, 2, 3, activity.KEY_CHUNK]), label="key_chunk")
    with mock.patch.object(activity, "KEY_CHUNK", key_chunk):
        quarter = quarter_matrix(activity.count_unique_users(assigned)).counts
        slots = activity.aggregate_major_slots(assigned).counts
        days = activity.count_daily_unique(assigned).counts
        homes = stats.infer_homes(assigned, DEFAULT_NIGHT_BINS, residential)
    assert quarter.tolist() == dedup_matrix(expected, expected.bins, N_QUARTER_BINS).tolist()
    assert slots.tolist() == dedup_matrix(
        expected, slot_of[expected.bins], len(DEFAULT_SLOTS)).tolist()
    assert days.tolist() == dedup_matrix(expected, np.zeros_like(expected.bins), 1).tolist()
    assert homes == homes_by_dict_count(expected, residential)


def test_a_run_imports_no_numpy_ma(tmp_path):
    # numpy 2.4's np.unique calls np.ma.is_masked, whose import costs a fresh
    # process 15-17 ms and 1.25 MB; a run finds distinct values by a sort and
    # a neighbour test instead
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "4", "--n-zones", "49",
                     "--n-users", "300", "--events-per-day", "8", "--centre-decay", "0.1"]) == 0
    script = ("import sys\n"
              "from citypulse import cli\n"
              f"assert cli.main(['run', '--config', {str(tmp_path / 'pipeline.config')!r}]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert (tmp_path / "run" / "manifest.json").is_file()
    assert result.stdout.splitlines()[-1] == "False"


def run_traced(config: PipelineConfig) -> tuple[int, int]:
    """The traced peak of one run_pipeline call above what was traced before it, and its events."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = pipeline.run_pipeline(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, result.manifest["counts"]["events_parsed"]


def test_run_memory_grows_by_bytes_per_event(tmp_path, monkeypatch):
    # two cities on the same zones, one with twice the events of the other
    # (~53k and ~106k). A streamed run holds the (user, zone, bin) codes, 9 B
    # an event, and while it counts one sorted int64 key: measured 16.8 B an
    # added event. The whole file parsed as one batch first (blocks as large
    # as the file) holds its 24 B an event of columns through the zone join
    # on top of the parse's own: 42.6 B. The passes are shrunk so that their fixed temporaries stay small
    # next to what grows with the events; at their own sizes a block's
    # parse, ~3 MB traced, still set the smaller city's peak.
    from citypulse import spatial
    monkeypatch.setattr(ingest, "EVENT_BLOCK_ROWS", 4096)
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", 8192)
    monkeypatch.setattr(ingest, "LOCAL_CHUNK", 4096)
    monkeypatch.setattr(spatial, "LOCATE_CHUNK", 1024)
    monkeypatch.setattr(spatial, "PAIR_EDGE_BUDGET", 1 << 14)
    monkeypatch.setattr(activity, "KEY_CHUNK", 4096)
    runs = {}
    for name, per_day in (("single", 10.0), ("double", 20.0)):
        city = generate_city(SynthConfig(seed=3, n_zones=64, n_users=1800, n_days=3,
                                         events_per_user_per_day=per_day, home_bias=0.3,
                                         centre_decay_per_km=0.1))
        events, _ = generate_events(city)
        root = tmp_path / name
        root.mkdir()
        (root / "zones.geojson").write_text(json.dumps(city_geojson(city)), encoding="utf-8")
        ingest.write_events_ndjson(events, root / "events.ndjson")
        del events
        config = PipelineConfig(events_path=root / "events.ndjson",
                                zones_path=root / "zones.geojson", output_dir=root / "out",
                                timezone=city.config.timezone, centre_lon=city.centre.lon,
                                centre_lat=city.centre.lat)
        runs[name] = run_traced(config)
        with mock.patch.object(ingest, "EVENT_BLOCK_ROWS", math.inf):
            runs[name, "whole"] = run_traced(config)
    (single, n), (double, n2) = runs["single"], runs["double"]
    assert n >= 50_000 and n2 > 1.9 * n
    assert (double - single) / (n2 - n) <= 20
    (single, _), (double, _) = runs["single", "whole"], runs["double", "whole"]
    assert (double - single) / (n2 - n) > 20
