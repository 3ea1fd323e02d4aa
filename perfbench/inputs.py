"""Generate one workload's input files and the oracle its runs are checked against.

Usage: python3 inputs.py WORKLOAD SEED WORKDIR SETUPS RESULT_JSON
(with the repository's ``src`` on PYTHONPATH, from the repository root)

Generates the inputs SETUPS times, timing each, and checks that one seed gives
byte-identical files. The oracle recomputes unique users per (zone,
quarter-hour bin) with numpy from the generated events: the zone from
grid-cell arithmetic on the synth grid, the bin from the event's local wall
clock. It never calls the pipeline's own spatial or activity code. Runs in its
own process so that the generator's memory never counts toward a run's peak.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from datetime import timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from citypulse import ingest, synth
from workloads import WORKLOADS

# Row fates in a mutated CSV.
CLEAN, REDATED, OUTSIDE, MALFORMED = 0, 1, 2, 3

# Each is rejected both by the README's input contract and by the current
# reader; none is one of the timestamp-grammar edge cases still to be settled.
MALFORMED_KINDS = ("missing field", "unparsable timestamp", "offset-less timestamp",
                   "out-of-range coordinate", "non-numeric coordinate", "empty user_id")

TEXTS = ("", "plain words", 'commas, "quotes", and more', "line one\nline two",
         "para\u2028separator", 'all, "of"\nthem\u2028here')
LANGS = ("es", "en", "ca")
DEVICES = ("ios", "android", "web")
CSV_HEADER = ("user_id", "timestamp", "lon", "lat", "lang", "device", "text")


@dataclass
class Inputs:
    """One generated workload: its files, its events, and each event's fate."""

    config_path: Path
    events_path: Path
    city: synth.SynthCity
    events: list
    fate: np.ndarray  # per event: CLEAN, REDATED, OUTSIDE or MALFORMED
    timings: dict[str, float]


def build_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    """Generate and write one workload's input files; times each phase."""
    spec = WORKLOADS[name]
    t0 = time.perf_counter()
    city = synth.generate_city(synth.SynthConfig(seed=seed, **spec["synth"]))
    t1 = time.perf_counter()
    events, _truth = synth.generate_events(city)
    t2 = time.perf_counter()

    zones_path = workdir / "zones.geojson"
    zones_path.write_text(json.dumps(synth.city_geojson(city), ensure_ascii=False),
                          encoding="utf-8")
    if spec["format"] == "csv":
        events_path = workdir / "events.csv"
        fate = _write_messy_csv(events, city, spec["mutate"], seed, events_path)
    else:
        events_path = workdir / "events.ndjson"
        ingest.write_events_ndjson(events, events_path)
        fate = np.zeros(len(events), dtype=np.int8)
    config_path = workdir / "pipeline.config"
    config_path.write_text("\n".join([
        f"events = {events_path}",
        f"zones = {zones_path}",
        f"output_dir = {workdir / 'run'}",
        f"timezone = {city.config.timezone}",
        f"centre_lon = {city.centre.lon}",
        f"centre_lat = {city.centre.lat}",
    ]) + "\n", encoding="utf-8")
    t3 = time.perf_counter()
    return Inputs(config_path, events_path, city, events, fate,
                  {"city_s": t1 - t0, "events_s": t2 - t1, "write_s": t3 - t2,
                   "setup_s": t3 - t0})


def _next_weekday(day, weekday: int):
    return day + timedelta(days=(weekday - day.weekday() - 1) % 7 + 1)


def _write_messy_csv(events, city, shares: dict, seed: int, path: Path) -> np.ndarray:
    """Write events as CSV, mutating seeded shares of rows; returns each row's fate."""
    n = len(events)
    rng = np.random.default_rng([seed, 20130305])
    order = rng.permutation(n)
    fate = np.zeros(n, dtype=np.int8)
    lo = 0
    for kind, share in ((REDATED, shares["redate"]), (OUTSIDE, shares["outside"]),
                        (MALFORMED, shares["malformed"])):
        count = int(round(share * n))
        fate[order[lo:lo + count]] = kind
        lo += count
    west_of_map = city.config.origin_lon - 0.5
    malformed_seen = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i, e in enumerate(events):
            ts, lon, lat, user = e.timestamp, e.lon, e.lat, e.user_id
            if fate[i] == REDATED:  # same wall-clock time on a Fri, Sat, Sun or Mon
                day = _next_weekday(ts.date(), (4, 5, 6, 0)[i % 4])
                ts = ts.replace(year=day.year, month=day.month, day=day.day)
            elif fate[i] == OUTSIDE:
                lon = west_of_map
            stamp = (ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
                     if i % 2 else ts.isoformat())
            row = [user, stamp, repr(lon), repr(lat), LANGS[i % 3], DEVICES[i // 3 % 3],
                   TEXTS[i % len(TEXTS)]]
            if fate[i] == MALFORMED:
                kind = MALFORMED_KINDS[malformed_seen % len(MALFORMED_KINDS)]
                malformed_seen += 1
                if kind == "missing field":
                    row = row[:3]
                elif kind == "unparsable timestamp":
                    row[1] = stamp.replace("T", " at ", 1)
                elif kind == "offset-less timestamp":
                    row[1] = ts.replace(tzinfo=None).isoformat()
                elif kind == "out-of-range coordinate":
                    row[3] = "91.5"
                elif kind == "non-numeric coordinate":
                    row[2] = "west"
                else:
                    row[0] = ""
            writer.writerow(row)
    return fate


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference(inputs: Inputs) -> dict:
    """What every run must produce: unique users per (zone, bin), rows by sorted
    zone_id, from grid arithmetic and local wall clocks; and the manifest funnel."""
    config = inputs.city.config
    zone_ids = inputs.city.zone_ids
    cols = int(math.ceil(math.sqrt(config.n_zones)))
    for i in (0, len(zone_ids) - 1):  # the grid arithmetic below assumes row-major cells
        x0, y0, _, _ = inputs.city.zones[i].bbox()
        r, c = divmod(i, cols)
        if (abs(x0 - (config.origin_lon + c * config.cell_deg)) > 1e-9
                or abs(y0 - (config.origin_lat + r * config.cell_deg)) > 1e-9):
            raise RuntimeError("synth grid layout changed; update the benchmark oracle")

    kept = [e for e, f in zip(inputs.events, inputs.fate) if f == CLEAN]
    lon = np.fromiter((e.lon for e in kept), dtype=float, count=len(kept))
    lat = np.fromiter((e.lat for e in kept), dtype=float, count=len(kept))
    tz = ZoneInfo(config.timezone)
    local = [e.timestamp.astimezone(tz) for e in kept]
    minute = np.fromiter((t.hour * 60 + t.minute for t in local), dtype=np.int64,
                         count=len(kept))
    _, user = np.unique(np.array([e.user_id for e in kept]), return_inverse=True)
    col = np.floor((lon - config.origin_lon) / config.cell_deg).astype(np.int64)
    row = np.floor((lat - config.origin_lat) / config.cell_deg).astype(np.int64)
    zone = row * cols + col
    n_zones = len(zone_ids)
    cell = np.unique((user * n_zones + zone) * 96 + minute // 15) % (n_zones * 96)
    by_index = np.bincount(cell, minlength=n_zones * 96).reshape(n_zones, 96)
    order = sorted(range(n_zones), key=lambda i: zone_ids[i])

    n = len(inputs.events)
    counts = np.bincount(inputs.fate, minlength=4)
    funnel = {"rows_total": n, "rows_rejected": int(counts[MALFORMED]),
              "events_workdays": int(n - counts[MALFORMED] - counts[REDATED]),
              "events_unassigned": int(counts[OUTSIDE])}
    return {"zone_ids": [zone_ids[i] for i in order],
            "matrix": by_index[order].tolist(), "funnel": funnel}


def main(argv: list[str]) -> int:
    name, seed, workdir, setups, result_path = argv[1:6]
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    timings, digests = [], set()
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    inputs = None
    for _ in range(int(setups)):
        inputs = None  # let the previous generation go before the next one
        inputs = build_inputs(name, int(seed), Path(workdir))
        timings.append(inputs.timings)
        digests.add(file_digest(inputs.events_path))
    rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before_kb
    result = {"timings": timings, "deterministic": len(digests) == 1,
              "synth_rss_growth_mb": rss_growth_kb / 1024,
              "config": str(inputs.config_path), "oracle": reference(inputs)}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
