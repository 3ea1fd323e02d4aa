"""Parse geotagged event files, filter to typical workdays, and bin timestamps.

Input is NDJSON (keys ``u,t,lon,lat`` plus optional ``lang,device,text``) or
CSV with a header (``user_id,timestamp,lon,lat`` plus the same optionals).
Timestamps are RFC 3339 with an explicit UTC offset. Malformed rows are
skipped and reported, never fatal; an unreadable source is fatal.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

# Tuesday, Wednesday, Thursday as datetime.weekday() values
WORKDAY_WEEKDAYS = (1, 2, 3)

NDJSON_KEYS = ("u", "t", "lon", "lat")
CSV_COLUMNS = ("user_id", "timestamp", "lon", "lat")
OPTIONAL_FIELDS = ("lang", "device", "text")


@dataclass(frozen=True)
class GeoEvent:
    """One geotagged post: who, when, where (WGS84 degrees)."""

    user_id: str
    timestamp: datetime
    lon: float
    lat: float
    lang: str | None = None
    device: str | None = None
    text: str | None = None


@dataclass
class RejectionReport:
    """Record of skipped input rows: (line number, reason) plus row counts."""

    entries: list[tuple[int, str]] = field(default_factory=list)
    total_rows: int = 0
    parsed: int = 0

    @property
    def rejected(self) -> int:
        return len(self.entries)

    def add(self, line: int, reason: str) -> None:
        self.entries.append((line, reason))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["line", "reason"])
            for line, reason in sorted(self.entries):
                writer.writerow([line, reason])


def get_timezone(tz: str) -> ZoneInfo:
    try:
        return ZoneInfo(tz)
    except (ZoneInfoNotFoundError, ValueError) as exc:
        raise ConfigError(f"unknown timezone id {tz!r}") from exc


def parse_timestamp(raw: str) -> datetime:
    """RFC 3339 timestamp with explicit offset; naive timestamps are rejected."""
    if type(raw) is not str:
        raise ValueError(f"bad timestamp {raw!r}")
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"bad timestamp {raw!r}") from exc
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} has no UTC offset")
    return ts


# Exact type() tests, not isinstance(): json.loads and csv build exact types,
# and bool, a subclass of int, is neither an id nor a coordinate.
def _user_id(value) -> str:
    """A non-empty string, or an integer kept as its decimal string."""
    if type(value) is str and value:
        return value
    if type(value) is int:
        return str(value)
    if value is None or value == "":
        raise ValueError("empty user_id")
    raise ValueError("user_id not a string or integer")


def _coordinate(value, name: str, limit: float) -> float:
    """A finite number in [-limit, limit]; a CSV cell arrives as its string."""
    kind = type(value)
    if kind is not float and kind is not int and kind is not str:
        raise ValueError(f"{name} not a number")
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"{name} not a number") from None
    if not -limit <= number <= limit:  # NaN fails every comparison
        raise ValueError(f"{name} out of range" if math.isfinite(number) else f"{name} not finite")
    return number


def _check_event(user_id, raw_ts, lon, lat, lang, device, text) -> GeoEvent:
    user_id = _user_id(user_id)
    ts = parse_timestamp(raw_ts)
    lon = _coordinate(lon, "lon", 180.0)
    lat = _coordinate(lat, "lat", 90.0)
    return GeoEvent(user_id, ts, lon, lat,
                    lang=lang or None, device=device or None, text=text or None)


def _event_from_json(line: str) -> GeoEvent:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid json: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ValueError("row is not an object")
    missing = [k for k in NDJSON_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    return _check_event(obj["u"], obj["t"], obj["lon"], obj["lat"],
                        obj.get("lang"), obj.get("device"), obj.get("text"))


def _open_text(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        try:
            return open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read events file {source}: {exc}") from exc
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    raise DataError(f"unsupported event source {type(source).__name__}")


def parse_events(source, fmt: str = "ndjson") -> tuple[list[GeoEvent], RejectionReport]:
    """Parse an NDJSON or CSV event source, skipping and reporting bad rows.

    Events keep input order. Rejections carry the physical line number. An
    NDJSON row ends only at ``\\n``, ``\\r\\n`` or ``\\r``, so U+2028, U+0085 and
    other Unicode line breaks inside a JSON string stay in their row. A CSV
    row reports the line on which it ends.
    """
    if fmt not in ("ndjson", "csv"):
        raise ConfigError(f"unknown event format {fmt!r} (expected ndjson or csv)")
    events: list[GeoEvent] = []
    report = RejectionReport()
    with _open_text(source) as fh:
        if fmt == "ndjson":
            for n, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                report.total_rows += 1
                try:
                    events.append(_event_from_json(line))
                except ValueError as exc:
                    report.add(n, str(exc))
        else:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError("csv source has no header row")
            missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise DataError(f"csv header missing column(s): {', '.join(missing)}")
            for row in reader:
                report.total_rows += 1
                try:
                    events.append(_check_event(
                        row.get("user_id"), row.get("timestamp") or "",
                        row.get("lon"), row.get("lat"),
                        row.get("lang"), row.get("device"), row.get("text")))
                except ValueError as exc:
                    report.add(reader.line_num, str(exc))
    report.parsed = len(events)
    if report.rejected:
        logger.warning("rejected %d of %d rows", report.rejected, report.total_rows)
    return events, report


def write_events_ndjson(events: Iterable[GeoEvent], path) -> None:
    """Serialize events to the NDJSON schema; inverse of ndjson parsing."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in events:
            obj = {"u": e.user_id, "t": e.timestamp.isoformat(), "lon": e.lon, "lat": e.lat}
            for name in OPTIONAL_FIELDS:
                value = getattr(e, name)
                if value is not None:
                    obj[name] = value
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def filter_workdays(events: Sequence[GeoEvent], tz: str) -> list[GeoEvent]:
    """Keep events whose local weekday is Tuesday, Wednesday, or Thursday."""
    zone = get_timezone(tz)
    return [e for e in events if e.timestamp.astimezone(zone).weekday() in WORKDAY_WEEKDAYS]


def quarter_bin(timestamp: datetime, tz: str | ZoneInfo) -> int:
    """Quarter-hour bin 0..95 of the local wall-clock time."""
    zone = get_timezone(tz) if isinstance(tz, str) else tz
    local = timestamp.astimezone(zone)
    return (local.hour * 60 + local.minute) // 15
