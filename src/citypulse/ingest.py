"""Parse geotagged event files, filter to typical workdays, and bin timestamps.

Input is NDJSON (keys ``u,t,lon,lat`` plus optional ``lang,device,text``) or
CSV with a header (``user_id,timestamp,lon,lat`` plus the same optionals).
Timestamps are RFC 3339 with an explicit UTC offset. Malformed rows are
skipped and reported, never fatal; an unreadable source is fatal.

Parsing yields one :class:`EventBatch`: parallel numpy columns (interned user
codes, UTC epoch seconds, lon, lat) that every later stage works on whole.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

# Tuesday, Wednesday, Thursday as datetime.weekday() values
WORKDAY_WEEKDAYS = (1, 2, 3)

NDJSON_KEYS = ("u", "t", "lon", "lat")
CSV_COLUMNS = ("user_id", "timestamp", "lon", "lat")
OPTIONAL_FIELDS = ("lang", "device", "text")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_MICROSECOND = timedelta(microseconds=1)
# UTC instants a batch may hold: a day inside datetime's range at each end, so
# that the instant stays a datetime under every UTC offset (all under 24 h)
_FIRST_US = (datetime(1, 1, 2, tzinfo=timezone.utc) - _EPOCH) // _MICROSECOND
_END_US = (datetime(9999, 12, 31, tzinfo=timezone.utc) - _EPOCH) // _MICROSECOND
_DAY_S = 86_400
_QUARTER_S = 900
# 1970-01-01 was a Thursday
_EPOCH_WEEKDAY = 3

# Reading with errors="surrogateescape" maps each byte that is not valid UTF-8
# to one of these code points, and valid UTF-8 never decodes to them.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


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


@dataclass(frozen=True)
class EventBatch:
    """Events as parallel columns; row i is the i-th accepted input row.

    ``users`` holds codes into ``user_ids``. ``epoch`` (floor seconds) and
    ``micro`` give the UTC instant; ``offset_us`` is the UTC offset the input
    wrote, kept so that :meth:`events` prints every timestamp back as parsed.
    ``optional`` maps each of ``lang``/``device``/``text`` that some row
    carries to an object column holding a string or None per row.
    """

    user_ids: tuple[str, ...]
    users: np.ndarray  # int64
    epoch: np.ndarray  # int64
    micro: np.ndarray  # int64
    offset_us: np.ndarray  # int64
    lon: np.ndarray  # float64
    lat: np.ndarray  # float64
    optional: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.users)

    def take(self, rows: np.ndarray) -> EventBatch:
        """The rows picked by a boolean mask or an index array, in that order."""
        return EventBatch(self.user_ids, self.users[rows], self.epoch[rows], self.micro[rows],
                          self.offset_us[rows], self.lon[rows], self.lat[rows],
                          {name: col[rows] for name, col in self.optional.items()})

    def events(self) -> Iterator[GeoEvent]:
        """Rebuild the rows as :class:`GeoEvent` values, each with its input offset."""
        zones: dict[int, timezone] = {}
        columns = [self.optional.get(name) for name in OPTIONAL_FIELDS]
        rows = zip(self.users.tolist(), self.epoch.tolist(), self.micro.tolist(),
                   self.offset_us.tolist(), self.lon.tolist(), self.lat.tolist())
        for i, (user, epoch, micro, offset, lon, lat) in enumerate(rows):
            tz = zones.get(offset)
            if tz is None:
                tz = zones[offset] = timezone(timedelta(microseconds=offset))
            local = _NAIVE_EPOCH + timedelta(seconds=epoch, microseconds=micro + offset)
            yield GeoEvent(self.user_ids[user], local.replace(tzinfo=tz), lon, lat,
                           *(None if col is None else col[i] for col in columns))

    @classmethod
    def from_events(cls, events: Iterable[GeoEvent]) -> EventBatch:
        """Columns of already-parsed events, e.g. from the synthetic generator."""
        builder = _BatchBuilder()
        for e in events:
            builder.append(e.user_id, builder.add_time(e.timestamp), e.lon, e.lat,
                           e.lang, e.device, e.text)
        return builder.finish()


class _BatchBuilder:
    """Appends checked rows to typed columns; each distinct timestamp is parsed once."""

    def __init__(self):
        self._user_code: dict[str, int] = {}
        self._users = array("q")
        self._times = array("q")  # row -> index into the three time tables
        self._lon = array("d")
        self._lat = array("d")
        self._time_code: dict[str, int] = {}
        self._epoch = array("q")
        self._micro = array("q")
        self._offset = array("q")
        self._optional: list[tuple[int, tuple]] = []

    def add_time(self, ts: datetime) -> int:
        us = (ts - _EPOCH) // _MICROSECOND
        if not _FIRST_US <= us < _END_US:
            raise ValueError("timestamp out of range")
        self._epoch.append(us // 1_000_000)
        self._micro.append(us % 1_000_000)
        self._offset.append(ts.utcoffset() // _MICROSECOND)
        return len(self._epoch) - 1

    def time_of(self, raw) -> int:
        code = self._time_code.get(raw) if type(raw) is str else None
        if code is None:
            code = self._time_code[raw] = self.add_time(parse_timestamp(raw))
        return code

    def append(self, user_id: str, time: int, lon: float, lat: float,
               lang: str | None, device: str | None, text: str | None) -> None:
        if lang is not None or device is not None or text is not None:
            self._optional.append((len(self._users), (lang, device, text)))
        self._users.append(self._user_code.setdefault(user_id, len(self._user_code)))
        self._times.append(time)
        self._lon.append(lon)
        self._lat.append(lat)

    def add_row(self, user_id, raw_ts, lon, lat, lang, device, text) -> None:
        """Check one row's fields in input order and append it; ValueError names the fault."""
        user_id = _user_id(user_id)
        time = self.time_of(raw_ts)
        lon = _coordinate(lon, "lon", 180.0)
        lat = _coordinate(lat, "lat", 90.0)
        self.append(user_id, time, lon, lat, _optional(lang, "lang"),
                    _optional(device, "device"), _optional(text, "text"))

    def finish(self) -> EventBatch:
        times = np.frombuffer(self._times, dtype=np.int64)
        n = len(times)
        optional: dict[str, np.ndarray] = {}
        if self._optional:
            rows = np.fromiter((row for row, _ in self._optional), dtype=np.int64,
                               count=len(self._optional))
            for k, name in enumerate(OPTIONAL_FIELDS):
                values = [fields[k] for _, fields in self._optional]
                if any(v is not None for v in values):
                    col = np.full(n, None, dtype=object)
                    col[rows] = values
                    optional[name] = col
        return EventBatch(
            tuple(self._user_code),
            np.frombuffer(self._users, dtype=np.int64),
            np.frombuffer(self._epoch, dtype=np.int64)[times],
            np.frombuffer(self._micro, dtype=np.int64)[times],
            np.frombuffer(self._offset, dtype=np.int64)[times],
            np.frombuffer(self._lon, dtype=np.float64),
            np.frombuffer(self._lat, dtype=np.float64),
            optional)


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
    except OverflowError:  # an integer beyond float's range
        raise ValueError(f"{name} out of range") from None
    if not -limit <= number <= limit:  # NaN fails every comparison
        raise ValueError(f"{name} out of range" if math.isfinite(number) else f"{name} not finite")
    return number


def _optional(value, name: str) -> str | None:
    """A string; None, absent and "" all mean no value."""
    if type(value) is str:
        return value or None
    if value is None:
        return None
    raise ValueError(f"{name} not a string")


def _undecodable(text: str) -> bool:
    return not text.isascii() and _UNDECODABLE.search(text) is not None


def _open_text(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        try:
            return open(source, "r", encoding="utf-8", errors="surrogateescape", newline="")
        except OSError as exc:
            raise DataError(f"cannot read events file {source}: {exc}") from exc
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8", "surrogateescape"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8", "surrogateescape")
        return io.StringIO(data)
    raise DataError(f"unsupported event source {type(source).__name__}")


def _parse_ndjson(fh: IO[str], builder: _BatchBuilder, report: RejectionReport) -> None:
    loads, add_row = json.loads, builder.add_row
    for n, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        report.total_rows += 1
        try:
            if _undecodable(line):
                raise ValueError("invalid utf-8")
            try:
                obj = loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid json: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise ValueError("row is not an object")
            missing = [k for k in NDJSON_KEYS if k not in obj]
            if missing:
                raise ValueError(f"missing field {missing[0]!r}")
            add_row(obj["u"], obj["t"], obj["lon"], obj["lat"],
                    obj.get("lang"), obj.get("device"), obj.get("text"))
        except ValueError as exc:
            report.add(n, str(exc))


def _parse_csv(fh: IO[str], builder: _BatchBuilder, report: RejectionReport) -> None:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataError("csv source has no header row")
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    missing = [c for c in CSV_COLUMNS if c not in position]
    if missing:
        raise DataError(f"csv header missing column(s): {', '.join(missing)}")
    columns = [position.get(name) for name in CSV_COLUMNS + OPTIONAL_FIELDS]
    for row in reader:
        if not row:
            continue
        report.total_rows += 1
        # a short row leaves its last columns empty (None), as csv.DictReader does
        cells = [row[i] if i is not None and i < len(row) else None for i in columns]
        try:
            if any(map(_undecodable, row)):
                raise ValueError("invalid utf-8")
            user_id, raw_ts, lon, lat, lang, device, text = cells
            builder.add_row(user_id, raw_ts or "", lon, lat, lang, device, text)
        except ValueError as exc:
            report.add(reader.line_num, str(exc))


def parse_events(source, fmt: str = "ndjson") -> tuple[EventBatch, RejectionReport]:
    """Parse an NDJSON or CSV event source into one batch, skipping bad rows.

    Every row is checked field by field: the user id, the timestamp (each
    distinct string parsed once; its UTC instant must lie in
    [0001-01-02, 9999-12-31)), lon, lat, then that ``lang``, ``device``
    and ``text`` are strings when present. A row holding bytes that are not
    UTF-8 is rejected as ``invalid utf-8``. Accepted rows keep input order.
    Rejections carry the physical line number. An NDJSON row ends only at
    ``\\n``, ``\\r\\n`` or ``\\r``, so U+2028, U+0085 and other Unicode line
    breaks inside a JSON string stay in their row. A CSV row reports the line
    on which it ends.
    """
    if fmt not in ("ndjson", "csv"):
        raise ConfigError(f"unknown event format {fmt!r} (expected ndjson or csv)")
    builder = _BatchBuilder()
    report = RejectionReport()
    with _open_text(source) as fh:
        (_parse_ndjson if fmt == "ndjson" else _parse_csv)(fh, builder, report)
    batch = builder.finish()
    report.parsed = len(batch)
    if report.rejected:
        logger.warning("rejected %d of %d rows", report.rejected, report.total_rows)
    return batch, report


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


def _utc_offset_s(epoch_s: int, zone: ZoneInfo) -> int:
    return (_EPOCH + timedelta(seconds=epoch_s)).astimezone(zone).utcoffset() // _SECOND


def local_seconds(epoch: np.ndarray, zone: ZoneInfo) -> np.ndarray:
    """Local wall-clock seconds since 1970-01-01 for UTC epoch seconds in ``zone``.

    The zone's offset is looked up once per distinct UTC quarter-hour, at its
    first and last second. Where the two differ (a transition not aligned to
    900 s, such as the end of local mean time) that quarter-hour's events are
    looked up one by one.
    """
    quarters, inverse = np.unique(epoch // _QUARTER_S, return_inverse=True)
    starts = (quarters * _QUARTER_S).tolist()
    first = np.array([_utc_offset_s(s, zone) for s in starts], dtype=np.int64)
    last = np.array([_utc_offset_s(s + _QUARTER_S - 1, zone) for s in starts], dtype=np.int64)
    local = epoch + first[inverse]
    split = np.flatnonzero(first != last)
    if len(split):
        rows = np.flatnonzero(np.isin(inverse, split))
        local[rows] = epoch[rows] + np.array(
            [_utc_offset_s(s, zone) for s in epoch[rows].tolist()], dtype=np.int64)
    return local


def quarter_bins(epoch: np.ndarray, zone: ZoneInfo) -> np.ndarray:
    """Quarter-hour bin 0..95 of each instant's local wall-clock time."""
    return local_seconds(epoch, zone) % _DAY_S // _QUARTER_S


def filter_workdays(events: EventBatch, tz: str) -> EventBatch:
    """The rows whose local weekday is Tuesday, Wednesday, or Thursday, in order.

    The weekday comes from the epoch plus the zone's offset (see
    :func:`local_seconds`); floor division keeps pre-1970 instants right.
    """
    zone = get_timezone(tz)
    weekday = (local_seconds(events.epoch, zone) // _DAY_S + _EPOCH_WEEKDAY) % 7
    return events.take(np.isin(weekday, WORKDAY_WEEKDAYS))


def quarter_bin(timestamp: datetime, tz: str | ZoneInfo) -> int:
    """Quarter-hour bin 0..95 of the local wall-clock time of one timestamp."""
    zone = get_timezone(tz) if isinstance(tz, str) else tz
    local = timestamp.astimezone(zone)
    return (local.hour * 60 + local.minute) // 15
