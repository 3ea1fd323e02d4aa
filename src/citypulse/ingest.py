"""Parse geotagged event files, filter to typical workdays, and bin timestamps.

Input is NDJSON (keys ``u,t,lon,lat`` plus optional ``lang,device,text``) or
CSV with a header (``user_id,timestamp,lon,lat`` plus the same optionals).
Timestamps are RFC 3339 with an explicit UTC offset. Malformed rows are
skipped and reported, never fatal; an unreadable file is fatal.

Parsing yields :class:`EventBatch` values: parallel numpy columns (interned
user codes, UTC epoch seconds, lon, lat), the whole file as one batch
(:func:`parse_events`) or a block of rows at a time (:func:`read_event_blocks`),
that every later stage works on whole.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import tables
from .errors import ConfigError, DataError

# Tuesday, Wednesday, Thursday as datetime.weekday() values
WORKDAY_WEEKDAYS = (1, 2, 3)

NDJSON_KEYS = ("u", "t", "lon", "lat")
CSV_COLUMNS = ("user_id", "timestamp", "lon", "lat")
OPTIONAL_FIELDS = ("lang", "device", "text")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
# UTC epoch seconds a batch may hold: a day inside datetime's range at each end,
# so that the instant stays a datetime under every UTC offset (all under 24 h)
_FIRST_S = (datetime(1, 1, 2, tzinfo=timezone.utc) - _EPOCH) // _SECOND
_END_S = (datetime(9999, 12, 31, tzinfo=timezone.utc) - _EPOCH) // _SECOND
_DAY_S = 86_400
_QUARTER_S = 900
# 1970-01-01 was a Thursday
_EPOCH_WEEKDAY = 3

# A UTF-8 byte-order mark (EF BB BF) that opens a file is skipped: the
# readers strip it from the first text they read, so that every other read
# keeps the plain "utf-8" decoder ("utf-8-sig" passes each read through a
# decoder written in Python).
_BOM = "\ufeff"

# Reading with errors="surrogateescape" maps each byte that is not valid UTF-8
# to one of these code points, and valid UTF-8 never decodes to them.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

# float() also reads " 1.5 ", "1_5" and the digits of other scripts, so a
# coordinate string must be ASCII and hold no whitespace and no "_" first
_SPACE = re.compile(r"\s")


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

    ``users`` (int32) holds codes into ``user_ids``, ``epoch`` (int64) the UTC
    instant in floor seconds, ``lon`` and ``lat`` (float64) the point: 24 B an
    event, all that the workday filter and the zone join read.

    ``write_back`` holds the columns that only :func:`write_events_ndjson` and
    iteration read: ``micro`` (int32, the instant's microseconds),
    ``offset_us`` (int64, the UTC offset the input wrote) and each of
    ``lang``/``device``/``text`` that some row carries, as an object column
    holding a string or None per row. Only ``citypulse ingest`` writes events
    back, so the blocks of every other run leave it empty (see
    :func:`read_event_blocks`).
    """

    user_ids: Sequence[str]
    users: np.ndarray  # int32
    epoch: np.ndarray  # int64
    lon: np.ndarray  # float64
    lat: np.ndarray  # float64
    write_back: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def micro(self) -> np.ndarray | None:
        return self.write_back.get("micro")

    @property
    def offset_us(self) -> np.ndarray | None:
        return self.write_back.get("offset_us")

    @property
    def optional(self) -> dict[str, np.ndarray]:
        return {name: self.write_back[name] for name in OPTIONAL_FIELDS if name in self.write_back}

    def __len__(self) -> int:
        return len(self.users)

    def take(self, rows: np.ndarray) -> EventBatch:
        """The rows picked by a boolean mask or an index array, in that order."""
        return EventBatch(self.user_ids, self.users[rows], self.epoch[rows], self.lon[rows],
                          self.lat[rows], {name: col[rows] for name, col in self.write_back.items()})

    def __iter__(self) -> Iterator[GeoEvent]:
        """The rows as :class:`GeoEvent` values, each with its input offset as a fixed tzinfo."""
        zones: dict[int, timezone] = {}
        columns = [self.write_back.get(name) for name in OPTIONAL_FIELDS]
        rows = zip(self.users.tolist(), self.epoch.tolist(), self.micro.tolist(),
                   self.offset_us.tolist(), self.lon.tolist(), self.lat.tolist())
        for i, (user, epoch, micro, offset, lon, lat) in enumerate(rows):
            tz = zones.get(offset)
            if tz is None:
                tz = zones[offset] = timezone(timedelta(microseconds=offset))
            local = _NAIVE_EPOCH + timedelta(seconds=epoch, microseconds=micro + offset)
            yield GeoEvent(self.user_ids[user], local.replace(tzinfo=tz), lon, lat,
                           *(None if col is None else col[i] for col in columns))


class _BatchBuilder:
    """Appends blocks of checked rows to typed columns, one UTC instant and offset per row.

    :meth:`finish` hands the rows gathered so far on as one batch and starts
    the columns anew; the user codes go on from one batch to the next, in
    order of first appearance, and every batch shares the one ``user_ids``
    list. Without ``write_back`` the columns that only the write-back reads
    are not kept.
    """

    def __init__(self, write_back: bool = True):
        self.write_back = write_back
        self._user_code: dict[str, int] = {}
        self.user_ids: list[str] = []
        self._start()

    def _start(self) -> None:
        self._users = array("i")
        self._epoch = array("q")
        self._micro = array("i")
        self._offset = array("q")
        self._lon = array("d")
        self._lat = array("d")
        self._optional: list[tuple[int, list[list | None]]] = []  # (first row, extras) per block

    def __len__(self) -> int:
        return len(self._users)

    def extend(self, users: list[str], epoch: np.ndarray, micro: np.ndarray,
               offset: np.ndarray, lon: np.ndarray, lat: np.ndarray,
               extras: list[list | None]) -> None:
        """Append checked rows: user ids, integer instant columns and float64 coordinates.

        ``extras`` holds a ``lang``/``device``/``text`` column per field (a
        string or None per row), or None where no row has that field.
        """
        extras = [column if column is not None and any(column) else None for column in extras]
        if any(extras) and self.write_back:
            self._optional.append((len(self._users), extras))
        code = self._user_code
        codes = list(map(code.get, users))
        if None in codes:  # new users take the next codes in order of first appearance
            for i in [i for i, c in enumerate(codes) if c is None]:
                user = users[i]
                if user not in code:
                    code[user] = len(code)
                    self.user_ids.append(user)
                codes[i] = code[user]
        self._users.extend(array("i", codes))
        columns = [(self._epoch, epoch), (self._lon, lon), (self._lat, lat)]
        if self.write_back:
            columns += [(self._micro, micro), (self._offset, offset)]
        for column, values in columns:
            column.frombytes(np.ascontiguousarray(values, dtype=column.typecode).view(np.uint8))

    def finish(self) -> EventBatch:
        n = len(self._users)
        write_back: dict[str, np.ndarray] = {}
        if self.write_back:
            write_back["micro"] = np.frombuffer(self._micro, dtype=np.int32)
            write_back["offset_us"] = np.frombuffer(self._offset, dtype=np.int64)
        for k, name in enumerate(OPTIONAL_FIELDS):
            blocks = [(first, extras[k]) for first, extras in self._optional if extras[k]]
            if blocks:
                write_back[name] = column = np.full(n, None, dtype=object)
                for first, values in blocks:
                    column[first:first + len(values)] = values
        batch = EventBatch(
            self.user_ids,
            np.frombuffer(self._users, dtype=np.int32),
            np.frombuffer(self._epoch, dtype=np.int64),
            np.frombuffer(self._lon, dtype=np.float64),
            np.frombuffer(self._lat, dtype=np.float64),
            write_back)
        self._start()
        return batch


@dataclass
class RejectionReport:
    """Record of skipped input rows: (line number, reason) plus row counts."""

    entries: list[tuple[int, str]] = field(default_factory=list)
    total_rows: int = 0
    parsed: int = 0

    @property
    def rejected(self) -> int:
        return len(self.entries)

    def write_csv(self, path) -> None:
        entries = sorted(self.entries)
        tables.write_csv(path, ["line", "reason"], [
            np.array([line for line, _ in entries], dtype=np.int64),
            [reason for _, reason in entries]])


def get_timezone(tz: str) -> ZoneInfo:
    try:
        return ZoneInfo(tz)
    except (ZoneInfoNotFoundError, ValueError) as exc:
        raise ConfigError(f"unknown timezone id {tz!r}") from exc


# The one timestamp shape read in bulk; "Z" in place of the offset reads as
# "+00:00". The arrays below are columns: strings run along the second axis.
_FIXED_SHAPE = "0000-00-00T00:00:00+00:00"
_WIDTH = len(_FIXED_SHAPE)
_ZULU_WIDTH = len("0000-00-00T00:00:00Z")
_SIGN = _FIXED_SHAPE.index("+")
# per character of the shape, the lowest byte allowed there and how far above
# it the others may lie: the ten digits, "+" to "-" (the "," between them is
# ruled out on its own) or the one literal character
_BASE = np.frombuffer(_FIXED_SHAPE.encode("ascii"), dtype=np.uint8).reshape(-1, 1)
_SPAN = np.array([[{"0": 9, "+": 2}.get(c, 0)] for c in _FIXED_SHAPE], dtype=np.uint8)
# the tens and the ones digit of each two-digit field: the year's first and
# last two digits, then month, day, hour, minute, second, offset hour and
# offset minute; and the lowest value and span of the fields from the year on
_DIGITS = [i for i, c in enumerate(_FIXED_SHAPE) if c == "0"]
_TENS, _ONES = _DIGITS[0::2], _DIGITS[1::2]
_LOW = np.array([[1], [1], [1], [0], [0], [0], [0], [0]])
_RANGE = (np.array([[9999], [12], [31], [23], [59], [59], [23], [59]]) - _LOW).astype(np.uint64)
# Calendar tables (numpy's calendar is the proleptic Gregorian one that
# datetime uses): days from 1970-01-01 to 1 January of each year 0-9999, 1 for
# each leap year and 0 for the others, and per common and leap year (rows) the
# length of each month 1-12 and the days before it in its year
_YEAR_START = (np.arange(10_000) - 1970).astype("datetime64[Y]").astype("datetime64[D]").astype(
    np.int64)
_LEAP = np.diff(_YEAR_START, append=_YEAR_START[-1] + 365) - 365
_MONTH_DAYS = np.array([[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31],
                        [0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]])
_MONTH_START = np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS


def _fixed_instants(raws: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UTC epoch seconds and UTC offset seconds of the timestamps of one fixed shape.

    Returns ``(valid, epoch, offset)``. ``valid`` marks the strings of exactly
    the form ``YYYY-MM-DDTHH:MM:SS`` plus ``Z``, ``+HH:MM`` or ``-HH:MM``:
    ASCII digits, a year 0001-9999, a valid date (leap years included) and
    time of day, and an offset under 24 h with minutes under 60. For those
    rows ``epoch`` and ``offset`` hold the instant, which may still lie
    outside a batch's range (:func:`_in_range`); other rows, and every value
    that is not a string, hold no meaningful value.
    """
    try:
        text = "".join(raws)
    except TypeError:  # a value that is not a string reads as "", which never fits
        raws = [raw if type(raw) is str else "" for raw in raws]
        text = "".join(raws)
    n = len(raws)
    size = np.fromiter(map(len, raws), dtype=np.int64, count=n)
    # the strings end to end, one byte per character, every one that is not
    # ASCII read as "?" (and one byte more, so that the buffer is never empty);
    # each string's first 25 bytes, where a shorter or longer one fails on its size
    data = np.frombuffer((text + "\n").encode("ascii", "replace"), dtype=np.uint8)
    start = np.cumsum(size) - size
    chars = data.take(start[:, None] + np.arange(_WIDTH), mode="clip")
    zulu = (size == _ZULU_WIDTH) & (chars[:, _SIGN] == ord("Z"))
    # each byte's rise above the lowest one allowed in its place, one string
    # per column; unsigned, so a byte below that wraps past every span
    rise = np.subtract(chars.T, _BASE, order="C")
    rise[_SIGN:, zulu] = 0
    west = rise[_SIGN] == 2
    valid = (zulu | (size == _WIDTH)) & (rise <= _SPAN).all(axis=0) & (rise[_SIGN] != 1)
    # each two-digit field (0-99 where the digits fit), the year from its halves
    fields = (rise[_TENS] * 10 + rise[_ONES]).astype(np.int64)
    fields[1] += fields[0] * 100
    fields = fields[1:]
    valid &= (np.subtract(fields, _LOW).view(np.uint64) <= _RANGE).all(axis=0)
    fields *= valid  # what does not fit reads as 0000-00-00, which indexes the tables safely
    year, month, day, hour, minute, second, offset_hour, offset_minute = fields
    leap = _LEAP[year]
    valid &= day <= _MONTH_DAYS[leap, month]
    offset = offset_hour * 3600 + offset_minute * 60
    np.negative(offset, out=offset, where=west)
    epoch = ((_YEAR_START[year] + _MONTH_START[leap, month] + day - 1) * _DAY_S
             + (hour * 60 + minute) * 60 + second - offset)
    return valid, epoch, offset


def _in_range(epoch: np.ndarray) -> np.ndarray:
    """Which UTC epoch seconds lie in a batch's range, [0001-01-02, 9999-12-31)."""
    return (epoch >= _FIRST_S) & (epoch < _END_S)


# The timestamp grammar, RFC 3339 section 5.6 date-time: a date, "T", "t" or a
# space, a time of day, an optional fraction of the second, then "Z", "z" or a
# numeric offset, which the pattern leaves optional so that a timestamp
# without one is named as such. Field ranges are left to the bulk reader.
_RFC3339 = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt ]([0-9]{2}:[0-9]{2}:[0-9]{2})"
                      r"(?:\.([0-9]+))?([Zz]|[+-][0-9]{2}:[0-9]{2})?", re.ASCII)


def _rfc3339_instants(raws: list) -> tuple[np.ndarray, list[str | None]]:
    """The grammar step: timestamps off the fixed shape, read through :func:`_fixed_instants`.

    Each string that :data:`_RFC3339` matches whole is rewritten to the fixed
    shape, and its fraction of the second is kept aside, cut to
    microseconds; one :func:`_fixed_instants` call then reads them all.
    Returns the ``(epoch, micro, offset_us)`` columns (int64) and, per
    string, None where it is accepted or the reason it is refused: a bad
    timestamp (no match, or no valid date, time and offset), one that has no
    UTC offset, or one out of range, the first that applies.
    """
    fixed, micro, zoned = [], [], []
    for raw in raws:
        match = _RFC3339.fullmatch(raw) if type(raw) is str else None
        date, clock, fraction, offset = match.groups("") if match else ("",) * 4
        fixed.append(f"{date}T{clock}{offset.upper() or 'Z'}" if match else "")
        micro.append(int(fraction[:6].ljust(6, "0")))
        zoned.append(offset != "")
    valid, epoch, offset = _fixed_instants(fixed)
    reasons = [f"bad timestamp {raw!r}" if not ok
               else f"timestamp {raw!r} has no UTC offset" if not zone
               else None if inside else "timestamp out of range"
               for raw, ok, zone, inside in zip(raws, valid.tolist(), zoned,
                                                _in_range(epoch).tolist())]
    return np.array([epoch, micro, offset * 1_000_000], dtype=np.int64), reasons


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


def _plain(text: str) -> bool:
    """Whether coordinate text may go to float(): ASCII, no whitespace, no "_"."""
    return text.isascii() and "_" not in text and _SPACE.search(text) is None


def _readable(value) -> bool:
    """Whether float() may read a coordinate value: a number or a plain string."""
    kind = type(value)
    return kind is float or kind is int or kind is str and _plain(value)


def _coordinate(value, name: str, limit: float) -> float:
    """A finite number in [-limit, limit]; a CSV cell arrives as its string."""
    if not _readable(value):
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


def _load_row(line: str) -> dict:
    """One NDJSON line as its object; ValueError names the fault."""
    if _undecodable(line):
        raise ValueError("invalid utf-8")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid json: {exc.msg}") from exc
    except ValueError as exc:  # int() refuses a literal beyond sys.get_int_max_str_digits()
        raise ValueError("invalid json: integer too long") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise ValueError("invalid json: nesting too deep") from exc
    if not isinstance(obj, dict):
        raise ValueError("row is not an object")
    return obj


def _check_row(user_id, refusal: str | None, lon, lat, lang, device, text) -> tuple:
    """One row's fields but its timestamp, checked in input order; ValueError names the first fault.

    ``refusal`` is the reason the block's read refused the row's timestamp,
    or None, and counts as the second field.
    """
    user_id = _user_id(user_id)
    if refusal is not None:
        raise ValueError(refusal)
    return (user_id, _coordinate(lon, "lon", 180.0), _coordinate(lat, "lat", 90.0),
            _optional(lang, "lang"), _optional(device, "device"), _optional(text, "text"))


def _decode_lines(numbers: Sequence[int], lines: list[str], rejected: list[tuple[int, str]]
                  ) -> tuple[list[int], list[dict]]:
    """Line numbers and objects of the ``lines`` that hold an object; rejects the rest.

    Each line is decoded on its own by :func:`_load_row`.
    """
    kept, objs = [], []
    for n, line in zip(numbers, lines):
        try:
            objs.append(_load_row(line))
        except ValueError as exc:
            rejected.append((n, str(exc)))
        else:
            kept.append(n)
    return kept, objs


def _proven_objects(text: str) -> list[dict] | None:
    """The objects of a chunk of whole lines, one per line, when it proves that each line is one.

    Strict JSON allows no raw control character in a string, so every raw
    ``"\\r"`` and ``"\\n"`` lies outside strings. The proof, on the chunk with
    a ``"\\n"`` appended if its last line has no line end: every ``"\\r"``
    ends a ``"\\r\\n"``, so the lines end all at ``"\\n"``; as many ``{`` as
    lines, and a ``}`` directly before every line end; no byte that is not
    UTF-8; and one ``json.loads`` of the chunk as an array, a comma put after
    each ``"\\n"`` but the last, that yields one dict per line. The raw
    ``"\\n"`` before each comma keeps the comma, and the ``}`` before that
    line end, outside strings. A dict per line and a ``{`` per line leave no
    ``{`` in a string or a nested object, so each such ``}`` closes a
    top-level object and each inserted comma separates two of them: each line
    holds exactly one, and each equals ``json.loads(line)``. Otherwise None,
    and the caller decodes the chunk's own text line by line (a chunk of lone
    ``"\\r"`` line ends among them).
    """
    if not text.endswith("\n"):
        text += "\n"
    if _undecodable(text):
        return None
    # counted on the UTF-8 bytes, where no byte of a multi-byte character is ASCII
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    # the byte before each line end; a chunk that opens with a line end reads
    # the last byte, a line end too
    last = ends - 1
    if "\r" in text:
        crlf = data[last] == ord("\r")
        if np.count_nonzero(data == ord("\r")) != np.count_nonzero(crlf):
            return None
        last -= crlf
    if np.count_nonzero(data == ord("{")) != len(ends) or not (data[last] == ord("}")).all():
        return None
    try:
        objs = json.loads("[" + text.replace("\n", "\n,")[:-1] + "]")
    except (ValueError, RecursionError):  # JSONDecodeError, an integer too long, deep nesting
        return None
    return objs if len(objs) == len(ends) and set(map(type, objs)) == {dict} else None


_STRING = frozenset({str})
_NUMBER = frozenset({float, int})
_COORDINATE = frozenset({float, int, str})  # np.array(..., float64) reads a str as float() does
_OPTIONAL = frozenset({str, type(None)})


def _flag(suspect: np.ndarray, values: list, kinds: frozenset) -> None:
    """Flag the rows whose value's exact type is not one of ``kinds``."""
    if not set(map(type, values)) <= kinds:
        suspect |= [type(value) not in kinds for value in values]


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (ValueError, OverflowError):
        return math.nan


def _coordinates(values: list, limit: float, suspect: np.ndarray) -> np.ndarray:
    """A coordinate column as float64, flagging rows that are not a number in [-limit, limit].

    A column of JSON numbers takes no test of its own; the strings of any
    other are tested joined, and only a column that fails goes row by row.
    """
    kinds = set(map(type, values))
    if not kinds <= _NUMBER:
        strings = values if kinds == _STRING else [v for v in values if type(v) is str]
        if not (kinds <= _COORDINATE and _plain("".join(strings))):
            misfit = [not _readable(value) for value in values]
            suspect |= misfit
            values = [math.nan if m else value for value, m in zip(values, misfit)]
    try:
        column = np.array(values, dtype=np.float64)
    except (ValueError, OverflowError):  # a string float() refuses, an integer beyond its range
        column = np.array(list(map(_float_or_nan, values)), dtype=np.float64)
    suspect |= ~(np.abs(column) <= limit)  # NaN fails the test
    return column


def _add_rows(builder: _BatchBuilder, numbers: Sequence[int], columns: list[list | None],
              rejected: list[tuple[int, str]]) -> None:
    """Check the field rules on one block's columns and append the accepted rows in order.

    ``columns`` holds the raw user ids, timestamps, lon and lat, then a
    ``lang``/``device``/``text`` column, or None where no row has that field.
    Every timestamp is read by :func:`_fixed_instants`, those off its shape
    or range once more after the grammar step (:func:`_rfc3339_instants`).
    A row that fails a column test, or whose timestamp is refused, goes
    through :func:`_check_row`, which either gives its rejection reason or
    accepts it, as it does an integer user id. A block with no such row goes
    into the builder as it is.
    """
    users, times, raw_lon, raw_lat, *optional = columns
    n = len(users)
    suspect = np.zeros(n, dtype=bool)
    _flag(suspect, users, _STRING)
    if "" in users:
        suspect |= [user == "" for user in users]
    lon = _coordinates(raw_lon, 180.0, suspect)
    lat = _coordinates(raw_lat, 90.0, suspect)
    extras: list[list | None] = [None] * len(OPTIONAL_FIELDS)
    for k, values in enumerate(optional):
        if values is not None:
            _flag(suspect, values, _OPTIONAL)
            if builder.write_back:
                extras[k] = [value or None for value in values]
    valid, epoch, offset = _fixed_instants(times)
    fits = valid & _in_range(epoch)
    if fits.all() and not suspect.any():  # no row for the per-row steps
        builder.extend(users, epoch, np.zeros(n, dtype=np.int32), offset * 1_000_000, lon, lat,
                       extras)
        return
    instants = np.array([epoch, np.zeros(n, dtype=np.int64), offset * 1_000_000])
    refusals: dict[int, str | None] = {}
    misfits = np.flatnonzero(~fits).tolist()
    if misfits:
        instants[:, misfits], reasons = _rfc3339_instants([times[i] for i in misfits])
        refusals = dict(zip(misfits, reasons))
        suspect[misfits] |= [reason is not None for reason in reasons]
    keep = ~suspect
    for i in np.flatnonzero(suspect).tolist():
        try:
            users[i], lon[i], lat[i], *fields = _check_row(
                users[i], refusals.get(i), raw_lon[i], raw_lat[i],
                *(None if column is None else column[i] for column in optional))
        except ValueError as exc:
            rejected.append((numbers[i], str(exc)))
            continue
        keep[i] = True
        for column, value in zip(extras, fields):
            if column is not None:
                column[i] = value
    if not keep.all():
        users, instants = list(compress(users, keep)), instants[:, keep]
        lon, lat = lon[keep], lat[keep]
        extras = [None if column is None else list(compress(column, keep)) for column in extras]
    builder.extend(users, *instants, lon, lat, extras)


# Characters of NDJSON read at a time (~470 rows of 104 characters). Each
# chunk pays a fixed cost, so at city-253k 48 KiB parsed ~8 % faster than
# 24 KiB (median 1.22 against 1.33 s, 6 interleaved parses on a shared 2-CPU
# VM) and 64 KiB no faster than 48. A chunk's objects add ~11 bytes per
# character to the parse's peak: a run's peak RSS went 52.5 → 52.6 MB, and
# at 96 KiB the parse of a 20,000-row file peaks above twice the file's size
_BLOCK_CHARS = 48 * 1024

# One line and its line end: an NDJSON row ends only at "\n", "\r\n" or "\r"
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _chunks(fh: IO[str]) -> Iterator[str]:
    """The text in chunks of whole lines, read ``_BLOCK_CHARS`` characters at a time.

    Each read is cut after its last line end, and the rest waits for the next
    read; so does a ``"\\r"`` that ends a read, which the next one may continue
    as ``"\\r\\n"``. A line longer than a read is gathered from its pieces and
    joined once. The last chunk ends where the text does, line end or not.
    """
    pieces: list[str] = []
    while piece := fh.read(_BLOCK_CHARS):
        cut = max(piece.rfind("\n"), piece.rfind("\r", 0, -1)) + 1
        if cut:
            pieces.append(piece[:cut])
            yield "".join(pieces)
            pieces = [piece[cut:]]
        else:
            pieces.append(piece)
    if rest := "".join(pieces):
        yield rest


def _parse_ndjson(fh: IO[str], builder: _BatchBuilder, report: RejectionReport
                  ) -> Iterator[None]:
    """Parse the rows chunk by chunk into ``builder``; yields after each chunk."""
    first = 1
    for text in _chunks(fh):
        if first == 1:  # the first chunk: a byte-order mark opens no row
            text = text.removeprefix(_BOM)
        rejected: list[tuple[int, str]] = []
        objs = _proven_objects(text)
        if objs is not None:
            numbers: Sequence[int] = range(first, first + len(objs))
            first += len(objs)
        else:
            lines = _LINE.findall(text)
            numbers = [n for n, line in enumerate(lines, start=first) if not line.isspace()]
            first += len(lines)
            lines = [line for line in lines if not line.isspace()]  # blank lines are skipped
            numbers, objs = _decode_lines(numbers, lines, rejected)
        report.total_rows += len(objs) + len(rejected)
        try:  # every object holds the four required keys: with none more, no optional one
            columns = [[obj[key] for obj in objs] for key in NDJSON_KEYS]
            has_optional = sum(map(len, objs)) > len(NDJSON_KEYS) * len(objs)
        except KeyError:  # a row without one is rejected first, naming the first missing key
            missing = [next((k for k in NDJSON_KEYS if k not in obj), None) for obj in objs]
            rejected += [(n, f"missing field {k!r}") for n, k in zip(numbers, missing) if k]
            numbers = [n for n, k in zip(numbers, missing) if k is None]
            objs = [obj for obj, k in zip(objs, missing) if k is None]
            columns = [[obj[key] for obj in objs] for key in NDJSON_KEYS]
            has_optional = True
        if objs:
            columns += [[obj.get(name) for obj in objs] if has_optional else None
                        for name in OPTIONAL_FIELDS]
            _add_rows(builder, numbers, columns, rejected)
        report.entries.extend(sorted(rejected))
        yield


# CSV rows checked at a time, about as many as an NDJSON block holds. On the
# CSV copy of city-253k (257,902 rows) blocks of 128 to 8,192 rows parsed in
# 0.9-1.3 s alike (3 parses each, shared 2-CPU VM); at 512 a ~52k-row parse
# peaks ~0.6 MB above its batch (traced)
_CSV_BLOCK_ROWS = 512


def _parse_csv(fh: IO[str], builder: _BatchBuilder, report: RejectionReport) -> Iterator[None]:
    """The CSV rows, read strictly: a framing fault refuses the whole file, naming its line.

    Parses block by block into ``builder``; yields after each block.
    """
    # the mark leaves the first line, so that a quoted first header cell reads as a name
    first = fh.readline().removeprefix(_BOM)
    reader = csv.reader(chain([first] if first else [], fh), strict=True)
    try:
        yield from _add_csv_rows(reader, builder, report)
    except csv.Error as exc:  # a cell past the field size limit, a stray or unclosed quote
        raise DataError(f"malformed csv: line {reader.line_num}: {exc}") from exc


def _add_csv_rows(reader, builder: _BatchBuilder, report: RejectionReport) -> Iterator[None]:
    header = next(reader, None)
    if header is None:
        raise DataError("csv source has no header row")
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    missing = [c for c in CSV_COLUMNS if c not in position]
    if missing:
        raise DataError(f"csv header missing column(s): {', '.join(missing)}")
    positions = [position.get(name) for name in CSV_COLUMNS + OPTIONAL_FIELDS]
    fill: list[str | None] = [None] * len(header)  # a short row reads None past its end,
    fill[position["timestamp"]] = ""  # and "" for a missing timestamp
    nonblank = filter(None, reader)  # blank rows are skipped; a row keeps the line it ends on
    while block := [(reader.line_num, row) for row in islice(nonblank, _CSV_BLOCK_ROWS)]:
        report.total_rows += len(block)
        rejected: list[tuple[int, str]] = []
        if _undecodable("".join(chain.from_iterable(row for _, row in block))):
            bad = [any(map(_undecodable, row)) for _, row in block]
            rejected = [(n, "invalid utf-8") for n, _ in compress(block, bad)]
            block = [entry for entry, b in zip(block, bad) if not b]
        if block:
            numbers, rows = zip(*block)
            rows = [row if len(row) >= len(fill) else row + fill[len(row):] for row in rows]
            columns = [[row[i] for row in rows] if i is not None else None for i in positions]
            _add_rows(builder, numbers, columns, rejected)
        report.entries.extend(sorted(rejected))
        yield


# Rows a block of a run gathers, whole NDJSON chunks or CSV blocks at a time,
# before it goes through the workday filter and the zone join. On city-253k
# (257,902 rows) blocks of 4,096 rows made run_pipeline ~20 % slower, while
# 16,384 and 65,536 ran within noise of one whole-file batch (8 interleaved
# runs each, shared 2-CPU VM); the block's columns are ~0.4 MB at 16,384 rows
EVENT_BLOCK_ROWS = 1 << 14


def read_event_blocks(path, fmt: str, report: RejectionReport, *,
                      block_rows: float | None = None,
                      write_back: bool = True) -> Iterator[EventBatch]:
    """Parse an NDJSON or CSV events file a block at a time, skipping bad rows.

    Yields a batch each time the rows gathered reach ``block_rows``
    (:data:`EVENT_BLOCK_ROWS` when None; whole NDJSON chunks or CSV blocks
    are gathered, so a block may hold a few hundred rows more), then the
    rest: the last block goes on if it holds rows or is the only one, so a
    ``block_rows`` of ``math.inf`` yields the file as one batch. The blocks
    share one user-code table, so codes keep the order of first appearance
    in the file, and every block's ``user_ids`` is the one list of the codes
    given so far. Without ``write_back`` the blocks leave
    :attr:`EventBatch.write_back` empty. ``report`` gathers the rejections
    and row counts as the blocks go. The rules are those of
    :func:`parse_events`.
    """
    if fmt not in ("ndjson", "csv"):
        raise ConfigError(f"unknown event format {fmt!r} (expected ndjson or csv)")
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError(f"expected a str or os.PathLike path, not {type(path).__name__}")
    if block_rows is None:
        block_rows = EVENT_BLOCK_ROWS
    builder = _BatchBuilder(write_back)
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise DataError(f"cannot read events file {path}: {exc}") from exc
    blocks = 0
    with fh:
        for _ in (_parse_ndjson if fmt == "ndjson" else _parse_csv)(fh, builder, report):
            if len(builder) >= block_rows:
                blocks += 1
                report.parsed += len(builder)
                yield builder.finish()
    if len(builder) or not blocks:
        report.parsed += len(builder)
        yield builder.finish()


def parse_events(path, fmt: str = "ndjson") -> tuple[EventBatch, RejectionReport]:
    """Parse an NDJSON or CSV events file into one batch, skipping bad rows.

    ``path`` is a ``str`` or ``os.PathLike`` (anything else, bytes or a stream
    too, is a TypeError); the file is decoded as it is read, never held whole.
    Every row is checked field by field: the user id, the timestamp (its UTC
    instant must lie in [0001-01-02, 9999-12-31)), lon, lat, then that
    ``lang``, ``device`` and ``text`` are strings when present. A row holding
    bytes that are not UTF-8 is rejected as ``invalid utf-8``. Accepted rows
    keep input order.
    A UTF-8 byte-order mark that opens the file is skipped; line numbers stay
    physical.
    Rejections carry the physical line number. A line ends only at ``\\n``,
    ``\\r\\n`` or ``\\r``, so U+2028, U+0085 and other Unicode line breaks
    inside a JSON string stay in their row. A CSV row reports the line on
    which it ends, and a framing fault, such as a quote left open or a cell
    past csv's field size limit, refuses the whole file as ``malformed
    csv``. Both formats are checked a block at a time (NDJSON lines, CSV
    rows) by one row engine, with the results of a row-by-row parse; this is
    :func:`read_event_blocks` with the file as one block.
    """
    report = RejectionReport()
    (batch,) = read_event_blocks(path, fmt, report, block_rows=math.inf)
    return replace(batch, user_ids=tuple(batch.user_ids)), report


# The text json.dumps(row, ensure_ascii=False) gives one row: user, local time,
# written offset, lon, lat, then the optional fields it holds
_NDJSON_ROW = '{"u": %s, "t": "%s%s", "lon": %r, "lat": %r%s}\n'


def _offset_text(offset_us: int) -> str:
    """A UTC offset as ``datetime.isoformat`` prints it: ``+HH:MM[:SS[.ffffff]]``."""
    tz = timezone(timedelta(microseconds=offset_us))
    return datetime(2000, 1, 1, tzinfo=tz).isoformat()[19:]


def _local_texts(events: EventBatch, rows: slice) -> list[str]:
    """Each row's local wall time as ``isoformat`` prints it, without the offset."""
    local_us = events.epoch[rows] * 1_000_000 + events.micro[rows] + events.offset_us[rows]
    local = local_us.astype("datetime64[us]")
    texts = np.datetime_as_string(local, unit="s")
    fine = np.flatnonzero(local_us % 1_000_000)
    if len(fine):  # isoformat adds .ffffff only where the microsecond is not 0
        texts = texts.astype("U26")
        texts[fine] = np.datetime_as_string(local[fine], unit="us")
    return texts.tolist()


def _optional_texts(events: EventBatch, rows: slice) -> Iterable[str]:
    """Per row, the JSON text of its optional fields (``, "lang": "es"`` and so on)."""
    parts = [["" if v is None else f', "{name}": ' + encode_basestring(v)
              for v in events.optional[name][rows].tolist()]
             for name in OPTIONAL_FIELDS if name in events.optional]
    return map("".join, zip(*parts)) if parts else repeat("")


class EventsWriter:
    """Writes batches to one NDJSON file in order: the inverse of ndjson parsing.

    Each line is the ``json.dumps(..., ensure_ascii=False)`` text of the row's
    object, built from the columns: the local time by ``np.datetime_as_string``,
    each distinct offset of a batch and each user id formatted once, floats by
    ``repr``. One row template is filled, and every column formatted, a block
    of rows at a time, as in :func:`tables.write_csv`. The batches share one
    user-code table, as the blocks of :func:`read_event_blocks` do: each
    user id is formatted once, when a batch first brings it.
    """

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._users: list[str] = []  # each user id as JSON text

    def __enter__(self) -> EventsWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def write(self, events: EventBatch) -> None:
        users = self._users
        users += map(encode_basestring, events.user_ids[len(users):])
        offsets, which = np.unique(events.offset_us, return_inverse=True)
        offset_texts = [_offset_text(offset) for offset in offsets.tolist()]
        columns = [events.users, which.reshape(-1), events.lon, events.lat]
        for lo in range(0, len(events), tables.BLOCK_ROWS):
            rows = slice(lo, lo + tables.BLOCK_ROWS)
            user, offset, lon, lat = (c[rows].tolist() for c in columns)
            self._fh.write("".join(_NDJSON_ROW % row for row in zip(
                map(users.__getitem__, user), _local_texts(events, rows),
                map(offset_texts.__getitem__, offset), lon, lat, _optional_texts(events, rows))))


def write_events_ndjson(events: EventBatch, path) -> None:
    """Serialize a batch to the NDJSON schema (see :class:`EventsWriter`)."""
    with EventsWriter(path) as writer:
        writer.write(events)


def _utc_offset_s(epoch_s: int, zone: ZoneInfo) -> int:
    return (_EPOCH + timedelta(seconds=epoch_s)).astimezone(zone).utcoffset() // _SECOND


def _wall_offset_s(wall_s: int, zone: ZoneInfo) -> int:
    local = _NAIVE_EPOCH + timedelta(seconds=wall_s)
    return local.replace(tzinfo=zone).utcoffset() // _SECOND


def _by_quarter(seconds: np.ndarray, lookup) -> np.ndarray:
    """``lookup(s)`` for each of ``seconds``, called once per distinct quarter-hour.

    Each quarter-hour is looked up at its first and last second. Where the two
    differ (a transition not aligned to 900 s, such as the end of local mean
    time) that quarter-hour's values are looked up one by one.
    """
    quarter = seconds // _QUARTER_S
    # the distinct ones by a neighbour test: np.unique would import numpy.ma
    quarters = np.sort(quarter)
    distinct = np.ones(len(quarters), dtype=bool)
    distinct[1:] = quarters[1:] != quarters[:-1]
    quarters = quarters[distinct]
    inverse = np.searchsorted(quarters, quarter)
    starts = (quarters * _QUARTER_S).tolist()
    first = np.array([lookup(s) for s in starts], dtype=np.int64)
    last = np.array([lookup(s + _QUARTER_S - 1) for s in starts], dtype=np.int64)
    out = first[inverse]
    split = np.flatnonzero(first != last)
    if len(split):
        rows = np.flatnonzero(np.isin(inverse, split))
        out[rows] = np.array([lookup(s) for s in seconds[rows].tolist()], dtype=np.int64)
    return out


def local_seconds(epoch: np.ndarray, zone: ZoneInfo) -> np.ndarray:
    """Local wall-clock seconds since 1970-01-01 for UTC epoch seconds in ``zone``.

    The zone's offset is looked up once per distinct UTC quarter-hour (see
    :func:`_by_quarter`).
    """
    return epoch + _by_quarter(epoch, lambda s: _utc_offset_s(s, zone))


def wall_offsets(wall: np.ndarray, zone: ZoneInfo) -> np.ndarray:
    """UTC offset in seconds of local wall-clock seconds since 1970-01-01 in ``zone``.

    The offset is the one ``datetime(..., tzinfo=zone)`` reads with
    ``fold=0``: a wall time that a transition skips or repeats gets the
    offset in force before it. Looked up once per distinct local
    quarter-hour (see :func:`_by_quarter`).
    """
    return _by_quarter(wall, lambda s: _wall_offset_s(s, zone))


# Rows per pass of the local-time work: each pass's int64 temporaries are
# ~100 KB, whatever the batch size. At city-253k 16,384 rows a pass took
# filter_workdays 12.6 → 9.4 ms and its traced peak 2.4 → 0.8 MiB against
# 65,536 (best of 11 in-process calls).
LOCAL_CHUNK = 1 << 14


def _by_local_seconds(epoch: np.ndarray, zone: ZoneInfo, dtype, of_local) -> np.ndarray:
    """``of_local(local seconds)`` per row as ``dtype``, :data:`LOCAL_CHUNK` rows at a time."""
    out = np.empty(len(epoch), dtype=dtype)
    for lo in range(0, len(epoch), LOCAL_CHUNK):
        hi = lo + LOCAL_CHUNK
        out[lo:hi] = of_local(local_seconds(epoch[lo:hi], zone))
    return out


def quarter_bins(epoch: np.ndarray, zone: ZoneInfo) -> np.ndarray:
    """Quarter-hour bin 0..95 (int8) of each instant's local wall-clock time."""
    return _by_local_seconds(epoch, zone, np.int8, lambda local: local % _DAY_S // _QUARTER_S)


def filter_workdays(events: EventBatch, tz: str) -> EventBatch:
    """The rows whose local weekday is Tuesday, Wednesday, or Thursday, in order.

    A batch whose every row is kept is returned itself, not a copy.

    The weekday comes from the epoch plus the zone's offset (see
    :func:`local_seconds`); floor division keeps pre-1970 instants right.
    """
    zone = get_timezone(tz)
    keep = _by_local_seconds(events.epoch, zone, bool, lambda local: np.isin(
        (local // _DAY_S + _EPOCH_WEEKDAY) % 7, WORKDAY_WEEKDAYS))
    return events if keep.all() else events.take(keep)
