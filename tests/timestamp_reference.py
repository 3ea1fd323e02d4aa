"""The timestamp grammar read one string at a time, the reference for citypulse's bulk reader.

A timestamp is an RFC 3339 section 5.6 date-time: ``YYYY-MM-DD``, then
``T``, ``t`` or a space, then ``HH:MM:SS``, an optional ``.`` and one or more
digits (cut to microseconds), and ``Z``, ``z`` or ``+HH:MM``/``-HH:MM`` with
HH <= 23 and MM <= 59. Digits are ASCII, nothing surrounds the timestamp, and
the date and time must be valid (no second 60, no hour 24). Its UTC instant
must lie in [0001-01-02, 9999-12-31).

This module uses the standard library alone, and builds every datetime with
the constructor, so it reads alike on every Python version:

    python tests/timestamp_reference.py

prints each case of the tables below with its ``(epoch, micro, offset_us)``
or its rejection reason, one per line.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

_PATTERN = re.compile(r"(\d{4})-(\d{2})-(\d{2})[Tt ](\d{2}):(\d{2}):(\d{2})(?:\.(\d+))?"
                      r"(?:([Zz])|([+-])(\d{2}):(\d{2}))?", re.ASCII)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
FIRST = datetime(1, 1, 2, tzinfo=timezone.utc)
END = datetime(9999, 12, 31, tzinfo=timezone.utc)


def parse_timestamp(raw) -> datetime:
    """The aware datetime of one timestamp; ValueError gives the reason it is refused."""
    bad = ValueError(f"bad timestamp {raw!r}")
    match = _PATTERN.fullmatch(raw) if type(raw) is str else None
    if match is None:
        raise bad
    fields = [int(match[k]) for k in range(1, 7)]
    micro = int((match[7] or "")[:6].ljust(6, "0"))
    tz = None
    if match[8]:
        tz = timezone.utc
    elif match[9]:
        hours, minutes = int(match[10]), int(match[11])
        if hours > 23 or minutes > 59:
            raise bad
        tz = timezone((-1 if match[9] == "-" else 1) * timedelta(hours=hours, minutes=minutes))
    try:
        ts = datetime(*fields, micro, tzinfo=tz)
    except ValueError:
        raise bad from None
    if tz is None:
        raise ValueError(f"timestamp {raw!r} has no UTC offset")
    return ts


def instant(ts: datetime) -> tuple[int, int, int]:
    """(UTC epoch seconds, microsecond, UTC offset in microseconds) of an aware datetime."""
    us = (ts - _EPOCH) // _MICROSECOND
    return us // 1_000_000, us % 1_000_000, ts.utcoffset() // _MICROSECOND


def instant_or_reason(raw):
    """The ``(epoch, micro, offset_us)`` a batch holds for a timestamp, or its rejection reason."""
    try:
        ts = parse_timestamp(raw)
    except ValueError as exc:
        return str(exc)
    if not FIRST <= ts < END:
        return "timestamp out of range"
    return instant(ts)


_LAST_DAYS = [(2013, m, d) for m, d in enumerate(
    [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], start=1)] + [(2012, 2, 29)]
# (timestamp with 1-9 fraction digits, its microseconds): the digits past six are cut
FRACTION_CASES = [(f"2013-03-05T10:00:00.{'123456789'[:n]}{tail}", int(f"{'123456789'[:n]:0<6.6}"))
                  for n in range(1, 10) for tail in ("Z", "+01:00", "-05:30")]
# (timestamp, whether the bulk reader's fixed shape reads its date, time and
# offset at once: YYYY-MM-DDTHH:MM:SS plus Z or +HH:MM, years 0001-9999)
TIMESTAMP_CASES = (
    [("1900-02-29T12:00:00Z", False), ("2000-02-29T12:00:00Z", True),
     ("2012-02-29T12:00:00+01:00", True), ("2013-02-29T12:00:00Z", False)]
    + [(f"{y}-{m:02d}-{d:02d}T12:00:00Z", True) for y, m, d in _LAST_DAYS]
    + [(f"{y}-{m:02d}-{d + 1:02d}T12:00:00Z", False) for y, m, d in _LAST_DAYS]
    + [("2013-03-05T23:59:59+01:00", True), ("2013-03-05T24:00:00+01:00", False),
       ("2013-03-05T23:59:60Z", False), ("2013-03-05T23:60:00Z", False),
       ("2013-03-05T10:00:00+23:59", True), ("2013-03-05T10:00:00-23:59", True),
       ("2013-03-05T10:00:00+24:00", False), ("2013-03-05T10:00:00-00:00", True),
       ("2013-03-05T10:00:00+01:60", False), ("2013-03-05T10:00:00+0100", False),
       ("2013-03-05T10:00:00,01:00", False), ("2013-03-05T10:00:00*01:00", False),
       ("2013-03-05T10:00:00.01:00", False),
       ("2013-03-05T10:00:00Z", True), ("2013-03-05T10:00:00z", False),
       ("2013-03-05t10:00:00Z", False), ("2013-03-05 10:00:00Z", False),
       ("2013-03-05t10:00:00.5z", False), ("2013-03-05 10:00:00.5-05:30", False),
       ("2013-03-05X10:00:00+01:00", False), ("２０１３-03-05T10:00:00Z", False),
       ("2013-03-05T1١:00:00Z", False), ("2013-03-05T10:00:00", False),
       ("2013-03-05T10:00:00.250", False), ("2013-02-30T10:00:00", False),
       ("2013-03-05T24:00:00", False), ("0001-01-01T00:00:00", False),
       ("2013-03-05T10:00:00Z ", False), (" 2013-03-05T10:00:00Z", False),
       ("2013-03-05T10:00:00+01:00\x00", False), ("2013-03-05T10:00:00Z\n", False),
       ("2013-00-05T10:00:00Z", False), ("2013-13-05T10:00:00Z", False),
       ("2013-03-00T10:00:00Z", False), ("+013-03-05T10:00:00Z", False),
       ("0000-12-31T12:00:00Z", False),
       ("0001-01-01T00:00:00Z", True), ("0001-01-02T00:00:00Z", True),
       ("0001-01-02T00:00:00+00:01", True), ("0001-01-02T00:00:00.5Z", False),
       ("0002-01-01T00:00:00+23:59", True), ("0002-01-01T00:00:00-23:59", True),
       ("9998-12-31T23:59:59-23:59", True), ("9998-12-31T23:59:59+23:59", True),
       ("9999-01-01T00:00:00Z", True), ("9999-12-30T23:59:59Z", True),
       ("9999-12-30T23:59:59.999999999Z", False), ("9999-12-31T00:00:00Z", True),
       ("9999-12-30T23:59:59-00:01", True), ("9999-12-31T23:59:59+23:59", True),
       ("1969-12-31T23:59:59Z", True), ("1970-01-01T00:00:00+00:01", True),
       ("1582-10-10T00:00:00Z", True), ("2013-03-05T10:00:00.5Z", False),
       # RFC 3339 forms outside the grammar, and forms that
       # datetime.fromisoformat reads on some Python versions
       ("20130305T100000+00:00", False), ("2013-03-05T10:07+01:00", False),
       ("2013-03-05T10:07:00.Z", False), ("2013-03-05T10:07:00,5Z", False),
       ("2013-03-05T10:07:00+01", False), ("1901-01-01T00:00:00-00:14:44", False),
       ("2013-03-05T10:07:00+01:00:00.5", False), ("2013-03-05", False),
       ("2013-03-05T10", False), ("2013-W10-2T10:00:00Z", False),
       ("2013-064T10:00:00Z", False), ("2013-03-05T10:07:00.5 +01:00", False), ("", False)]
    + [(raw, False) for raw, _ in FRACTION_CASES])


if __name__ == "__main__":
    for raw, _ in TIMESTAMP_CASES:
        print(f"{raw!r}\t{instant_or_reason(raw)}")
