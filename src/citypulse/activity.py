"""Unique-active-user aggregation, per-slot normalization, and land-use profiles.

The unit of analysis is the user, not the post: a user counts at most once per
(zone, time bin) however many events they produce there, which removes the
weight of compulsive posters. Normalization rescales each time bin so the
city-wide total is a fixed constant (100,000 by default), removing the diurnal
swing in overall platform usage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .landuse import class_sums

logger = logging.getLogger(__name__)

N_QUARTER_BINS = 96
NORMALIZATION_TOTAL = 100_000.0

QUARTER_LABELS = tuple(f"bin_{k}" for k in range(N_QUARTER_BINS))


@dataclass(frozen=True)
class MajorSlot:
    """Named aggregate of consecutive quarter-hour bins, inclusive bounds."""

    name: str
    start_bin: int
    end_bin: int

    def __post_init__(self):
        if not (0 <= self.start_bin <= self.end_bin <= N_QUARTER_BINS - 1):
            raise ConfigError(f"slot {self.name!r}: bins must satisfy 0 <= start <= end <= 95")

    @property
    def bins(self) -> range:
        return range(self.start_bin, self.end_bin + 1)


# Morning 08:00-13:59, afternoon 14:00-18:59, evening 19:00-21:59, night
# 22:00-23:59. Early-morning bins (00:00-07:59) belong to no major slot and are
# excluded from slot analyses while staying in the quarter-hour matrix.
DEFAULT_SLOTS: tuple[MajorSlot, ...] = (
    MajorSlot("morning", 32, 55),
    MajorSlot("afternoon", 56, 75),
    MajorSlot("evening", 76, 87),
    MajorSlot("night", 88, 95),
)


def validate_slots(slots: Sequence[MajorSlot]) -> None:
    if not slots:
        raise ConfigError("at least one major slot is required")
    seen: set[int] = set()
    names = [s.name for s in slots]
    if len(set(names)) != len(names):
        raise ConfigError("slot names must be unique")
    for slot in slots:
        overlap = seen.intersection(slot.bins)
        if overlap:
            raise ConfigError(f"slot {slot.name!r} overlaps another slot at bin {min(overlap)}")
        seen.update(slot.bins)


# Zone rows made dense at a time, for activity_matrix.csv and the profiles: a
# block is 192 KiB at 96 bins. On a 4,900-zone city with a third of its cells
# nonzero (3.76 MB as a dense int64 matrix) the profiles peak at 0.92 MB of
# traced memory (0.59 MB at 128 rows, 1.54 MB at 512, 2.78 MB at 1,024) and
# take ~7.3 ms, as at 512 rows; 128 rows took 7.8 ms and 1,024 9.0 ms (medians
# of 30 calls, shared 2-CPU VM)
PROFILE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class QuarterCounts:
    """Unique active users per (zone, quarter-hour bin) cell, kept for the cells
    that have any; rows follow ``zone_ids`` (sorted).

    ``cells`` (int32, ascending) holds ``zone * 96 + bin`` of each such cell
    and ``counts`` (int32) its users. :meth:`blocks` gives the dense
    zones x 96 matrix :data:`PROFILE_BLOCK_ROWS` zone rows at a time.
    """

    zone_ids: tuple[str, ...]
    cells: np.ndarray
    counts: np.ndarray

    def _spans(self):
        """Per block: its first zone row and the slice of the cells that fall in it."""
        n = len(self.zone_ids)
        starts = range(0, n, PROFILE_BLOCK_ROWS)
        # needles of the cells' own dtype: mixed dtypes would copy every cell
        firsts = np.array([*starts, n], dtype=self.cells.dtype) * N_QUARTER_BINS
        bounds = np.searchsorted(self.cells, firsts).tolist()
        return zip(starts, map(slice, bounds, bounds[1:]))

    def column_totals(self) -> np.ndarray:
        """Users per bin summed over every zone, as float64 (exact below 2**53)."""
        totals = np.zeros(N_QUARTER_BINS)
        for _, cells in self._spans():  # a block's cells at a time keeps the casts small
            totals += np.bincount(self.cells[cells] % N_QUARTER_BINS,
                                  weights=self.counts[cells], minlength=N_QUARTER_BINS)
        return totals

    def blocks(self):
        """Dense int64 blocks of :data:`PROFILE_BLOCK_ROWS` zone rows x 96 bins, in row order."""
        for lo, cells in self._spans():
            rows = min(PROFILE_BLOCK_ROWS, len(self.zone_ids) - lo)
            block = np.zeros((rows, N_QUARTER_BINS), dtype=np.int64)
            block.reshape(-1)[self.cells[cells] - lo * N_QUARTER_BINS] = self.counts[cells]
            yield block


# Entries of the sorted key that a count reads at a time: its int64
# temporaries stay ~128 KiB, whatever the number of events
KEY_CHUNK = 1 << 14


@dataclass(frozen=True)
class AssignedEvents:
    """Located events as parallel arrays, encoded once for every count.

    ``users`` (int32) holds codes into ``user_ids`` and ``zones`` (int32)
    codes into ``zone_ids``, which is sorted, so code order is zone_id order.
    ``bins`` (int8) holds each event's local quarter-hour bin 0..95: 9 B an
    event. Every count reads one key built from them, :attr:`sorted_key`.
    """

    user_ids: Sequence[str]
    zone_ids: tuple[str, ...]
    users: np.ndarray
    zones: np.ndarray
    bins: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @cached_property
    def sorted_key(self) -> np.ndarray:
        """``(zone * n_users + user) * 96 + bin`` of each event, ascending (int64).

        Built in place and sorted in place, once, by the first count that
        reads it; int32 codes times a Python int would wrap without a word.
        Each (zone, user) pair's events form one run in it, their bins
        ascending, and the zones' runs follow in zone order.
        """
        key = self.zones.astype(np.int64)
        key *= max(len(self.user_ids), 1)
        key += self.users
        key *= N_QUARTER_BINS
        key += self.bins
        key.sort()
        return key

    def key_parts(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The sorted key in parts of at most :data:`KEY_CHUNK` entries, none of
        them across a block of :data:`PROFILE_BLOCK_ROWS` zones.

        Per part: the first zone row of its block, the part, and per entry the
        entry before it in the key (-1 before the first, below every entry).
        """
        key = self.sorted_key
        zone_stride = max(len(self.user_ids), 1) * N_QUARTER_BINS
        n_zones = len(self.zone_ids)
        firsts = range(0, n_zones, PROFILE_BLOCK_ROWS)
        bounds = np.searchsorted(key, np.array([*firsts, n_zones], dtype=np.int64)
                                 * zone_stride).tolist()
        for first, lo, hi in zip(firsts, bounds, bounds[1:]):
            for a in range(lo, hi, KEY_CHUNK):
                b = min(a + KEY_CHUNK, hi)
                before = key[a - 1:b - 1] if a else np.concatenate(([-1], key[:b - 1]))
                yield first, key[a:b], before


def count_unique_users(events: AssignedEvents) -> QuarterCounts:
    """Distinct users per (zone, quarter-hour bin) across the whole input.

    A user active in two zones in the same bin counts once in each; a user
    active in one zone across two bins counts once per bin; repeat events in
    the same cell (including on different days) collapse to one. Rows follow
    ``events.zone_ids``; only the cells with users are kept.

    Each distinct (zone, user, bin) is an entry of :attr:`~AssignedEvents.sorted_key`
    that differs from the one before it. They are counted into one dense
    block of :data:`PROFILE_BLOCK_ROWS` zones x 96 bins at a time, whose
    nonzero cells are kept.
    """
    zone_stride = max(len(events.user_ids), 1) * N_QUARTER_BINS
    cells, counts = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    for first, parts in groupby(events.key_parts(), key=itemgetter(0)):
        block = np.zeros(PROFILE_BLOCK_ROWS * N_QUARTER_BINS, dtype=np.int64)
        for _, part, before in parts:
            distinct = part[part != before] - first * zone_stride
            block += np.bincount(distinct // zone_stride * N_QUARTER_BINS
                                 + distinct % N_QUARTER_BINS, minlength=len(block))
        nonzero = np.flatnonzero(block)
        cells.append((nonzero + first * N_QUARTER_BINS).astype(np.int32))
        counts.append(block[nonzero].astype(np.int32))
    return QuarterCounts(events.zone_ids, np.concatenate(cells), np.concatenate(counts))


def _column_counts(events: AssignedEvents, column_of: np.ndarray, n_columns: int) -> np.ndarray:
    """Distinct users per (zone, column) as an int64 zones x ``n_columns`` matrix.

    ``column_of`` gives each bin's column, -1 for none; each column is one
    range of bins. Within a (zone, user) run of the sorted key the bins
    ascend, so each (zone, user, column) starts where the run or the column
    changes.
    """
    n_users = max(len(events.user_ids), 1)
    counts = np.zeros(len(events.zone_ids) * n_columns, dtype=np.int64)
    for first, part, before in events.key_parts():
        pair, column = np.divmod(part, N_QUARTER_BINS)
        column = column_of[column]
        start = pair != before // N_QUARTER_BINS
        start |= column != column_of[before % N_QUARTER_BINS]
        start &= column >= 0
        # each part lies in one block of zones: count into that block's rows
        block = counts[first * n_columns:(first + PROFILE_BLOCK_ROWS) * n_columns]
        block += np.bincount((pair[start] // n_users - first) * n_columns + column[start],
                             minlength=len(block))
    return counts.reshape(-1, n_columns)


def aggregate_major_slots(events: AssignedEvents,
                          slots: Sequence[MajorSlot] = DEFAULT_SLOTS) -> np.ndarray:
    """Distinct users per (zone, major slot) as an int64 zones x slots matrix,
    re-deduplicated at slot scope; rows follow ``events.zone_ids``.

    Slot counts are recomputed from the encoded events rather than summed
    from quarter-hour counts: a user active in two bins of the same slot
    counts once. Bins outside every slot are excluded.
    """
    validate_slots(slots)
    slot_of = np.full(N_QUARTER_BINS, -1, dtype=np.int64)
    for i, slot in enumerate(slots):
        slot_of[slot.start_bin:slot.end_bin + 1] = i
    return _column_counts(events, slot_of, len(slots))


def count_daily_unique(events: AssignedEvents) -> np.ndarray:
    """Distinct users per zone over the whole day, as an int64 zones x 1 matrix."""
    return _column_counts(events, np.zeros(N_QUARTER_BINS, dtype=np.int64), 1)


def _normalized(counts: np.ndarray, totals: np.ndarray, slot_total: float) -> np.ndarray:
    """``counts / totals * slot_total`` per element, in one float copy of ``counts``;
    a column whose total is 0, without users, stays 0."""
    values = counts.astype(float)
    values /= np.where(totals == 0, 1.0, totals)
    values *= slot_total
    return values


def normalize_counts(counts: np.ndarray, slot_total: float = NORMALIZATION_TOTAL) -> np.ndarray:
    """``counts`` (zones x columns) as float64, each column rescaled to sum to
    ``slot_total``; a column without users stays zero rather than being fatal."""
    totals = counts.sum(axis=0)
    if not totals.all():
        logger.info("%d time bins have no active users", np.count_nonzero(totals == 0))
    return _normalized(counts, totals, slot_total)


def landuse_profile(counts: QuarterCounts, codes: np.ndarray,
                    total: float = NORMALIZATION_TOTAL,
                    ) -> tuple[dict[str, np.ndarray], list[str]]:
    """Temporal profile per land-use class from the quarter-hour counts: label
    -> the share of the class's daily normalized users in each of the 96 bins.

    Every zone's users, normalized as :func:`normalize_counts` does with
    ``total``, are assigned to its predominant class (``codes``, one class
    code per row); the per-bin class totals divided by the class daily total
    give the shares. The normalized values are made a block of
    :meth:`QuarterCounts.blocks` at a time and added into the class totals
    row after row, so no normalized copy of the whole matrix exists.
    Profiles follow the groups of :func:`~citypulse.landuse.class_groups`: the
    three main kinds, then each activity subcategory present. Classes with
    zero daily total are omitted and returned by label; unclassified zones are skipped.
    """
    if not isinstance(counts, QuarterCounts):
        raise DataError("land-use profiles require the quarter-hour counts")
    column_totals = counts.column_totals()
    blocks = (_normalized(block, column_totals, total) for block in counts.blocks())
    profiles: dict[str, np.ndarray] = {}
    omitted: list[str] = []
    for label, totals in class_sums(codes, blocks).items():
        daily = float(totals.sum())
        if daily == 0.0:
            omitted.append(label)
        else:
            profiles[label] = totals / daily
    return profiles, omitted


def density_per_hectare(class_totals: Mapping[str, float],
                        class_areas_ha: Mapping[str, float],
                        ) -> tuple[dict[str, float], list[str]]:
    """Daily normalized users per hectare for each class; zero-area classes omitted."""
    densities: dict[str, float] = {}
    omitted: list[str] = []
    for label in class_totals:
        area = float(class_areas_ha.get(label, 0.0))
        if area <= 0.0:
            omitted.append(label)
            continue
        densities[label] = float(class_totals[label]) / area
    return densities, omitted
