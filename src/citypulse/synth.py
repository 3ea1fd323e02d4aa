"""Synthetic city generator with known ground truth.

Builds a rectangular grid of zones with land-use mixes that classify exactly
as configured, then samples geotagged events from an explicit placement model:
each user posts a Poisson number of events, every event independently picks a
(zone, quarter-hour bin) cell from a weighted distribution, and night events
relocate to the user's home zone with a configurable probability. Because the
per-cell event counts are then independent Poissons, the expected unique-user
matrix has a closed form, which is what the ground-truth profiles are built
from. Generation is seed-deterministic and single-threaded so fixtures are
byte-identical across runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Mapping, Sequence

import numpy as np

from .activity import DEFAULT_SLOTS, MajorSlot, N_QUARTER_BINS, validate_slots
from .errors import ConfigError
from .ingest import EventBatch, WORKDAY_WEEKDAYS, get_timezone, wall_offsets
from .landuse import CLASSES, LandUseCategory, class_groups, classify_zones, home_zones
from .spatial import CityCentre, Zone, ZoneTable, distances_to_centre

logger = logging.getLogger(__name__)

# Relative activity weight per class and major slot: typical weekday rhythm of
# a large city. Residential peaks at night, education and offices in the
# morning, retail toward the evening.
DEFAULT_SLOT_WEIGHTS: dict[str, dict[str, float]] = {
    "residential":        {"morning": 57022, "afternoon": 61330, "evening": 61782, "night": 69784},
    "mixed":              {"morning": 19876, "afternoon": 19277, "evening": 21061, "night": 18520},
    "activity:retail":    {"morning": 2520, "afternoon": 2790, "evening": 3046, "night": 1932},
    "activity:culture":   {"morning": 698, "afternoon": 644, "evening": 639, "night": 372},
    "activity:education": {"morning": 4466, "afternoon": 3187, "evening": 2015, "night": 1039},
    "activity:industry":  {"morning": 2367, "afternoon": 1995, "evening": 1730, "night": 1567},
    "activity:office":    {"morning": 5974, "afternoon": 4856, "evening": 4289, "night": 2871},
    "activity:park":      {"morning": 2400, "afternoon": 2278, "evening": 2403, "night": 1721},
    "activity:health":    {"morning": 1378, "afternoon": 964, "evening": 745, "night": 473},
    "activity:transport": {"morning": 1323, "afternoon": 1059, "evening": 893, "night": 407},
    "activity:other":     {"morning": 1974, "afternoon": 1621, "evening": 1398, "night": 1313},
}


def slot_weights_to_intensity(weights: Mapping[str, float],
                              slots: Sequence[MajorSlot] = DEFAULT_SLOTS) -> np.ndarray:
    """Spread per-slot weights uniformly over their quarter-hour bins (sums to 1)."""
    intensity = np.zeros(N_QUARTER_BINS)
    for slot in slots:
        weight = float(weights.get(slot.name, 0.0))
        if weight < 0 or not math.isfinite(weight):
            raise ConfigError(f"bad slot weight for {slot.name!r}: {weight}")
        intensity[slot.start_bin:slot.end_bin + 1] = weight / len(slot.bins)
    total = intensity.sum()
    if total > 0:
        intensity /= total
    return intensity

# median built surface of a generated zone, in m2
BUILT_TOTAL_BASE_M2 = 200_000.0
# Most events a generated city may expect (n_users * n_days * rate): 20 times
# the ~509k of the largest benchmark city. The generator holds every event in
# memory, and numpy's Poisson sampler refuses a rate near 1e19.
MAX_EXPECTED_EVENTS = 10_000_000


@dataclass
class SynthConfig:
    """Everything the generator needs; defaults give a small, fast desk city."""

    seed: int = 7
    n_zones: int = 100
    origin_lon: float = -3.80
    origin_lat: float = 40.35
    cell_deg: float = 0.01
    class_mix: Mapping[str, float] = field(default_factory=lambda: {
        "residential": 0.40, "mixed": 0.25,
        "activity:education": 0.15, "activity:retail": 0.10, "activity:office": 0.10,
    })
    intensities: Mapping[str, np.ndarray] | None = None  # per class key, 96 bins
    slots: tuple[MajorSlot, ...] = DEFAULT_SLOTS
    night_bins: tuple[int, ...] = tuple(range(88, 96))
    n_users: int = 500
    events_per_user_per_day: float = 8.0
    n_days: int = 3
    home_bias: float = 0.7
    user_rate_sigma: float = 0.6  # 0 disables log-normal user heterogeneity
    centre_decay_per_km: float = 0.0
    ensure_night_event: bool = False
    timezone: str = "Europe/Madrid"
    start_date: date = date(2013, 3, 5)  # a Tuesday

    def validate(self) -> None:
        """Raise ConfigError for the first setting out of its range (NaN is out of every range)."""
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n_zones < 1:
            raise ConfigError("n_zones must be >= 1")
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if self.n_days < 1:
            raise ConfigError("n_days must be >= 1")
        if not (0.0 <= self.home_bias <= 1.0):
            raise ConfigError("home_bias must be in [0, 1]")
        if not 0.0 <= self.events_per_user_per_day < math.inf:
            raise ConfigError("events_per_user_per_day must be a finite number >= 0")
        if self.n_users * self.n_days * self.events_per_user_per_day > MAX_EXPECTED_EVENTS:
            raise ConfigError(f"n_users * n_days * events_per_user_per_day must be <= "
                              f"{MAX_EXPECTED_EVENTS:,}")
        if not 0.0 <= self.centre_decay_per_km < math.inf:
            raise ConfigError("centre_decay_per_km must be a finite number >= 0")
        get_timezone(self.timezone)
        for key, fraction in self.class_mix.items():
            if key not in CLASSES:
                raise ConfigError(f"unknown class mix key {key!r}")
            if not 0.0 <= fraction < math.inf:
                raise ConfigError(f"class mix fraction for {key!r} must be a finite number >= 0")
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"class mix fractions sum to {total}, expected 1")
        validate_slots(self.slots)
        if self.intensities is not None:
            for key, vec in self.intensities.items():
                arr = np.asarray(vec, dtype=float)
                if arr.shape != (N_QUARTER_BINS,) or not np.all(np.isfinite(arr)) or arr.min() < 0:
                    raise ConfigError(f"intensity for {key!r} must be 96 finite non-negative reals")

    def class_intensity(self, key: str) -> np.ndarray:
        if self.intensities is not None and key in self.intensities:
            arr = np.asarray(self.intensities[key], dtype=float).copy()
            total = arr.sum()
            return arr / total if total > 0 else arr
        weights = DEFAULT_SLOT_WEIGHTS.get(key)
        if weights is None:
            raise ConfigError(f"no intensity configured or defaulted for class {key!r}")
        return slot_weights_to_intensity(weights, self.slots)

    def mass_targets(self) -> dict[str, float]:
        """Target share of total event mass per class key: equal across the main
        kinds present, and equal among the activity subcategories within the
        activity share, so small classes still receive enough events to measure."""
        kinds: dict[str, list[str]] = {}
        for key in self.class_mix:
            kinds.setdefault(key.partition(":")[0], []).append(key)
        return {key: (1.0 / len(kinds)) / len(keys) for keys in kinds.values() for key in keys}


@dataclass
class SynthCity:
    zones: list[Zone]
    codes: np.ndarray  # per zone, in ``zones`` order: its index into landuse.CLASSES
    centre: CityCentre
    config: SynthConfig

    @property
    def zone_ids(self) -> tuple[str, ...]:
        return tuple(z.zone_id for z in self.zones)


@dataclass
class SynthTruth:
    """Exact expectations of the generator model, computed without sampling."""

    zone_ids: tuple[str, ...]
    homes: dict[str, str]
    expected_quarter: np.ndarray  # zones x 96 expected unique active users
    expected_slots: np.ndarray    # zones x n_slots
    expected_day: np.ndarray      # zones
    profiles: dict[str, np.ndarray]  # class label -> 96 shares (sum 1)
    slot_names: tuple[str, ...] = ()
    # class label -> expected normalized users per major slot (each slot's
    # city-wide total rescaled to 100000), the per-slot analog of the profiles
    slot_class_totals: dict[str, np.ndarray] = field(default_factory=dict)


def allocate_counts(fractions: Mapping[str, float], n: int) -> dict[str, int]:
    """Largest-remainder allocation of n items to the given fractions."""
    keys = list(fractions)
    exact = {k: fractions[k] * n for k in keys}
    counts = {k: int(math.floor(exact[k])) for k in keys}
    short = n - sum(counts.values())
    by_remainder = sorted(keys, key=lambda k: (-(exact[k] - counts[k]), k))
    for k in by_remainder[:short]:
        counts[k] += 1
    for k in keys:
        if fractions[k] > 0 and counts[k] == 0:
            raise ConfigError(
                f"class {k!r} has fraction {fractions[k]} but received zero zones; "
                "increase n_zones")
    return counts


def _zone_composition(rng: np.random.Generator, key: str,
                      total_m2: float) -> dict[LandUseCategory, float]:
    """Land-use m2 split that classifies exactly as the class ``key``.

    Residential zones: 78-95% residential, remainder 'other'. Mixed zones:
    42-58% residential, remainder 'other'. Activity zones: 10-28% residential
    and the whole rest in the subcategory, so each category's surface is
    cleanly attributable to one diurnal shape.
    """
    kind, _, sub = key.partition(":")
    if kind == "residential":
        res = rng.uniform(0.78, 0.95)
        split = {LandUseCategory.RESIDENTIAL: res, LandUseCategory.OTHER: 1.0 - res}
    elif kind == "mixed":
        res = rng.uniform(0.42, 0.58)
        split = {LandUseCategory.RESIDENTIAL: res, LandUseCategory.OTHER: 1.0 - res}
    else:
        res = rng.uniform(0.10, 0.28)
        split = {LandUseCategory.RESIDENTIAL: res, LandUseCategory(sub): 1.0 - res}
    return {cat: share * total_m2 for cat, share in split.items()}


def generate_city(config: SynthConfig) -> SynthCity:
    """Rectangular grid tessellation with per-zone land uses matching the class mix."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_zones
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))

    counts = allocate_counts(config.class_mix, n)
    codes = np.empty(n, dtype=np.int64)
    codes[rng.permutation(n)] = np.repeat([CLASSES.index(key) for key in counts],
                                          list(counts.values()))

    d = config.cell_deg
    lat_mid = config.origin_lat + rows * d / 2.0
    cell_width_m = d * 111_320.0 * math.cos(math.radians(lat_mid))
    cell_height_m = d * 110_574.0
    area_ha = cell_width_m * cell_height_m / 10_000.0

    # shared grid lines so adjacent cells carry bitwise-identical boundaries
    xs = [config.origin_lon + c * d for c in range(cols + 1)]
    ys = [config.origin_lat + r * d for r in range(rows + 1)]
    zones: list[Zone] = []
    for i in range(n):
        r, c = divmod(i, cols)
        ring = ((xs[c], ys[r]), (xs[c + 1], ys[r]), (xs[c + 1], ys[r + 1]),
                (xs[c], ys[r + 1]), (xs[c], ys[r]))
        total_m2 = BUILT_TOTAL_BASE_M2 * rng.lognormal(0.0, 0.35)
        landuse = _zone_composition(rng, CLASSES[codes[i]], total_m2)
        zones.append(Zone(
            zone_id=f"z{i:04d}",
            rings=(ring,),
            area_ha=area_ha,
            landuse_m2=landuse,
            built_residential_m2=landuse.get(LandUseCategory.RESIDENTIAL, 0.0),
            built_total_m2=sum(landuse.values()),
        ))

    centre = CityCentre(config.origin_lon + cols * d / 2.0,
                        config.origin_lat + rows * d / 2.0)
    logger.info("generated %d zones (%dx%d grid): %s", n, rows, cols,
                ", ".join(f"{k}={v}" for k, v in counts.items()))
    return SynthCity(zones, codes, centre, config)


def _zone_columns(city: SynthCity) -> tuple[ZoneTable, np.ndarray]:
    """The city's zone table and, per zone in ``city.zones`` order, its table row.

    Building the table validates the zones; each must then classify as the
    class it was generated for.
    """
    table = ZoneTable.from_zones(city.zones)
    row_of = {zone_id: k for k, zone_id in enumerate(table.zone_ids)}
    rows = np.array([row_of[z.zone_id] for z in city.zones], dtype=np.int64)
    unplanned = np.flatnonzero(classify_zones(table)[rows] != city.codes)
    if len(unplanned):
        raise AssertionError(
            f"generated zone {city.zones[unplanned[0]].zone_id} does not classify as planned")
    return table, rows


def _placement(city: SynthCity, table: ZoneTable, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint event-placement distribution Q0 over (zone, bin), its per-bin
    marginal, and the night-bin mask."""
    config = city.config
    n_zones = len(city.zones)
    targets = config.mass_targets()

    weight = table.built_total_m2[rows]
    if config.centre_decay_per_km > 0:
        dist_km = distances_to_centre(table, city.centre)[rows] / 1000.0
        weight = weight * np.array([math.exp(-config.centre_decay_per_km * d)
                                    for d in dist_km.tolist()])

    q = np.zeros((n_zones, N_QUARTER_BINS))
    for key, target in targets.items():
        members = np.flatnonzero(city.codes == CLASSES.index(key))
        if not len(members):
            continue
        class_weight = weight[members]
        class_total = class_weight.sum()
        if not class_total > 0:  # the decay's exp() underflows to 0 in every zone of the class
            raise ConfigError(f"centre_decay_per_km leaves no {key} zone any weight")
        class_weight = class_weight / class_total
        q[members, :] = target * np.outer(class_weight, config.class_intensity(key))
    total = q.sum()
    if total <= 0:
        raise ConfigError("placement model has zero total mass")
    q /= total
    night = np.zeros(N_QUARTER_BINS, dtype=bool)
    night[list(config.night_bins)] = True
    return q, q.sum(axis=0), night


def _workdays(start: date, n_days: int) -> list[date]:
    days = []
    day = start
    while len(days) < n_days:
        if day.weekday() in WORKDAY_WEEKDAYS:
            days.append(day)
        day += timedelta(days=1)
    return days


def _user_rates(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    base = config.events_per_user_per_day * config.n_days
    if config.user_rate_sigma > 0:
        sigma = config.user_rate_sigma
        factor = rng.lognormal(-sigma * sigma / 2.0, sigma, config.n_users)
    else:
        factor = np.ones(config.n_users)
    return base * factor


def _home_zones(city: SynthCity, pull: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A home zone per user, drawn among residential and mixed zones by ``pull``."""
    eligible = home_zones(city.codes)
    if not len(eligible):
        raise ConfigError("class mix has no residential or mixed zones to home users in")
    probs = pull[eligible] / pull[eligible].sum()
    picks = rng.choice(len(eligible), size=city.config.n_users, p=probs)
    return eligible[picks]


def generate_events(city: SynthCity) -> tuple[EventBatch, SynthTruth]:
    """Sample the event stream and compute the exact expectations behind it.

    Uses an RNG stream seeded at ``seed + 1`` so the city geometry (seeded at
    ``seed``) can be regenerated independently. Rows are ordered by local
    wall time, then by user id string, then in generation order; timestamps
    are local wall times with the zone's UTC offset, read with ``fold=0``
    where a transition skips or repeats them.
    """
    config = city.config
    rng = np.random.default_rng(config.seed + 1)
    table, rows = _zone_columns(city)
    q0, p0_bin, night_mask = _placement(city, table, rows)

    homes = _home_zones(city, table.built_residential_m2[rows], rng)
    mu = _user_rates(config, rng)
    n_events_per_user = rng.poisson(mu)

    user_of = np.repeat(np.arange(config.n_users), n_events_per_user)
    n_events = len(user_of)
    flat = rng.choice(q0.size, size=n_events, p=q0.reshape(-1))
    zone_idx = flat // N_QUARTER_BINS
    bin_idx = flat % N_QUARTER_BINS

    if config.home_bias > 0:
        relocate = night_mask[bin_idx] & (rng.random(n_events) < config.home_bias)
        zone_idx[relocate] = homes[user_of[relocate]]

    if config.ensure_night_event:
        # guarantee every user one detectable night presence in their home zone
        have_night = np.zeros(config.n_users, dtype=bool)
        night_events = night_mask[bin_idx]
        have_night[np.unique(user_of[night_events])] = True
        missing = np.flatnonzero(~have_night)
        if len(missing):
            extra_bins = rng.choice(np.flatnonzero(night_mask), size=len(missing))
            user_of = np.concatenate([user_of, missing])
            zone_idx = np.concatenate([zone_idx, homes[missing]])
            bin_idx = np.concatenate([bin_idx, extra_bins])
            n_events += len(missing)

    days = _workdays(config.start_date, config.n_days)
    day_idx = rng.integers(0, len(days), n_events)
    minutes = rng.integers(0, 15, n_events)
    seconds = rng.integers(0, 60, n_events)
    jitter_x = 0.05 + 0.90 * rng.random(n_events)
    jitter_y = 0.05 + 0.90 * rng.random(n_events)

    day_s = np.array([(day - date(1970, 1, 1)).days for day in days], dtype=np.int64) * 86_400
    wall = day_s[day_idx] + bin_idx * 900 + minutes * 60 + seconds
    offset = wall_offsets(wall, get_timezone(config.timezone))
    odd = offset[offset % 60 != 0]
    if len(odd):  # local mean time before a zone's standard time, e.g. -00:14:44
        raise ConfigError(f"{config.timezone} is {int(odd[0])} s off UTC on a generated date; "
                          "RFC 3339 offsets are whole minutes, so start_date must be later")
    x0, y0, x1, y1 = table.bbox[rows[zone_idx]].T
    lon = x0 + jitter_x * (x1 - x0)
    lat = y0 + jitter_y * (y1 - y0)

    # user ids compare as strings ("u100000" < "u10001"); lexsort is stable
    user_ids = [f"u{u:05d}" for u in range(config.n_users)]
    text_rank = np.empty(config.n_users, dtype=np.int64)
    text_rank[sorted(range(config.n_users), key=user_ids.__getitem__)] = np.arange(config.n_users)
    order = np.lexsort((text_rank[user_of], wall))
    users = user_of[order]
    # user codes in order of first appearance, as parsing the written file gives them
    present, first = np.unique(users, return_index=True)
    seen = present[np.argsort(first)]
    code = np.empty(config.n_users, dtype=np.int32)
    code[seen] = np.arange(len(seen))
    batch = EventBatch(tuple(user_ids[u] for u in seen.tolist()), code[users],
                       (wall - offset)[order], lon[order], lat[order],
                       {"micro": np.zeros(n_events, dtype=np.int32),
                        "offset_us": offset[order] * 1_000_000})
    logger.info("generated %d events for %d users over %d days",
                n_events, config.n_users, len(days))

    truth = _expected_truth(city, q0, p0_bin, night_mask, homes, mu)
    return batch, truth


UNIQUE_CHUNK = 256  # users of a home group evaluated at a time


def _expected_unique(mu_group: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Sum over users of P(at least one event) per cell, for one home group."""
    flat = rates.reshape(-1)
    out = np.zeros_like(flat)
    for lo in range(0, len(mu_group), UNIQUE_CHUNK):
        block = mu_group[lo:lo + UNIQUE_CHUNK, None] * flat[None, :]
        out += (1.0 - np.exp(-block)).sum(axis=0)
    return out.reshape(rates.shape)


def _home_group_sums(cells: np.ndarray, home_cells: np.ndarray, groups: np.ndarray,
                     homes: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Sum over home groups of :func:`_expected_unique`, each group placed at ``cells``
    except in its home row, which holds ``home_cells``.

    Outside its home row a group sees the shared ``cells``, so each group is
    evaluated once per distinct value there and once per value of its home
    row. Rows that are nobody's home add up per distinct value; home rows are
    added group by group. Both add in group order starting from 0, as
    summing the groups' zones x width matrices does, so the result is
    bit-identical.
    """
    n_zones, width = cells.shape
    if n_zones == 1:  # a lone zone is every user's home: only its home row is seen
        return _expected_unique(mu, home_cells[0])[None, :]
    values, where = np.unique(cells, return_inverse=True)
    where = where.reshape(cells.shape)
    shared = np.zeros(len(values))
    home_sums = np.zeros(home_cells.shape)
    index = width + where[groups]  # the home rows' places in [home row, values]
    for i, h in enumerate(groups.tolist()):
        sums = _expected_unique(mu[homes == h], np.concatenate([home_cells[i], values]))
        shared += sums[width:]
        at = sums[index]
        at[i] = sums[:width]
        home_sums += at
    out = np.empty(cells.shape)
    away = np.setdiff1d(np.arange(n_zones), groups)
    out[away] = shared[where[away]]
    out[groups] = home_sums
    return out


def _expected_truth(city: SynthCity, q0, p0_bin, night_mask, homes, mu) -> SynthTruth:
    config = city.config
    slots = config.slots

    # per-event placement given a home zone: night mass shifts toward home
    base = q0 * np.where(night_mask, 1.0 - config.home_bias, 1.0)[None, :]
    bonus = config.home_bias * p0_bin * night_mask  # added to the home zone's row
    groups = np.unique(homes)
    home_rows = base[groups] + bonus

    def by_slot(q: np.ndarray) -> np.ndarray:
        return np.column_stack([q[:, list(s.bins)].sum(axis=1) for s in slots])

    expected_quarter = _home_group_sums(base, home_rows, groups, homes, mu)
    expected_slots = _home_group_sums(by_slot(base), by_slot(home_rows), groups, homes, mu)
    expected_day = _home_group_sums(base.sum(axis=1)[:, None], home_rows.sum(axis=1)[:, None],
                                    groups, homes, mu)[:, 0]

    col_sums = expected_quarter.sum(axis=0)
    safe = np.where(col_sums > 0, col_sums, 1.0)
    normalized = expected_quarter / safe * 100_000.0
    slot_sums = expected_slots.sum(axis=0)
    slot_safe = np.where(slot_sums > 0, slot_sums, 1.0)
    normalized_slots = expected_slots / slot_safe * 100_000.0

    profiles: dict[str, np.ndarray] = {}
    slot_class_totals: dict[str, np.ndarray] = {}
    for label, rows in class_groups(city.codes):
        totals = normalized[rows].sum(axis=0)
        daily = totals.sum()
        if daily > 0:
            profiles[label] = totals / daily
        slot_class_totals[label] = normalized_slots[rows].sum(axis=0)

    home_map = {f"u{u:05d}": city.zones[int(homes[u])].zone_id
                for u in range(config.n_users)}
    return SynthTruth(city.zone_ids, home_map, expected_quarter,
                      expected_slots, expected_day, profiles,
                      tuple(s.name for s in slots), slot_class_totals)


def city_geojson(city: SynthCity) -> dict:
    """Zone FeatureCollection in the schema the spatial loader consumes."""
    features = []
    for zone in city.zones:
        props = {
            "zone_id": zone.zone_id,
            "area_ha": zone.area_ha,
            "built_residential_m2": zone.built_residential_m2,
            "built_total_m2": zone.built_total_m2,
        }
        for cat, m2 in zone.landuse_m2.items():
            props[cat.column] = m2
        features.append({
            "type": "Feature",
            "properties": props,
            "geometry": {"type": "Polygon",
                         "coordinates": [[list(p) for p in ring] for ring in zone.rings]},
        })
    return {"type": "FeatureCollection", "features": features}
