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
from datetime import date, datetime, timedelta
from typing import Mapping, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .activity import DEFAULT_SLOTS, MajorSlot, N_QUARTER_BINS, validate_slots
from .errors import ConfigError
from .ingest import GeoEvent, WORKDAY_WEEKDAYS
from .landuse import CLASSES, LandUseCategory, LandUseClass, class_groups, classify_zone
from .spatial import CityCentre, Zone, distance_to_centre

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
    class_mass: Mapping[str, float] | None = None  # target activity share per class key
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
    built_total_base_m2: float = 200_000.0

    def class_keys(self) -> list[str]:
        return list(self.class_mix)

    def validate(self) -> None:
        if self.n_zones < 1:
            raise ConfigError("n_zones must be >= 1")
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if not (0.0 <= self.home_bias <= 1.0):
            raise ConfigError("home_bias must be in [0, 1]")
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"class mix fractions sum to {total}, expected 1")
        for key in self.class_mix:
            LandUseClass.from_key(key)  # raises on unknown keys
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
        """Target share of total event mass per class key.

        Defaults split mass equally across the main kinds present, and equally
        among activity subcategories within the activity share, so small
        classes still receive enough events to measure.
        """
        if self.class_mass is not None:
            total = sum(self.class_mass.values())
            if total <= 0:
                raise ConfigError("class_mass must have positive total")
            return {k: v / total for k, v in self.class_mass.items()}
        kinds: dict[str, list[str]] = {}
        for key in self.class_mix:
            kinds.setdefault(LandUseClass.from_key(key).kind, []).append(key)
        targets: dict[str, float] = {}
        for kind, keys in kinds.items():
            for key in keys:
                targets[key] = (1.0 / len(kinds)) / len(keys)
        return targets


@dataclass
class SynthCity:
    zones: list[Zone]
    classes: dict[str, LandUseClass]
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


def _zone_composition(rng: np.random.Generator, cls: LandUseClass,
                      total_m2: float) -> dict[LandUseCategory, float]:
    """Land-use m2 split that classifies exactly as ``cls``.

    Residential zones: 78-95% residential, remainder 'other'. Mixed zones:
    42-58% residential, remainder 'other'. Activity zones: 10-28% residential
    and the whole rest in the subcategory, so each category's surface is
    cleanly attributable to one diurnal shape.
    """
    if cls.kind == "residential":
        res = rng.uniform(0.78, 0.95)
        split = {LandUseCategory.RESIDENTIAL: res, LandUseCategory.OTHER: 1.0 - res}
    elif cls.kind == "mixed":
        res = rng.uniform(0.42, 0.58)
        split = {LandUseCategory.RESIDENTIAL: res, LandUseCategory.OTHER: 1.0 - res}
    else:
        res = rng.uniform(0.10, 0.28)
        split = {LandUseCategory.RESIDENTIAL: res, cls.sub: 1.0 - res}
    return {cat: share * total_m2 for cat, share in split.items()}


def generate_city(config: SynthConfig) -> SynthCity:
    """Rectangular grid tessellation with per-zone land uses matching the class mix."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_zones
    cols = int(math.ceil(math.sqrt(n)))
    rows = int(math.ceil(n / cols))

    counts = allocate_counts(config.class_mix, n)
    assignment: list[LandUseClass] = []
    for key in config.class_keys():
        assignment.extend([LandUseClass.from_key(key)] * counts[key])
    order = rng.permutation(n)
    class_of = [None] * n
    for slot_i, zone_i in enumerate(order):
        class_of[zone_i] = assignment[slot_i]

    d = config.cell_deg
    lat_mid = config.origin_lat + rows * d / 2.0
    cell_width_m = d * 111_320.0 * math.cos(math.radians(lat_mid))
    cell_height_m = d * 110_574.0
    area_ha = cell_width_m * cell_height_m / 10_000.0

    # shared grid lines so adjacent cells carry bitwise-identical boundaries
    xs = [config.origin_lon + c * d for c in range(cols + 1)]
    ys = [config.origin_lat + r * d for r in range(rows + 1)]
    zones: list[Zone] = []
    classes: dict[str, LandUseClass] = {}
    for i in range(n):
        r, c = divmod(i, cols)
        ring = ((xs[c], ys[r]), (xs[c + 1], ys[r]), (xs[c + 1], ys[r + 1]),
                (xs[c], ys[r + 1]), (xs[c], ys[r]))
        total_m2 = config.built_total_base_m2 * rng.lognormal(0.0, 0.35)
        landuse = _zone_composition(rng, class_of[i], total_m2)
        zone = Zone(
            zone_id=f"z{i:04d}",
            rings=(ring,),
            area_ha=area_ha,
            landuse_m2=landuse,
            built_residential_m2=landuse.get(LandUseCategory.RESIDENTIAL, 0.0),
            built_total_m2=sum(landuse.values()),
        )
        zone.validate()
        if classify_zone(zone) != class_of[i]:
            raise AssertionError(f"generated zone {zone.zone_id} does not classify as planned")
        zones.append(zone)
        classes[zone.zone_id] = class_of[i]

    centre = CityCentre(config.origin_lon + cols * d / 2.0,
                        config.origin_lat + rows * d / 2.0)
    logger.info("generated %d zones (%dx%d grid): %s", n, rows, cols,
                ", ".join(f"{k}={v}" for k, v in counts.items()))
    return SynthCity(zones, classes, centre, config)


def _placement(city: SynthCity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint event-placement distribution Q0 over (zone, bin), its per-bin
    marginal, and the night-bin mask."""
    config = city.config
    n_zones = len(city.zones)
    targets = config.mass_targets()

    weight = np.zeros(n_zones)
    for i, zone in enumerate(city.zones):
        w = zone.built_total_m2
        if config.centre_decay_per_km > 0:
            dist_km = distance_to_centre(zone, city.centre) / 1000.0
            w *= math.exp(-config.centre_decay_per_km * dist_km)
        weight[i] = w

    q = np.zeros((n_zones, N_QUARTER_BINS))
    for key, target in targets.items():
        cls = LandUseClass.from_key(key)
        members = [i for i, z in enumerate(city.zones) if city.classes[z.zone_id] == cls]
        if not members:
            continue
        class_weight = weight[members]
        class_weight = class_weight / class_weight.sum()
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


def _home_zones(city: SynthCity, rng: np.random.Generator) -> np.ndarray:
    eligible = [i for i, z in enumerate(city.zones)
                if city.classes[z.zone_id].kind in ("residential", "mixed")]
    if not eligible:
        raise ConfigError("class mix has no residential or mixed zones to home users in")
    pull = np.array([city.zones[i].built_residential_m2 for i in eligible])
    probs = pull / pull.sum()
    picks = rng.choice(len(eligible), size=city.config.n_users, p=probs)
    return np.array([eligible[i] for i in picks])


def generate_events(city: SynthCity) -> tuple[list[GeoEvent], SynthTruth]:
    """Sample the event stream and compute the exact expectations behind it.

    Uses an RNG stream seeded at ``seed + 1`` so the city geometry (seeded at
    ``seed``) can be regenerated independently.
    """
    config = city.config
    rng = np.random.default_rng(config.seed + 1)
    q0, p0_bin, night_mask = _placement(city)

    homes = _home_zones(city, rng)
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

    tz = ZoneInfo(config.timezone)
    boxes = [z.bbox() for z in city.zones]
    events: list[GeoEvent] = []
    for e in range(n_events):
        z = int(zone_idx[e])
        b = int(bin_idx[e])
        day = days[int(day_idx[e])]
        ts = datetime(day.year, day.month, day.day,
                      b // 4, (b % 4) * 15 + int(minutes[e]), int(seconds[e]), tzinfo=tz)
        x0, y0, x1, y1 = boxes[z]
        events.append(GeoEvent(
            user_id=f"u{int(user_of[e]):05d}",
            timestamp=ts,
            lon=x0 + float(jitter_x[e]) * (x1 - x0),
            lat=y0 + float(jitter_y[e]) * (y1 - y0),
        ))
    events.sort(key=lambda ev: (ev.timestamp, ev.user_id))
    logger.info("generated %d events for %d users over %d days",
                n_events, config.n_users, len(days))

    truth = _expected_truth(city, q0, p0_bin, night_mask, homes, mu)
    return events, truth


def _expected_unique(mu_group: np.ndarray, rates: np.ndarray,
                     chunk: int = 256) -> np.ndarray:
    """Sum over users of P(at least one event) per cell, for one home group."""
    flat = rates.reshape(-1)
    out = np.zeros_like(flat)
    for lo in range(0, len(mu_group), chunk):
        block = mu_group[lo:lo + chunk, None] * flat[None, :]
        out += (1.0 - np.exp(-block)).sum(axis=0)
    return out.reshape(rates.shape)


def _expected_truth(city: SynthCity, q0, p0_bin, night_mask, homes, mu) -> SynthTruth:
    config = city.config
    n_zones = len(city.zones)
    slots = config.slots

    # per-event placement given a home zone: night mass shifts toward home
    base = q0 * np.where(night_mask, 1.0 - config.home_bias, 1.0)[None, :]
    bonus = config.home_bias * p0_bin * night_mask  # added to the home zone's row

    expected_quarter = np.zeros((n_zones, N_QUARTER_BINS))
    expected_slots = np.zeros((n_zones, len(slots)))
    expected_day = np.zeros(n_zones)
    slot_cols = [list(s.bins) for s in slots]

    for h in np.unique(homes):
        group_mu = mu[homes == h]
        q_h = base.copy()
        q_h[h, :] += bonus
        expected_quarter += _expected_unique(group_mu, q_h)
        q_h_slots = np.column_stack([q_h[:, cols].sum(axis=1) for cols in slot_cols])
        expected_slots += _expected_unique(group_mu, q_h_slots)
        expected_day += _expected_unique(group_mu, q_h.sum(axis=1))

    col_sums = expected_quarter.sum(axis=0)
    safe = np.where(col_sums > 0, col_sums, 1.0)
    normalized = expected_quarter / safe * 100_000.0
    slot_sums = expected_slots.sum(axis=0)
    slot_safe = np.where(slot_sums > 0, slot_sums, 1.0)
    normalized_slots = expected_slots / slot_safe * 100_000.0

    profiles: dict[str, np.ndarray] = {}
    slot_class_totals: dict[str, np.ndarray] = {}
    code_of = {cls: k for k, cls in enumerate(CLASSES)}
    codes = np.array([code_of[city.classes[z]] for z in city.zone_ids], dtype=np.int64)
    for label, rows in class_groups(codes):
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
