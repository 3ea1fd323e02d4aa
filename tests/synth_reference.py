"""Per-event references for the column generator and writer in ``citypulse.synth``
and ``citypulse.ingest``.

``generate_events`` builds one tz-aware ``datetime`` and one ``GeoEvent`` per
event and sorts them with ``list.sort``; ``expected_truth`` sums one zones x
96 matrix per home group; ``write_events_ndjson`` runs one ``json.dumps``
per event. They are the straightforward forms of the same model, kept so the
column code can be checked against them bit for bit and byte for byte.
"""

from __future__ import annotations

import json
import math
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np

from citypulse.activity import DEFAULT_SLOTS, N_QUARTER_BINS
from citypulse.errors import ConfigError
from citypulse.ingest import OPTIONAL_FIELDS, GeoEvent
from citypulse.landuse import CLASSES, class_groups
from citypulse.stats import DEFAULT_NIGHT_BINS
from citypulse.synth import SynthCity, SynthTruth, _user_rates, _workdays
from scalar_reference import distance_to_centre


def zone_classes(city: SynthCity) -> dict[str, str]:
    """Each generated zone's planned class key, by zone_id."""
    return {z.zone_id: CLASSES[c] for z, c in zip(city.zones, city.codes.tolist())}


def placement(city: SynthCity):
    """Q0 over (zone, bin), its per-bin marginal and the night mask, zone by zone."""
    config = city.config
    n_zones = len(city.zones)
    weight = np.zeros(n_zones)
    for i, zone in enumerate(city.zones):
        w = zone.built_total_m2
        if config.centre_decay_per_km > 0:
            dist_km = distance_to_centre(zone, city.centre) / 1000.0
            w *= math.exp(-config.centre_decay_per_km * dist_km)
        weight[i] = w

    q = np.zeros((n_zones, N_QUARTER_BINS))
    classes = zone_classes(city)
    for key, target in config.mass_targets().items():
        members = [i for i, z in enumerate(city.zones) if classes[z.zone_id] == key]
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
    night[list(DEFAULT_NIGHT_BINS)] = True
    return q, q.sum(axis=0), night


def home_zones(city: SynthCity, rng: np.random.Generator) -> np.ndarray:
    classes = zone_classes(city)
    eligible = [i for i, z in enumerate(city.zones)
                if classes[z.zone_id] in ("residential", "mixed")]
    pull = np.array([city.zones[i].built_residential_m2 for i in eligible])
    picks = rng.choice(len(eligible), size=city.config.n_users, p=pull / pull.sum())
    return np.array([eligible[i] for i in picks])


def generate_events(city: SynthCity) -> tuple[list[GeoEvent], SynthTruth]:
    """The event stream as GeoEvents in a ZoneInfo, sorted by (timestamp, user_id)."""
    config = city.config
    rng = np.random.default_rng(config.seed + 1)
    q0, p0_bin, night_mask = placement(city)

    homes = home_zones(city, rng)
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
        have_night = np.zeros(config.n_users, dtype=bool)
        have_night[np.unique(user_of[night_mask[bin_idx]])] = True
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
    return events, expected_truth(city, q0, p0_bin, night_mask, homes, mu)


def _expected_unique(mu_group: np.ndarray, rates: np.ndarray, chunk: int = 256) -> np.ndarray:
    flat = rates.reshape(-1)
    out = np.zeros_like(flat)
    for lo in range(0, len(mu_group), chunk):
        block = mu_group[lo:lo + chunk, None] * flat[None, :]
        out += (1.0 - np.exp(-block)).sum(axis=0)
    return out.reshape(rates.shape)


def expected_truth(city: SynthCity, q0, p0_bin, night_mask, homes, mu) -> SynthTruth:
    """The exact expectations, one zones x 96 matrix per home group."""
    config = city.config
    n_zones = len(city.zones)
    slots = DEFAULT_SLOTS
    base = q0 * np.where(night_mask, 1.0 - config.home_bias, 1.0)[None, :]
    bonus = config.home_bias * p0_bin * night_mask

    expected_quarter = np.zeros((n_zones, N_QUARTER_BINS))
    expected_slots = np.zeros((n_zones, len(slots)))
    slot_cols = [list(s.bins) for s in slots]
    for h in np.unique(homes):
        group_mu = mu[homes == h]
        q_h = base.copy()
        q_h[h, :] += bonus
        expected_quarter += _expected_unique(group_mu, q_h)
        q_h_slots = np.column_stack([q_h[:, cols].sum(axis=1) for cols in slot_cols])
        expected_slots += _expected_unique(group_mu, q_h_slots)

    col_sums = expected_quarter.sum(axis=0)
    normalized = expected_quarter / np.where(col_sums > 0, col_sums, 1.0) * 100_000.0
    slot_sums = expected_slots.sum(axis=0)
    normalized_slots = expected_slots / np.where(slot_sums > 0, slot_sums, 1.0) * 100_000.0

    profiles, slot_class_totals = {}, {}
    code_of = {key: k for k, key in enumerate(CLASSES)}
    classes = zone_classes(city)
    codes = np.array([code_of[classes[z]] for z in city.zone_ids], dtype=np.int64)
    for label, rows in class_groups(codes):
        totals = normalized[rows].sum(axis=0)
        daily = totals.sum()
        if daily > 0:
            profiles[label] = totals / daily
        slot_class_totals[label] = normalized_slots[rows].sum(axis=0)
    home_map = {f"u{u:05d}": city.zones[int(homes[u])].zone_id for u in range(config.n_users)}
    return SynthTruth(city.zone_ids, home_map, expected_quarter, expected_slots, profiles,
                      tuple(s.name for s in slots), slot_class_totals)


def write_events_ndjson(events, path) -> None:
    """One ``json.dumps`` per event."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in events:
            obj = {"u": e.user_id, "t": e.timestamp.isoformat(), "lon": e.lon, "lat": e.lat}
            for name in OPTIONAL_FIELDS:
                value = getattr(e, name)
                if value is not None:
                    obj[name] = value
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
