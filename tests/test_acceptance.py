"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The synthetic-city criteria share the session-scoped fixture built in
conftest (100 zones, 2000 users, ~100k events, seed 42).
"""

import csv
import dataclasses
import time

import numpy as np
import pytest

from citypulse.activity import (DEFAULT_SLOTS, aggregate_major_slots, count_unique_users,
                                landuse_profile, normalize_counts)
from citypulse.ingest import get_timezone
from citypulse.landuse import CATEGORIES, classify_zones
from citypulse.pipeline import run_pipeline
from citypulse.spatial import ZoneTable, build_zone_index
from citypulse.stats import (bivariate_slot_ols, census_correlation, fit_ols, infer_homes,
                             stepwise_fit)
from citypulse.synth import SynthConfig, generate_city, generate_events

from conftest import BIG_CITY_CONFIG, materialize
from scalar_reference import coefficient, distance_to_centre, encode, locate, quarter_bin
from synth_reference import zone_classes

SLOT_NAMES = [s.name for s in DEFAULT_SLOTS]


def _assign(city, events):
    index = build_zone_index(ZoneTable.from_zones(city.zones))
    tz = get_timezone(city.config.timezone)
    codes = index.locate_codes([e.lon for e in events], [e.lat for e in events]).tolist()
    return [(e.user_id, index.zone_ids[c] if c >= 0 else None, quarter_bin(e.timestamp, tz))
            for e, c in zip(events, codes)]


def test_normalization_conservation():
    """Every nonzero slot column sums to 100000; 584 zones give mean 171.23."""
    rng = np.random.default_rng(0)
    for trial in range(50):
        n_zones = int(rng.integers(1, 40))
        n_bins = int(rng.integers(1, 8))
        counts = rng.integers(0, 200, size=(n_zones, n_bins))
        counts[:, rng.integers(0, n_bins)] = 0  # force an empty column too
        sums = normalize_counts(counts).sum(axis=0)
        for k in range(n_bins):
            if counts[:, k].sum() == 0:
                assert sums[k] == 0.0
            else:
                assert abs(sums[k] - 100000.0) <= 1e-6 * 100000.0

    counts = np.random.default_rng(1).integers(1, 500, size=(584, 4))
    means = normalize_counts(counts).mean(axis=0)
    assert np.all(np.abs(means - 171.23) <= 0.01 + 1e-9)
    print("PASS: normalization conservation (column totals 100000, 584-zone mean 171.23)")


def test_dedup_property_suite():
    """Duplicating any random subset of events changes no count, 1000 trials."""
    rng = np.random.default_rng(7)
    users = [f"u{i}" for i in range(60)]
    zone_ids = [f"z{i}" for i in range(12)]
    events = [(users[rng.integers(60)], zone_ids[rng.integers(12)], int(rng.integers(96)))
              for _ in range(1200)]
    base = encode(events, zone_ids)
    base_quarter = count_unique_users(base)
    base_slots = aggregate_major_slots(base, DEFAULT_SLOTS)
    every = np.arange(len(events))
    start = time.monotonic()
    for _ in range(1000):
        size = int(rng.integers(0, len(events) + 1))
        picks = rng.integers(0, len(events), size=size)
        rows = np.concatenate([every, picks])
        doubled = dataclasses.replace(base, users=base.users[rows], zones=base.zones[rows],
                                      bins=base.bins[rows])
        quarter = count_unique_users(doubled)
        slots = aggregate_major_slots(doubled, DEFAULT_SLOTS)
        assert np.array_equal(quarter.cells, base_quarter.cells)
        assert np.array_equal(quarter.counts, base_quarter.counts)
        assert np.array_equal(slots, base_slots)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS: dedup invariance over 1000 duplication trials ({elapsed:.1f}s)")


def _brute_force_hits(zone, lons, lats):
    inside = np.zeros(lons.shape, dtype=bool)
    for ring in zone.rings:
        pts = np.asarray(ring)
        for j in range(len(pts) - 1):
            x1, y1 = pts[j]
            x2, y2 = pts[j + 1]
            crosses = (y1 > lats) != (y2 > lats)
            if y1 != y2:
                xint = (x2 - x1) * (lats - y1) / (y2 - y1) + x1
                inside ^= crosses & (lons < xint)
    return inside


def test_spatial_join_oracle():
    """ZoneIndex.locate equals brute-force even-odd testing on 10k points."""
    city = generate_city(SynthConfig(seed=13, n_zones=100))
    index = build_zone_index(ZoneTable.from_zones(city.zones))
    rng = np.random.default_rng(29)
    x0, y0, x1, y1 = (min(z.bbox()[0] for z in city.zones),
                      min(z.bbox()[1] for z in city.zones),
                      max(z.bbox()[2] for z in city.zones),
                      max(z.bbox()[3] for z in city.zones))
    pad = 0.02
    lons = rng.uniform(x0 - pad, x1 + pad, 10_000)
    lats = rng.uniform(y0 - pad, y1 + pad, 10_000)

    start = time.monotonic()
    hit_matrix = {z.zone_id: _brute_force_hits(z, lons, lats)
                  for z in sorted(city.zones, key=lambda z: z.zone_id)}
    agreements = 0
    for i in range(len(lons)):
        owners = [zid for zid, hits in hit_matrix.items() if hits[i]]
        expected = owners[0] if owners else None
        assert locate(index, lons[i], lats[i]) == expected
        agreements += 1
    assert agreements == 10_000

    # interior shared edges and corners belong to exactly one zone
    xs = sorted({z.bbox()[0] for z in city.zones} | {z.bbox()[2] for z in city.zones})
    ys = sorted({z.bbox()[1] for z in city.zones} | {z.bbox()[3] for z in city.zones})
    boundary_pts = []
    for x in xs[1:-1]:
        boundary_pts.extend((x, y) for y in np.linspace(ys[0] + 1e-4, ys[-1] - 1e-4, 7))
    for y in ys[1:-1]:
        boundary_pts.extend((x, y) for x in np.linspace(xs[0] + 1e-4, xs[-1] - 1e-4, 7))
    boundary_pts.extend((x, y) for x in xs[1:-1] for y in ys[1:-1])  # corners
    for lon, lat in boundary_pts:
        blons, blats = np.array([lon]), np.array([lat])
        owners = [z.zone_id for z in city.zones if _brute_force_hits(z, blons, blats)[0]]
        assert len(owners) == 1, f"boundary point {(lon, lat)} claimed by {owners}"
        assert locate(index, lon, lat) == owners[0]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS: spatial join oracle, 10000/10000 agreement + "
          f"{len(boundary_pts)} boundary points single-owner ({elapsed:.1f}s)")


def test_ols_oracle():
    """QR solver matches normal equations; VIF behaves at both extremes."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    while checked < 200:
        n = int(rng.integers(10, 51))
        k = int(rng.integers(1, 6))
        if n <= k + 1:
            continue
        X = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k)
        design = np.column_stack([np.ones(n), X])
        if np.linalg.cond(design) >= 1e6:
            continue
        beta = rng.normal(size=k)
        y = X @ beta + rng.normal(size=n)
        fit = fit_ols(y, X)
        coef = np.linalg.solve(design.T @ design, design.T @ y)
        resid = y - design @ coef
        rss = float(resid @ resid)
        tss = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - rss / tss
        adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
        np.testing.assert_allclose(fit.coefficients, coef, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(fit.r2, r2, rtol=1e-8)
        np.testing.assert_allclose(fit.adj_r2, adj, rtol=1e-8)
        checked += 1

    raw = rng.normal(size=(60, 5))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    orth_fit = fit_ols(rng.normal(size=60), q[:, :5])
    for value in orth_fit.vif.values():
        assert abs(value - 1.0) <= 1e-9

    a = rng.normal(size=400)
    b = 0.999 * a + np.sqrt(1 - 0.999 ** 2) * rng.normal(size=400)
    near_fit = fit_ols(rng.normal(size=400), np.column_stack([a, b]))
    assert min(near_fit.vif.values()) > 100
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS: OLS oracle on 200 instances, VIF 1 on orthogonal / "
          f">100 on 0.999-correlated ({elapsed:.1f}s)")


def test_stepwise_behavior():
    """Noise dropped and signal kept in >=95/100 trials; alpha=1 keeps everything."""
    rng = np.random.default_rng(55)
    successes = 0
    for _ in range(100):
        x_signal = rng.normal(size=60)
        x_noise = rng.normal(size=60)
        y = 1.0 * x_signal + rng.normal(size=60)
        fit, dropped = stepwise_fit(y, np.column_stack([x_signal, x_noise]),
                                    names=["signal", "noise"], alpha=0.01)
        if "noise" in dropped and "signal" in fit.names:
            successes += 1
    assert successes >= 95

    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    full = fit_ols(y, X)
    kept, dropped = stepwise_fit(y, X, alpha=1.0)
    assert dropped == []
    np.testing.assert_array_equal(kept.coefficients, full.coefficients)
    assert kept.r2 == full.r2
    print(f"PASS: stepwise keeps signal and drops noise in {successes}/100 trials; "
          "alpha=1.0 reproduces the full fit")


def _profiles_from_run(fixture):
    assigned = _assign(fixture.city, fixture.events)
    zone_ids = fixture.city.zone_ids
    encoded = encode(assigned, zone_ids)
    profiles, _ = landuse_profile(
        count_unique_users(encoded), classify_zones(ZoneTable.from_zones(fixture.city.zones)))
    normalized_slots = normalize_counts(aggregate_major_slots(encoded, DEFAULT_SLOTS))
    return profiles, normalized_slots, assigned


def _class_slot_totals(fixture, normalized_slots):
    """Per-class totals of the slot-normalized users, the per-slot class mix."""
    totals = {}
    classes = zone_classes(fixture.city)
    for label in ("residential", "mixed", "activity",
                  "activity:education", "activity:retail", "activity:office"):
        rows = [i for i, z in enumerate(fixture.city.zone_ids)
                if label in (classes[z], classes[z].partition(":")[0])]
        totals[label] = normalized_slots[rows].sum(axis=0)
    return totals


def test_profile_round_trip(big_city):
    """Recovered class profiles within L1 0.05 of ground truth, orderings intact."""
    start = time.monotonic()
    recovered, normalized_slots, _ = _profiles_from_run(big_city)
    truth = big_city.truth

    l1 = {label: float(np.abs(recovered[label] - truth.profiles[label]).sum())
          for label in ("residential", "mixed", "activity")}
    assert max(l1.values()) <= 0.05, l1

    slot_totals = _class_slot_totals(big_city, normalized_slots)

    def share(label, slot):
        return slot_totals[label][SLOT_NAMES.index(slot)]

    assert share("residential", "night") > share("residential", "morning")
    assert share("activity:education", "morning") > share("activity:education", "night")
    assert share("activity:retail", "evening") > share("activity:retail", "morning")
    # the exact expectations behind the generator order the same way
    tst = truth.slot_class_totals
    night, morning, evening = (SLOT_NAMES.index(s) for s in ("night", "morning", "evening"))
    assert tst["residential"][night] > tst["residential"][morning]
    assert tst["activity:education"][morning] > tst["activity:education"][night]
    assert tst["activity:retail"][evening] > tst["activity:retail"][morning]

    # recovery error shrinks when the event volume grows 10k -> 100k
    small_cfg = dataclasses.replace(BIG_CITY_CONFIG, n_users=200)
    small_city_obj = generate_city(small_cfg)
    small_events, small_truth = generate_events(small_city_obj)
    small_assigned = _assign(small_city_obj, small_events)
    small_profiles, _ = landuse_profile(
        count_unique_users(encode(small_assigned, small_city_obj.zone_ids)),
        classify_zones(ZoneTable.from_zones(small_city_obj.zones)))
    for label in ("residential", "mixed", "activity"):
        small_l1 = float(np.abs(small_profiles[label] - small_truth.profiles[label]).sum())
        assert small_l1 > l1[label]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS: profile round trip, max main-class L1 {max(l1.values()):.3f} <= 0.05, "
          f"orderings reproduced, error shrinks 10k->100k ({elapsed:.1f}s)")


def test_regression_sign_structure(big_city):
    """Retained land-use coefficients positive, distance negative, trends planted."""
    _, normalized_slots, _ = _profiles_from_run(big_city)
    zones_sorted = sorted(big_city.city.zones, key=lambda z: z.zone_id)
    table = ZoneTable.from_zones(big_city.city.zones).landuse_m2
    distance = np.array([distance_to_centre(z, big_city.city.centre) for z in zones_sorted])
    nonzero = [j for j in range(table.shape[1]) if np.any(table[:, j])]
    names = [CATEGORIES[j] for j in nonzero] + ["distance_to_centre"]
    X = np.column_stack([table[:, nonzero], distance])

    coefficients = {}
    for j, slot in enumerate(SLOT_NAMES):
        fit, dropped = stepwise_fit(normalized_slots[:, j], X, names=names,
                                    alpha=0.01)
        for name in fit.names:
            if name == "intercept":
                continue
            value = coefficient(fit, name)
            if name == "distance_to_centre":
                assert value < 0, f"{slot}: distance coefficient {value} not negative"
            else:
                assert value > 0, f"{slot}: {name} coefficient {value} not positive"
            coefficients[(slot, name)] = value
        assert ("distance_to_centre" not in dropped), f"{slot}: distance dropped"

    retail = [coefficients[(s, "retail")] for s in ("morning", "afternoon", "evening")]
    assert retail[0] < retail[1] < retail[2], f"retail coefficients not rising: {retail}"
    edu_morning = coefficients[("morning", "education")]
    edu_afternoon = coefficients[("afternoon", "education")]
    edu_evening = coefficients.get(("evening", "education"))
    assert edu_morning > edu_afternoon, "education coefficient not falling"
    if edu_evening is not None:
        assert edu_afternoon > edu_evening
    print("PASS: regression signs (+ land use, - distance); retail coefficient rises "
          f"{retail[0]:.4g}->{retail[2]:.4g}, education falls {edu_morning:.4g}->"
          f"{edu_evening if edu_evening is not None else edu_afternoon:.4g}")


# Floors on the correlation of each slot's run and truth standardized residuals
# against night. Seeds 42-45 measured 0.984-0.988 in the morning, 0.968-0.975
# in the afternoon and 0.938-0.967 in the evening.
FIRST_ANALYSIS_FLOORS = {"morning": 0.97, "afternoon": 0.95, "evening": 0.9}


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
def test_first_analysis_matches_generator(seed, big_city, tmp_path):
    """residuals_<slot>_vs_night.csv against the same fit of the generator's expectations.

    Each slot of ``SynthTruth.expected_slots`` is normalized to 100,000 and
    fitted on night with ``bivariate_slot_ols``, which gives every zone's
    expected standardized residual without sampling. Every zone whose truth
    is at least 1 in size has the truth's sign in the run.
    """
    fixture = (big_city if seed == BIG_CITY_CONFIG.seed
               else materialize(dataclasses.replace(BIG_CITY_CONFIG, seed=seed), tmp_path))
    truth = fixture.truth
    expected_slots = truth.expected_slots / truth.expected_slots.sum(axis=0) * 100_000.0
    night = expected_slots[:, truth.slot_names.index("night")]
    row_of = {z: k for k, z in enumerate(truth.zone_ids)}
    for slot, floor in FIRST_ANALYSIS_FLOORS.items():
        with open(fixture.out / f"residuals_{slot}_vs_night.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        observed = np.array([float(r["std_residual"]) for r in rows])
        expected = bivariate_slot_ols(
            night, expected_slots[:, truth.slot_names.index(slot)]).std_residuals
        expected = expected[[row_of[r["zone_id"]] for r in rows]]
        r = float(np.corrcoef(observed, expected)[0, 1])
        assert r >= floor, f"{slot}: run and truth residuals correlate {r:.3f} < {floor}"
        clear = np.abs(expected) >= 1.0
        assert np.array_equal(np.sign(observed[clear]), np.sign(expected[clear])), slot
        print(f"PASS: {slot} vs night, seed {seed}: r = {r:.3f}, sign kept on "
              f"{clear.sum()} zones with |truth| >= 1")


def test_home_inference(tmp_path):
    """home-bias 1.0 recovers every home; census of true counts gives r2 = 1."""
    config = SynthConfig(seed=21, n_zones=60, n_users=500, events_per_user_per_day=6.0,
                         n_days=3, home_bias=1.0, ensure_night_event=True)
    city = generate_city(config)
    events, truth = generate_events(city)
    assigned = _assign(city, events)
    eligible = {z for z, key in zone_classes(city).items() if key in ("residential", "mixed")}
    homes = infer_homes(encode(assigned, city.zone_ids), range(88, 96), eligible)

    night_users = {u for u, _, b in assigned if 88 <= b <= 95}
    assert night_users == set(homes)  # ensure_night_event makes that every user
    assert len(homes) == config.n_users
    matches = sum(1 for user, zone in homes.items() if truth.homes[user] == zone)
    assert matches == len(night_users)

    zone_ids = city.zone_ids
    true_counts = {z: 0 for z in zone_ids}
    for zone in truth.homes.values():
        true_counts[zone] += 1
    inferred_counts = {z: 0 for z in zone_ids}
    for zone in homes.values():
        inferred_counts[zone] += 1
    r2 = census_correlation([inferred_counts[z] for z in zone_ids],
                            [true_counts[z] for z in zone_ids])
    assert abs(r2 - 1.0) <= 1e-9
    print(f"PASS: home inference recovers {matches}/{len(night_users)} homes; "
          f"census r2 = {r2:.12f}")


def test_pipeline_determinism(tmp_path):
    """Two runs on identical inputs and config produce byte-identical artifacts."""
    config = SynthConfig(seed=5, n_zones=36, n_users=150, events_per_user_per_day=6.0,
                         n_days=3, home_bias=0.5, centre_decay_per_km=0.1)
    fixture = materialize(config, tmp_path)
    first = {p.name: p.read_bytes() for p in fixture.out.iterdir()}
    run_pipeline(fixture.config)  # same output directory, same everything
    second = {p.name: p.read_bytes() for p in fixture.out.iterdir()}
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    print(f"PASS: determinism, {len(first)} artifacts byte-identical across reruns")
