import json

import numpy as np
import pytest

from citypulse import synth
from citypulse.activity import aggregate_major_slots, count_unique_users
from citypulse.errors import ConfigError
from citypulse.ingest import filter_workdays, get_timezone, parse_events, write_events_ndjson
from citypulse.landuse import CLASSES, LandUseClass, classify_zones
from citypulse.spatial import ZoneTable, build_zone_index
from citypulse.stats import infer_homes
from citypulse.synth import (SynthConfig, allocate_counts, city_geojson, generate_city,
                             generate_events, slot_weights_to_intensity)

from scalar_reference import (classify_zone, encode, events_batch, locate, point_in_rings,
                              quarter_bin, zone_rows)
from synth_reference import zone_classes


def small_config(**overrides):
    base = dict(seed=9, n_zones=16, n_users=40, events_per_user_per_day=5.0, n_days=2)
    base.update(overrides)
    return SynthConfig(**base)


def assign(city, events):
    index = build_zone_index(ZoneTable.from_zones(city.zones))
    tz = get_timezone(city.config.timezone)
    codes = index.locate_codes([e.lon for e in events], [e.lat for e in events]).tolist()
    return [(e.user_id, index.zone_ids[c] if c >= 0 else None, quarter_bin(e.timestamp, tz))
            for e, c in zip(events, codes)]


def test_all_residential_city_classifies_residential():
    config = small_config(n_zones=4, class_mix={"residential": 1.0})
    city = generate_city(config)
    assert len(city.zones) == 4
    for zone in city.zones:
        assert classify_zone(zone) == LandUseClass("residential")


def test_zone_off_its_planned_class_stops_the_events(monkeypatch):
    composition = synth._zone_composition
    residential = LandUseClass("residential")
    swapped = []

    def one_residential_zone_mixed(rng, cls, total_m2):
        if cls == residential and not swapped:
            swapped.append(cls)
            cls = LandUseClass("mixed")
        return composition(rng, cls, total_m2)

    monkeypatch.setattr(synth, "_zone_composition", one_residential_zone_mixed)
    city = generate_city(small_config())
    first = next(z.zone_id for z, c in zip(city.zones, city.codes.tolist())
                 if CLASSES[c] == residential)
    with pytest.raises(AssertionError, match=f"generated zone {first} does not classify"):
        generate_events(city)


def test_generation_is_byte_identical_across_runs(tmp_path):
    paths = []
    for run in ("one", "two"):
        config = small_config()
        city = generate_city(config)
        events, _ = generate_events(city)
        zdoc = json.dumps(city_geojson(city))
        epath = tmp_path / f"events_{run}.ndjson"
        write_events_ndjson(events, epath)
        paths.append((zdoc, epath.read_bytes()))
    assert paths[0][0] == paths[1][0]
    assert paths[0][1] == paths[1][1]


def test_largest_remainder_allocation():
    counts = allocate_counts({"residential": 0.5, "mixed": 0.25, "activity:retail": 0.25}, 100)
    assert counts == {"residential": 50, "mixed": 25, "activity:retail": 25}
    counts = allocate_counts({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}, 100)
    assert sorted(counts.values()) == [33, 33, 34]
    assert sum(counts.values()) == 100


def test_infeasible_mix_is_fatal():
    with pytest.raises(ConfigError, match="zero zones"):
        allocate_counts({"residential": 0.999, "mixed": 0.001}, 10)


def test_config_validation():
    with pytest.raises(ConfigError, match="sum"):
        SynthConfig(class_mix={"residential": 0.7}).validate()
    with pytest.raises(ConfigError, match="home_bias"):
        small_config(home_bias=1.5).validate()
    with pytest.raises(ConfigError):
        small_config(intensities={"residential": np.ones(5)}).validate()


def test_mass_targets_sum_to_one():
    targets = small_config().mass_targets()
    assert sum(targets.values()) == pytest.approx(1.0)


def test_slot_weights_spread_over_bins():
    intensity = slot_weights_to_intensity({"morning": 10.0, "night": 30.0})
    assert intensity.sum() == pytest.approx(1.0)
    assert intensity[:32].sum() == 0.0  # before 08:00 nothing
    assert intensity[88] == pytest.approx(30.0 / 8.0 / 40.0)
    assert intensity[40] == pytest.approx(10.0 / 24.0 / 40.0)


def test_events_parse_cleanly_and_are_workdays():
    config = small_config()
    city = generate_city(config)
    events, _ = generate_events(city)
    kept = filter_workdays(events_batch(events), config.timezone)
    assert list(kept) == list(events)


def test_generated_events_round_trip_with_zero_rejections(tmp_path):
    city = generate_city(small_config())
    events, _ = generate_events(city)
    path = tmp_path / "events.ndjson"
    write_events_ndjson(events, path)
    parsed, report = parse_events(path, "ndjson")
    assert report.rejected == 0
    assert list(parsed) == list(events)


def test_every_point_falls_in_exactly_one_zone():
    city = generate_city(small_config())
    events, _ = generate_events(city)
    index = build_zone_index(ZoneTable.from_zones(city.zones))
    for event in list(events)[:300]:
        owners = [z.zone_id for z in city.zones
                  if point_in_rings(z.rings, event.lon, event.lat)]
        assert len(owners) == 1
        assert locate(index, event.lon, event.lat) == owners[0]


def test_home_bias_one_recovers_every_home():
    config = small_config(n_users=60, home_bias=1.0, ensure_night_event=True)
    city = generate_city(config)
    events, truth = generate_events(city)
    assigned = assign(city, events)
    eligible = {z for z, cls in zone_classes(city).items()
                if cls.kind in ("residential", "mixed")}
    homes = infer_homes(encode(assigned, city.zone_ids), range(88, 96), eligible)
    assert set(homes) == set(truth.homes)
    assert homes == truth.homes


def test_intensity_support_constraint_confines_events():
    # retail zones receive users only in the evening bins
    intensities = {
        "residential": slot_weights_to_intensity({"morning": 1, "afternoon": 1,
                                                  "evening": 1, "night": 1}),
        "activity:retail": slot_weights_to_intensity({"evening": 1.0}),
    }
    config = small_config(
        class_mix={"residential": 0.5, "activity:retail": 0.5},
        intensities=intensities, home_bias=0.0, n_users=80)
    city = generate_city(config)
    events, _ = generate_events(city)
    retail_zones = {z for z, cls in zone_classes(city).items() if cls.kind == "activity"}
    assigned = assign(city, events)
    retail_bins = {b for _, z, b in assigned if z in retail_zones}
    assert retail_bins
    assert retail_bins <= set(range(76, 88))


def test_truth_profiles_sum_to_one():
    city = generate_city(small_config())
    _, truth = generate_events(city)
    for label, shares in truth.profiles.items():
        assert shares.sum() == pytest.approx(1.0, abs=1e-9)
    assert set(truth.slot_class_totals) >= {"residential", "mixed"}


def test_expected_matrices_track_observed_counts():
    # with a decent event volume the realized matrix hugs its expectation
    config = small_config(n_zones=9, n_users=300, events_per_user_per_day=10.0,
                          n_days=3, seed=31)
    city = generate_city(config)
    events, truth = generate_events(city)
    assigned = assign(city, events)
    observed = count_unique_users(encode(assigned, city.zone_ids)).counts.sum()
    expected = truth.expected_quarter.sum()
    assert observed == pytest.approx(expected, rel=0.02)
    observed_slots = aggregate_major_slots(encode(assigned, city.zone_ids), config.slots)
    assert observed_slots.counts.sum() == pytest.approx(truth.expected_slots.sum(), rel=0.02)


def test_zone_geojson_round_trips_through_loader(tmp_path):
    from citypulse.spatial import load_zones_geojson
    city = generate_city(small_config())
    path = tmp_path / "zones.geojson"
    path.write_text(json.dumps(city_geojson(city)))
    zones = zone_rows(load_zones_geojson(path))
    assert [z.zone_id for z in zones] == [z.zone_id for z in city.zones]
    for loaded, original in zip(zones, city.zones):
        assert loaded.rings == original.rings
        assert loaded.built_total_m2 == pytest.approx(original.built_total_m2)


def test_profile_round_trip_error_shrinks_with_more_events():
    errors = {}
    for scale, users in (("small", 120), ("large", 1200)):
        config = SynthConfig(seed=77, n_zones=25, n_users=users,
                             events_per_user_per_day=8.0, n_days=3, home_bias=0.3)
        city = generate_city(config)
        events, truth = generate_events(city)
        assigned = assign(city, events)
        from citypulse.activity import landuse_profile
        profiles, _ = landuse_profile(count_unique_users(encode(assigned, city.zone_ids)),
                                      classify_zones(ZoneTable.from_zones(city.zones)))
        by_label = {p.label: p.shares for p in profiles}
        errors[scale] = sum(
            np.abs(by_label[label] - truth.profiles[label]).sum()
            for label in ("residential", "mixed", "activity"))
    assert errors["large"] < errors["small"]
