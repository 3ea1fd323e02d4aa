import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse.activity import (N_QUARTER_BINS, NORMALIZATION_TOTAL, QUARTER_LABELS,
                                ActivityMatrix, density_per_hectare, landuse_profile,
                                normalize_counts)
from citypulse.landuse import (ACTIVITY_CATEGORIES, CATEGORIES, CLASSES, LandUseCategory,
                               class_sums, classify_zones, write_classification_csv)
from citypulse.spatial import Zone, ZoneTable
from citypulse.synth import SynthConfig, generate_city, generate_events

from conftest import materialize
from scalar_reference import ClassificationError, classify_zone, quarter_counts
from synth_reference import zone_classes

RING = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def zone_with(zone_id="z", landuse=None, residential=None, total=None):
    landuse = landuse or {}
    if residential is None:
        residential = landuse.get(LandUseCategory.RESIDENTIAL, 0.0)
    if total is None:
        total = sum(landuse.values())
    return Zone(zone_id, (RING,), area_ha=1.0, landuse_m2=landuse,
                built_residential_m2=residential, built_total_m2=total)


def test_high_residential_fraction_is_residential():
    zone = zone_with(landuse={LandUseCategory.RESIDENTIAL: 7000.0,
                              LandUseCategory.OFFICE: 3000.0})
    assert classify_zone(zone) == "residential"


def test_middle_band_is_mixed():
    zone = zone_with(landuse={LandUseCategory.RESIDENTIAL: 5000.0,
                              LandUseCategory.RETAIL: 5000.0})
    assert classify_zone(zone) == "mixed"


def test_activity_subcategory_is_argmax_of_nonresidential():
    zone = zone_with(landuse={LandUseCategory.RESIDENTIAL: 1000.0,
                              LandUseCategory.OFFICE: 5000.0,
                              LandUseCategory.RETAIL: 3000.0,
                              LandUseCategory.EDUCATION: 1000.0})
    assert classify_zone(zone) == "activity:office"


def test_activity_tie_breaks_by_enumeration_order():
    zone = zone_with(landuse={LandUseCategory.RESIDENTIAL: 500.0,
                              LandUseCategory.RETAIL: 4750.0,
                              LandUseCategory.OFFICE: 4750.0})
    assert classify_zone(zone) == "activity:office"


@pytest.mark.parametrize("fraction,kind", [
    (0.70, "residential"), (0.667, "residential"),
    (0.666, "mixed"), (0.50, "mixed"), (0.334, "mixed"),
    (0.333, "activity"), (0.10, "activity"),
])
def test_threshold_boundaries(fraction, kind):
    zone = zone_with(landuse={LandUseCategory.RESIDENTIAL: fraction * 1000.0,
                              LandUseCategory.RETAIL: (1 - fraction) * 1000.0},
                     residential=fraction * 1000.0, total=1000.0)
    assert classify_zone(zone).partition(":")[0] == kind


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    res=st.floats(min_value=0.0, max_value=1.0),
    areas=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=4),
)
def test_classification_is_scale_invariant(scale, res, areas):
    landuse = {LandUseCategory.RESIDENTIAL: res * 1000.0 + 1.0}
    for cat, area in zip(ACTIVITY_CATEGORIES, areas):
        landuse[cat] = area
    base = zone_with(landuse=landuse)
    scaled = zone_with(landuse={c: a * scale for c, a in landuse.items()})
    assert classify_zone(base) == classify_zone(scaled)


def test_zero_built_total_raises_naming_zone():
    zone = zone_with(zone_id="empty", landuse={})
    with pytest.raises(ClassificationError, match="empty"):
        classify_zone(zone)


def test_classify_zones_collects_unclassified():
    good = zone_with(zone_id="a", landuse={LandUseCategory.RESIDENTIAL: 100.0})
    bad = zone_with(zone_id="b", landuse={})
    codes = classify_zones(ZoneTable.from_zones([good, bad]))
    assert codes.tolist() == [CLASSES.index("residential"), -1]


def test_area_table_single_retail_zone():
    table = ZoneTable.from_zones([zone_with(landuse={LandUseCategory.RETAIL: 100.0})])
    assert table.zone_ids == ("z",)
    expected = np.zeros(10)
    expected[CATEGORIES.index(LandUseCategory.RETAIL)] = 100.0
    np.testing.assert_array_equal(table.landuse_m2[0], expected)


def test_area_table_shape_and_row_order():
    zones = [zone_with(zone_id="b", landuse={LandUseCategory.OFFICE: 1.0}),
             zone_with(zone_id="a", landuse={LandUseCategory.PARK: 2.0})]
    table = ZoneTable.from_zones(zones)
    assert table.zone_ids == ("a", "b")
    assert table.landuse_m2.shape == (2, 10)


def test_area_table_column_sums_match_recomputation():
    rng = np.random.default_rng(9)
    zones = []
    for i in range(20):
        landuse = {cat: float(rng.integers(0, 1000)) for cat in CATEGORIES}
        zones.append(zone_with(zone_id=f"z{i:02d}", landuse=landuse))
    table = ZoneTable.from_zones(zones).landuse_m2
    for j, cat in enumerate(CATEGORIES):
        direct = sum(z.landuse_m2.get(cat, 0.0) for z in zones)
        assert table[:, j].sum() == pytest.approx(direct)


def test_benchmark_class_keys_are_the_classes():
    # the benchmark's fine-grid workload names every class by its own tuple
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.ALL_CLASS_KEYS == CLASSES
    assert all(isinstance(key, str) for key in CLASSES)


def test_planned_class_keys_reach_both_exports(tmp_path):
    # a city of all 11 classes, run end to end: each zone's class in the
    # classification CSV and in the GeoJSON export is the key it was planned as
    config = SynthConfig(seed=23, n_zones=44, n_users=40, events_per_user_per_day=4.0,
                         class_mix={key: 1 / len(CLASSES) for key in CLASSES})
    fixture = materialize(config, tmp_path)
    planned = zone_classes(fixture.city)
    assert len(CLASSES) == 11 and sorted(set(planned.values())) == sorted(CLASSES)
    with open(fixture.out / "landuse_classes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["zone_id"]: ":".join(filter(None, (row["class"], row["subcategory"])))
            for row in rows} == planned
    features = json.loads((fixture.out / "zones_metrics.geojson").read_text(encoding="utf-8"))
    assert {f["properties"]["zone_id"]: f["properties"]["landuse_class"]
            for f in features["features"]} == planned


def test_classification_csv_export(tmp_path):
    zones = [zone_with(zone_id="a", landuse={LandUseCategory.RESIDENTIAL: 750.0,
                                             LandUseCategory.RETAIL: 250.0}),
             zone_with(zone_id="b", landuse={})]
    table = ZoneTable.from_zones(zones)
    path = tmp_path / "classes.csv"
    write_classification_csv(path, table, classify_zones(table))
    lines = path.read_text().splitlines()
    assert lines[0] == "zone_id,class,subcategory,residential_fraction"
    assert lines[1] == "a,residential,,0.75"
    assert lines[2] == "b,,,"


# --- class grouping against the per-zone dict walk ------------------------------
# The references walk a zone_id -> class key dict zone by zone, as the
# profiles, the density rows, the classification CSV and the synth truth did
# before they shared class_groups over the code array.

MAIN_CLASS_ORDER = ("residential", "mixed", "activity")


def reference_profile_labels(classes):
    """Main kinds present, then activity subcategories present, in enumeration order."""
    kinds = {key.partition(":")[0] for key in classes.values()}
    labels = [k for k in MAIN_CLASS_ORDER if k in kinds]
    labels.extend(f"activity:{c.value}" for c in ACTIVITY_CATEGORIES
                  if f"activity:{c.value}" in classes.values())
    return labels


def reference_rows_by_label(zone_ids, classes):
    rows_by_label = {}
    for i, zone_id in enumerate(zone_ids):
        key = classes.get(zone_id)
        if key is None:
            continue
        kind = key.partition(":")[0]
        rows_by_label.setdefault(kind, []).append(i)
        if kind == "activity":
            rows_by_label.setdefault(key, []).append(i)
    return rows_by_label


def reference_profiles(normalized, classes):
    rows_by_label = reference_rows_by_label(normalized.zone_ids, classes)
    profiles, omitted = [], []
    for label in reference_profile_labels(classes):
        rows = rows_by_label.get(label)
        if not rows:
            continue
        totals = normalized.values[rows].sum(axis=0)
        daily = float(totals.sum())
        if daily == 0.0:
            omitted.append(label)
            continue
        profiles.append((label, (totals / daily).tobytes(), daily))
    return profiles, omitted


def reference_density_rows(zone_ids, classes, day, area_ha):
    """Running sums over the zones in order, then the densities in label order."""
    totals, areas = {}, {}
    for i, zone_id in enumerate(zone_ids):
        key = classes.get(zone_id)
        if key is None:
            continue
        kind = key.partition(":")[0]
        for label in (kind, key) if kind == "activity" else (kind,):
            totals[label] = totals.get(label, 0.0) + day[i]
            areas[label] = areas.get(label, 0.0) + area_ha[i]
    densities, _ = density_per_hectare(totals, areas)
    return [repr((label, float(totals[label]), float(areas[label]), densities[label]))
            for label in reference_profile_labels(classes) if label in densities]


def reference_classification_csv(path, zones, classes):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zone_id", "class", "subcategory", "residential_fraction"])
        for zone in sorted(zones, key=lambda z: z.zone_id):
            key = classes.get(zone.zone_id)
            if key is None:
                writer.writerow([zone.zone_id, "", "", ""])
            else:
                kind, _, sub = key.partition(":")
                writer.writerow([zone.zone_id, kind, sub,
                                 format(zone.built_residential_m2 / zone.built_total_m2,
                                        ".6g")])


@settings(max_examples=150, deadline=None)
@given(codes=st.lists(st.integers(-1, len(CLASSES) - 1), min_size=1, max_size=60),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_class_groups_match_dict_walk(codes, seed, data, tmp_path_factory):
    n = len(codes)
    codes = np.array(codes, dtype=np.int64)
    zone_ids = tuple(f"z{i:02d}" for i in range(n))
    classes = {z: CLASSES[c] for z, c in zip(zone_ids, codes.tolist()) if c >= 0}
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, rng.choice([2, 1_000, 100_000], (n, 1)), (n, N_QUARTER_BINS))
    idle = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    counts[idle] = 0  # zones without activity; a class of only these is omitted
    matrix = ActivityMatrix(zone_ids, QUARTER_LABELS, counts)

    profiles, omitted = landuse_profile(quarter_counts(zone_ids, counts), codes,
                                        NORMALIZATION_TOTAL)
    assert ([(p.label, p.shares.tobytes(), p.daily_total) for p in profiles], omitted) == \
        reference_profiles(normalize_counts(matrix, NORMALIZATION_TOTAL), classes)

    day = rng.random(n) * rng.choice([1.0, 1e3, 1e5], n)
    day[idle] = 0.0
    area_ha = rng.random(n) * rng.choice([0.0, 1.0, 1e4], n)
    totals, areas = class_sums(codes, day), class_sums(codes, area_ha)
    densities, _ = density_per_hectare(totals, areas)
    assert [repr((k, totals[k], areas[k], d)) for k, d in densities.items()] == \
        reference_density_rows(zone_ids, classes, day, area_ha)

    zones = [zone_with(zone_id=z, residential=float(res), total=float(total))
             for z, res, total in zip(zone_ids, rng.random(n) * 100, 100 + rng.random(n) * 1e4)]
    tmp = tmp_path_factory.mktemp("classes")
    write_classification_csv(tmp / "new.csv", ZoneTable.from_zones(zones), codes)
    reference_classification_csv(tmp / "reference.csv", zones, classes)
    assert (tmp / "new.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


@pytest.mark.parametrize("seed", [3, 11])
def test_synth_truth_grouping_matches_dict_walk(seed):
    config = SynthConfig(seed=seed, n_zones=48, n_users=40, events_per_user_per_day=2.0,
                         class_mix={key: 1 / len(CLASSES) for key in CLASSES})
    city = generate_city(config)
    _, truth = generate_events(city)
    quarter, slots = truth.expected_quarter, truth.expected_slots
    normalized = quarter / np.where(quarter.sum(axis=0) > 0, quarter.sum(axis=0), 1.0) * 1e5
    normalized_slots = slots / np.where(slots.sum(axis=0) > 0, slots.sum(axis=0), 1.0) * 1e5

    rows_by_label = reference_rows_by_label(city.zone_ids, zone_classes(city))
    assert set(rows_by_label) == set(truth.slot_class_totals) == set(CLASSES) | {"activity"}
    for label, rows in rows_by_label.items():
        totals = normalized[rows].sum(axis=0)
        assert truth.profiles[label].tobytes() == (totals / totals.sum()).tobytes()
        assert truth.slot_class_totals[label].tobytes() == \
            normalized_slots[rows].sum(axis=0).tobytes()
