import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citypulse import activity
from citypulse.activity import (DEFAULT_SLOTS, KEY_CHUNK, N_QUARTER_BINS, NORMALIZATION_TOTAL,
                                PROFILE_BLOCK_ROWS, QUARTER_LABELS, AssignedEvents, MajorSlot,
                                aggregate_major_slots, count_daily_unique, count_unique_users,
                                density_per_hectare, landuse_profile, normalize_counts,
                                validate_slots)
from citypulse.errors import ConfigError, DataError
from citypulse.landuse import CLASSES, class_groups
from citypulse.stats import DEFAULT_NIGHT_BINS, infer_homes

from scalar_reference import dedup_matrix, encode, quarter_counts, quarter_matrix


def test_repeat_events_in_same_cell_count_once():
    events = [("a", "Z", 40)] * 5
    matrix = quarter_matrix(count_unique_users(encode(events)))
    assert matrix[0, 40] == 1
    assert matrix.sum() == 1


def test_distinct_users_both_count():
    matrix = quarter_matrix(count_unique_users(encode([("a", "Z", 40), ("b", "Z", 40)])))
    assert matrix[0, 40] == 2


def test_user_in_two_bins_counts_once_per_bin():
    matrix = quarter_matrix(count_unique_users(
        encode([("a", "Z", 40), ("a", "Z", 41), ("a", "Z", 41)])))
    assert matrix[0, 40] == 1
    assert matrix[0, 41] == 1
    assert matrix.sum() == 2


def test_user_in_two_zones_same_bin_counts_in_each():
    quarter = count_unique_users(encode([("a", "Y", 40), ("a", "Z", 40)]))
    matrix = quarter_matrix(quarter)
    assert matrix[quarter.zone_ids.index("Y"), 40] == 1
    assert matrix[quarter.zone_ids.index("Z"), 40] == 1


def test_zone_rows_sorted_and_zero_rows_kept():
    quarter = count_unique_users(encode([("a", "B", 0)], ["C", "A", "B"]))
    matrix = quarter_matrix(quarter)
    assert quarter.zone_ids == ("A", "B", "C")
    assert matrix[1, 0] == 1
    assert matrix[0].sum() == 0 and matrix[2].sum() == 0


def test_unknown_zone_rejected_with_explicit_zone_set():
    with pytest.raises(DataError, match="unknown zone"):
        encode([("a", "X", 0)], ["A"])


def test_bin_outside_day_rejected():
    with pytest.raises(DataError, match="bin outside"):
        encode([("a", "A", 96)])


def test_from_tuples_builds_the_pipeline_dtypes():
    events = encode([("a", "Z", 40), ("b", "Y", 95)])
    assert (events.users.dtype, events.zones.dtype, events.bins.dtype) == (
        np.int32, np.int32, np.int8)


def test_keys_past_int32_match_a_set_reference():
    # 100,000 users x 24,000 zones: the (user, zone) key of the homes reaches
    # 2.4e9 and the (user, zone, bin) key of the dedup 2.3e11, both past 2**31,
    # where int32 codes times a Python int wrap without a word
    n_users, n_zones = 100_000, 24_000
    user_ids = tuple(f"u{u:06d}" for u in range(n_users))
    zone_ids = tuple(f"z{z:05d}" for z in range(n_zones))
    # every 97th user and the last 300, each with two night events in one
    # zone near the end of the table, one in another zone and one by day
    rows = []
    for u in sorted({*range(0, n_users, 97), *range(n_users - 300, n_users)}):
        home, other = n_zones - 1 - u % 500, u * 7919 % n_zones
        rows += [(u, home, 88 + u % 8), (u, home, 95), (u, other, 90), (u, other, u % 88)]
    users, zones, bins = (np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*rows), (np.int32, np.int32, np.int8)))
    events = AssignedEvents(user_ids, zone_ids, users, zones, bins)

    slot_of = {b: i for i, slot in enumerate(DEFAULT_SLOTS) for b in slot.bins}
    for matrix, col_of, n_cols in (
            (quarter_matrix(count_unique_users(events)), lambda b: b, 96),
            (aggregate_major_slots(events), slot_of.get, len(DEFAULT_SLOTS)),
            (count_daily_unique(events), lambda b: 0, 1)):
        expected = np.zeros((n_zones, n_cols), dtype=np.int64)
        for _, z, col in {(u, z, col_of(b)) for u, z, b in rows if col_of(b) is not None}:
            expected[z, col] += 1
        np.testing.assert_array_equal(matrix, expected)

    night, total = {}, {}
    for u, z, b in rows:
        total[u, z] = total.get((u, z), 0) + 1
        if b in DEFAULT_NIGHT_BINS:
            night[u, z] = night.get((u, z), 0) + 1
    best = {}
    for (u, z), count in night.items():
        rank = (-count, -total[u, z], zone_ids[z])
        if u not in best or rank < best[u][0]:
            best[u] = (rank, zone_ids[z])
    expected_homes = {user_ids[u]: zone for u, (_, zone) in sorted(best.items())}
    homes = infer_homes(events)
    assert list(homes.items()) == list(expected_homes.items())


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dedup_idempotence_under_duplication(data):
    events = data.draw(st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from(["Z1", "Z2"]),
                  st.integers(0, 95)),
        min_size=1, max_size=40))
    subset = data.draw(st.lists(st.sampled_from(events), max_size=20))
    base = count_unique_users(encode(events, ["Z1", "Z2"]))
    doubled = count_unique_users(encode(events + subset, ["Z1", "Z2"]))
    np.testing.assert_array_equal(base.cells, doubled.cells)
    np.testing.assert_array_equal(base.counts, doubled.counts)


def test_normalize_proportional_example():
    matrix = quarter_matrix(count_unique_users(encode(
        [(f"u{i}", "z1", 0) for i in range(50)] + [(f"v{i}", "z2", 0) for i in range(150)],
        ["z1", "z2"])))
    normalized = normalize_counts(matrix)
    assert normalized[0, 0] == pytest.approx(25000.0)
    assert normalized[1, 0] == pytest.approx(75000.0)


def test_normalized_nonzero_columns_sum_to_total():
    rng = np.random.default_rng(4)
    events = [(f"u{rng.integers(50)}", f"z{rng.integers(5)}", int(rng.integers(96)))
              for _ in range(400)]
    matrix = quarter_matrix(count_unique_users(encode(events)))
    sums = normalize_counts(matrix).sum(axis=0)
    for k in range(96):
        if not matrix[:, k].any():
            assert sums[k] == 0.0
        else:
            assert sums[k] == pytest.approx(100000.0, rel=1e-6)


def test_normalize_matches_hand_computation():
    matrix = quarter_matrix(count_unique_users(encode(
        [("a", "z1", 10), ("b", "z1", 10), ("c", "z2", 10), ("d", "z3", 10),
         ("e", "z3", 10), ("f", "z3", 10)], ["z1", "z2", "z3"])))
    normalized = normalize_counts(matrix)
    # hand: T_h = 6, values = (2, 1, 3) / 6 * 100000
    assert normalized[0, 10] == pytest.approx(2 / 6 * 100000)
    assert normalized[1, 10] == pytest.approx(1 / 6 * 100000)
    assert normalized[2, 10] == pytest.approx(3 / 6 * 100000)


def test_normalize_flags_empty_columns(caplog):
    with caplog.at_level("INFO", logger="citypulse.activity"):
        normalized = normalize_counts(quarter_matrix(count_unique_users(encode([("a", "Z", 40)]))))
    assert caplog.messages == ["95 time bins have no active users"]
    assert normalized[0, 39] == 0.0
    assert normalized[0, 40] == 100000.0


def test_normalize_scale_invariance():
    base = quarter_matrix(count_unique_users(
        encode([("a", "Z", 5), ("b", "Z", 5), ("c", "Y", 5)], ["Y", "Z"])))
    scaled = base.copy()
    scaled[:, 5] *= 7
    np.testing.assert_allclose(normalize_counts(base)[:, 5], normalize_counts(scaled)[:, 5])


def test_slot_scope_dedup():
    # bins 40 and 41 are both morning; 60 is afternoon
    matrix = aggregate_major_slots(encode([("a", "Z", 40), ("a", "Z", 41)]))
    assert matrix.dtype == np.int64
    assert matrix[0].tolist() == [1, 0, 0, 0]
    matrix = aggregate_major_slots(encode([("a", "Z", 40), ("a", "Z", 60)]))
    assert matrix[0].tolist() == [1, 1, 0, 0]


def test_slot_counts_not_sums_of_quarter_counts():
    events = [("a", "Z", b) for b in range(32, 56)]  # active in every morning bin
    quarter = count_unique_users(encode(events))
    slots = aggregate_major_slots(encode(events))
    assert quarter.counts.sum() == 24
    assert slots[0, 0] == 1


def test_bins_outside_slots_are_excluded():
    matrix = aggregate_major_slots(encode([("a", "Z", 0), ("a", "Z", 31)]))  # early morning
    assert matrix.sum() == 0


def test_six_user_fixture_hand_enumerated():
    events = [
        ("u1", "A", 33), ("u1", "A", 50),   # morning x2 -> 1
        ("u2", "A", 33), ("u2", "B", 40),   # morning in two zones -> 1 each
        ("u3", "B", 60),                    # afternoon
        ("u4", "A", 80), ("u4", "A", 90),   # evening + night
        ("u5", "B", 90), ("u5", "B", 91),   # night x2 -> 1
        ("u6", "A", 10),                    # outside all slots
    ]
    matrix = aggregate_major_slots(encode(events, ["A", "B"]))
    assert matrix.tolist() == [[2, 0, 1, 1], [1, 1, 0, 1]]


def test_overlapping_slot_config_fatal():
    with pytest.raises(ConfigError, match="overlaps"):
        validate_slots((MajorSlot("a", 0, 10), MajorSlot("b", 10, 20)))
    with pytest.raises(ConfigError, match="unique"):
        validate_slots((MajorSlot("a", 0, 10), MajorSlot("a", 11, 20)))


def test_daily_unique_counts():
    matrix = count_daily_unique(encode([("a", "Z", 1), ("a", "Z", 90), ("b", "Z", 50)]))
    assert matrix.tolist() == [[2]] and matrix.dtype == np.int64


RES = "residential"
RETAIL = "activity:retail"
OFFICE = "activity:office"


def codes_of(classes, zone_ids):
    """Class code per zone from a zone_id -> class key dict; -1 for a zone without one."""
    return np.array([CLASSES.index(classes[z]) if z in classes else -1 for z in zone_ids],
                    dtype=np.int64)


def test_profile_all_residential_matches_city_columns():
    rng = np.random.default_rng(11)
    events = [(f"u{rng.integers(40)}", f"z{rng.integers(3)}", int(rng.integers(96)))
              for _ in range(300)]
    matrix = count_unique_users(encode(events))
    normalized = normalize_counts(quarter_matrix(matrix))
    profiles, omitted = landuse_profile(matrix, np.zeros(len(matrix.zone_ids), np.int64))
    assert omitted == []
    assert list(profiles) == ["residential"]
    shares = profiles["residential"]
    assert shares.sum() == pytest.approx(1.0, abs=1e-9)
    city = normalized.sum(axis=0)
    np.testing.assert_allclose(shares, city / city.sum())


def test_profile_concentration_follows_activity():
    # retail zones active only in evening bins 76..87
    events = [("a", "R", 80), ("b", "R", 85), ("c", "H", 40), ("d", "H", 90)]
    matrix = count_unique_users(encode(events, ["H", "R"]))
    classes = {"R": RETAIL, "H": RES}
    profiles, _ = landuse_profile(matrix, codes_of(classes, matrix.zone_ids))
    assert profiles["activity:retail"][76:88].sum() == pytest.approx(1.0)
    assert profiles["activity"][76:88].sum() == pytest.approx(1.0)


def test_profiles_partition_city_totals():
    rng = np.random.default_rng(12)
    zone_ids = [f"z{i}" for i in range(6)]
    classes = {"z0": RES, "z1": RES, "z2": "mixed", "z3": RETAIL, "z4": RETAIL, "z5": OFFICE}
    events = [(f"u{rng.integers(60)}", rng.choice(zone_ids), int(rng.integers(96)))
              for _ in range(500)]
    matrix = count_unique_users(encode(events, zone_ids))
    normalized = normalize_counts(quarter_matrix(matrix))
    codes = codes_of(classes, matrix.zone_ids)
    profiles, _ = landuse_profile(matrix, codes)
    kind_of = [CLASSES[c].partition(":")[0] for c in codes.tolist()]
    # each main kind's shares times its daily total: its per-bin sums add up
    # to the city's, every zone here being classified
    per_bin = sum(profiles[m] * normalized[[k == m for k in kind_of]].sum()
                  for m in ["residential", "mixed", "activity"])
    np.testing.assert_allclose(per_bin, normalized.sum(axis=0), rtol=1e-9)


def test_profile_zero_class_omitted():
    events = [("a", "H", 40)]
    profiles, omitted = landuse_profile(count_unique_users(encode(events, ["H", "R"])),
                                        codes_of({"H": RES, "R": RETAIL}, ["H", "R"]))
    assert "activity" in omitted and "activity:retail" in omitted
    assert list(profiles) == ["residential"]


def test_profile_requires_quarter_granularity():
    with pytest.raises(DataError, match="quarter"):
        landuse_profile(aggregate_major_slots(encode([("a", "Z", 40)])),
                        np.zeros(1, dtype=np.int64))


def two_step_profile(matrix, codes, total):
    """The profiles by the two-step formula: the whole matrix normalized, then
    each class's rows gathered and summed."""
    normalized = normalize_counts(matrix, total)
    profiles, omitted = {}, []
    for label, rows in class_groups(codes):
        totals = normalized[rows].sum(axis=0)
        daily = float(totals.sum())
        if daily == 0.0:
            omitted.append(label)
            continue
        profiles[label] = totals / daily
    return profiles, omitted


B = PROFILE_BLOCK_ROWS


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, B - 1, B, B + 1]) | st.integers(2, 3 * B + 7),
       present=st.sets(st.integers(-1, len(CLASSES) - 1), min_size=1),
       zero_bins=st.sets(st.integers(0, N_QUARTER_BINS - 1)),
       idle=st.none() | st.integers(-1, len(CLASSES) - 1),
       total=st.sampled_from([NORMALIZATION_TOTAL, 1.0, 3.7e4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_profiles_match_two_step_formula(n, present, zero_bins, idle, total, seed):
    rng = np.random.default_rng(seed)
    # only the drawn codes occur: a city may lack a main kind, and -1 is unclassified
    codes = rng.choice(sorted(present), n)
    counts = rng.integers(0, rng.choice([1, 3, 1_000, 100_000], (n, 1)), (n, N_QUARTER_BINS))
    counts[:, sorted(zero_bins)] = 0  # bins without users
    counts[codes == idle] = 0  # a class whose total is 0
    zone_ids = tuple(f"z{i:04d}" for i in range(n))
    profiles, omitted = landuse_profile(quarter_counts(zone_ids, counts), codes, total)
    expected, expected_omitted = two_step_profile(counts, codes, total)
    assert omitted == expected_omitted
    assert list(profiles) == list(expected)
    for label, shares in expected.items():
        assert np.array_equal(profiles[label], shares)


@st.composite
def located_events(draw):
    """Assigned events on 1, B - 1, B, B + 1, 2B + 1 or any number of zones: none
    at all, from one user, all in one cell, or spread over the first zones, so
    that the zones past them (the last among them) have none. Some put users on
    both sides of each block edge."""
    n_zones = draw(st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1]) | st.integers(2, 600))
    shape = draw(st.sampled_from(["none", "one user", "one cell", "spread"]))
    n_events = 0 if shape == "none" else draw(st.integers(1, 400))
    n_users = 1 if shape == "one user" else draw(st.integers(0 if shape == "none" else 1, 60))
    used = draw(st.integers(1, n_zones))  # zones used: the first `used`
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = rng.integers(0, max(n_users, 1), n_events)
    if shape == "one cell":
        zones = np.full(n_events, rng.integers(used))
        bins = np.full(n_events, rng.integers(N_QUARTER_BINS))
    else:
        zones = rng.integers(0, used, n_events)
        bins = rng.integers(0, N_QUARTER_BINS, n_events)
    if shape == "spread" and draw(st.booleans()):
        edges = [e for e in range(B, n_zones, B) for e in (e - 1, e)]
        users = np.concatenate([users, rng.integers(0, n_users, len(edges))])
        zones = np.concatenate([zones, edges])
        bins = np.concatenate([bins, [N_QUARTER_BINS - 1, 0] * (len(edges) // 2)])
    return AssignedEvents(tuple(f"u{i:02d}" for i in range(n_users)),
                          tuple(f"z{i:04d}" for i in range(n_zones)), users.astype(np.int32),
                          zones.astype(np.int32), bins.astype(np.int8))


@settings(max_examples=200, deadline=None)
@given(events=located_events(), total=st.sampled_from([NORMALIZATION_TOTAL, 3.7e4]),
       seed=st.integers(0, 2 ** 32 - 1), key_chunk=st.sampled_from([1, 2, 3, KEY_CHUNK]))
def test_quarter_blocks_match_the_dense_counts(events, total, seed, key_chunk, tmp_path_factory):
    from citypulse.pipeline import write_quarter_csv
    from citypulse.tables import write_csv
    # the dense path: one (user, zone, bin) key and a bincount over zones x 96;
    # the counts read the sorted key in parts of `key_chunk` entries, so that
    # a (zone, user) run may span parts
    dense = dedup_matrix(events, events.bins, N_QUARTER_BINS)
    slot_of = np.full(N_QUARTER_BINS, -1)
    for i, slot in enumerate(DEFAULT_SLOTS):
        slot_of[slot.bins] = i
    with mock.patch.object(activity, "KEY_CHUNK", key_chunk):
        slots = aggregate_major_slots(events)
        days = count_daily_unique(events)
        quarter = count_unique_users(events)
    assert np.array_equal(slots, dedup_matrix(events, slot_of[events.bins], len(DEFAULT_SLOTS)))
    assert np.array_equal(days, dedup_matrix(events, np.zeros_like(events.bins), 1))
    assert quarter.cells.dtype == quarter.counts.dtype == np.int32
    assert np.all(np.diff(quarter.cells) > 0) and np.all(quarter.counts > 0)
    blocks = list(quarter.blocks())
    assert [len(b) for b in blocks] == [len(dense[lo:lo + B])
                                        for lo in range(0, len(dense), B)]
    assert np.array_equal(np.vstack(blocks), dense)
    assert np.array_equal(quarter.column_totals(), dense.sum(axis=0))

    codes = np.random.default_rng(seed).integers(-1, len(CLASSES), len(events.zone_ids))
    profiles, omitted = landuse_profile(quarter, codes, total)
    expected, expected_omitted = two_step_profile(dense, codes, total)
    assert omitted == expected_omitted
    assert list(profiles) == list(expected)
    for label, shares in expected.items():
        assert np.array_equal(profiles[label], shares)

    tmp = tmp_path_factory.mktemp("quarter")
    write_quarter_csv(tmp / "blocks.csv", quarter)
    write_csv(tmp / "dense.csv", ["zone_id", *QUARTER_LABELS], [events.zone_ids, *dense.T])
    assert (tmp / "blocks.csv").read_bytes() == (tmp / "dense.csv").read_bytes()


def test_quarter_counts_memory_grows_by_bytes_per_event():
    # A fine-grid city: 4,900 zones, 30,000 events from 300 users. The dense
    # zones x 96 int64 matrix alone is 3.76 MB. Counted as sorted nonzero
    # cells, then made dense one 256-zone block at a time, the counts and one
    # pass over the blocks peak at 0.97 MB traced; counting into the dense
    # matrix (one bincount over zones x 96) peaked at 4.30 MB.
    rng = np.random.default_rng(21)
    n_zones, n_events, n_users = 4_900, 30_000, 300
    events = AssignedEvents(tuple(f"u{i:03d}" for i in range(n_users)),
                            tuple(f"z{i:04d}" for i in range(n_zones)),
                            rng.integers(0, n_users, n_events).astype(np.int32),
                            rng.integers(0, n_zones, n_events).astype(np.int32),
                            rng.integers(0, N_QUARTER_BINS, n_events).astype(np.int8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        quarter = count_unique_users(events)
        rows = sum(len(block) for block in quarter.blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n_zones
    assert peak - before < n_zones * N_QUARTER_BINS * 8 / 3


def test_profile_memory_grows_by_bytes_per_zone():
    # A fine-grid city: 4,900 zones x 96 bins, 3.76 MB as int64 counts. The
    # profiles make and normalize 256 zone rows at a time from the nonzero
    # cells: measured 0.92 MB traced peak (0.69 MB when the dense matrix was
    # their input). Normalizing the whole matrix first, then gathering each
    # class's rows, peaked at 6.69 MB, more than one extra matrix.
    rng = np.random.default_rng(5)
    n = 4_900
    counts = rng.poisson(0.4, (n, N_QUARTER_BINS))
    codes = rng.integers(-1, len(CLASSES), n)
    quarter = quarter_counts([f"z{i:04d}" for i in range(n)], counts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        landuse_profile(quarter, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.int64
    assert peak - before < counts.nbytes / 4


def test_profile_label_order():
    classes = {"a": RETAIL, "b": RES, "c": OFFICE}
    groups = class_groups(codes_of(classes, "abc"))
    assert [label for label, _ in groups] == ["residential", "activity",
                                              "activity:office", "activity:retail"]
    assert [rows.tolist() for _, rows in groups] == [[1], [0, 2], [2], [0]]


def test_density_simple_division():
    densities, omitted = density_per_hectare({"retail": 100.0}, {"retail": 50.0})
    assert densities == {"retail": 2.0}
    assert omitted == []


def test_density_zero_area_omitted():
    densities, omitted = density_per_hectare({"park": 10.0}, {"park": 0.0})
    assert densities == {}
    assert omitted == ["park"]


def test_density_ordering_transport_over_industry():
    # a compact terminal with many users vs sprawling low-activity industry
    totals = {"activity:transport": 1068.0, "activity:industry": 2166.0}
    areas = {"activity:transport": 70.0, "activity:industry": 4500.0}
    densities, _ = density_per_hectare(totals, areas)
    assert densities["activity:transport"] > densities["activity:industry"]
