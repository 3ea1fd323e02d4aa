"""Predominant land-use classification of zones, as class codes, and class grouping.

A zone is classed residential when more than ``PREDOMINANCE_THRESHOLD`` of its
built surface is residential, activity when more than the same share is
non-residential (carrying the dominant activity category), and mixed otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .tables import FLOAT_FORMAT, write_csv

if TYPE_CHECKING:
    from .spatial import ZoneTable


PREDOMINANCE_THRESHOLD = 0.666


# The land-use categories; their order is the tie-break order
CATEGORIES: tuple[str, ...] = ("office", "industry", "retail", "health", "education", "culture",
                               "transport", "park", "other", "residential")
# The zone-file key of each category, e.g. ``lu_retail_m2``
COLUMNS: tuple[str, ...] = tuple(f"lu_{name}_m2" for name in CATEGORIES)
ACTIVITY_CATEGORIES = CATEGORIES[:-1]


# Every class a zone can get, indexed by class code: residential, mixed, then
# ``activity:<category>`` by category. Code -1 is an unclassified zone.
CLASSES: tuple[str, ...] = (
    "residential", "mixed", *(f"activity:{name}" for name in ACTIVITY_CATEGORIES))

# Profile and density labels in output order: the three kinds, then each activity class
LABELS: tuple[str, ...] = (*CLASSES[:2], "activity", *CLASSES[2:])


def classify_zones(table: "ZoneTable", threshold: float = PREDOMINANCE_THRESHOLD) -> np.ndarray:
    """The predominant class of every zone, as class codes in the table's row order.

    Code ``k`` is ``CLASSES[k]``. A residential share of built surface
    strictly above ``threshold`` is residential; strictly below
    ``1 - threshold`` (non-residential predominant) is activity, labelled
    with the first largest non-residential column of the land-use matrix,
    which is the :data:`CATEGORIES`-order tie-break; the closed middle band is
    mixed. -1 marks a zone that cannot be classified (zero built surface):
    it is excluded from profile analyses but stays in regressions with
    whatever areas it carries.
    """
    total = table.built_total_m2
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = table.built_residential_m2 / total
    codes = np.where(fraction > threshold, 0, 1)
    activity = fraction < 1.0 - threshold
    codes[activity] = 2 + np.argmax(table.landuse_m2[activity, :len(ACTIVITY_CATEGORIES)],
                                     axis=1)
    codes[total <= 0] = -1
    return codes


def class_groups(codes: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Each label of :data:`LABELS` that has zones, with its zone rows ascending.

    A classified zone belongs to its kind (residential, mixed or activity), and
    an activity zone also to its ``activity:<sub>`` label; code -1 belongs to
    none. Labels without zones are left out.
    """
    kinds = np.minimum(codes, 2)
    groups = [(label, np.flatnonzero(kinds == k)) for k, label in enumerate(LABELS[:3])]
    groups += [(label, np.flatnonzero(codes == k)) for k, label in enumerate(LABELS[3:], 2)]
    return [(label, rows) for label, rows in groups if len(rows)]


def home_zones(codes: np.ndarray) -> np.ndarray:
    """Rows, ascending, of the zones whose class can hold a home: residential or mixed."""
    return np.flatnonzero((codes == 0) | (codes == 1))


def class_sums(codes: np.ndarray, values: np.ndarray | Iterable[np.ndarray]) -> dict:
    """Per label of :func:`class_groups`, the sum of its zones' ``values``.

    ``values`` holds one value per zone (each sum a float) or one row of
    values per zone (each sum an array), or is an iterable of such arrays
    holding consecutive blocks of zone rows. Each sum adds zone after zone
    (``np.add.at`` is unbuffered and in order), as a running sum would, and as
    ``values[rows].sum(axis=0)`` of a 2-d array does; ``values[rows].sum()``
    of one value per zone sums pairwise and can differ in the last bit.
    """
    groups = class_groups(codes)
    if not groups:
        return {}
    # every classified zone adds into its kind's sum, an activity zone also
    # into its subcategory's; a zone without a sum there adds into a spare one
    spare = len(groups)
    targets = np.full((2, len(codes)), spare, dtype=np.int64)
    for g, (label, rows) in enumerate(groups):
        targets[0 if label in LABELS[:3] else 1, rows] = g
    sums = None
    lo = 0
    for block in [values] if isinstance(values, np.ndarray) else values:
        if sums is None:
            sums = np.zeros((spare + 1, *block.shape[1:]))
        cells = np.arange(sums[0].size)
        for target in targets[:, lo:lo + len(block)]:
            # one flat index a value: at 4,900 x 96 a 1-d np.add.at took a
            # third of the time of one adding whole rows into a 2-d array
            np.add.at(sums.reshape(-1), (target[:, None] * cells.size + cells).reshape(-1),
                      block.reshape(-1))
        lo += len(block)
    return {label: s for (label, _), s in zip(groups, sums.tolist() if sums.ndim == 1 else sums)}


def write_classification_csv(path, table: "ZoneTable", codes: np.ndarray) -> None:
    """Export zone_id,class,subcategory,residential_fraction (unclassified rows blank)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = (table.built_residential_m2 / table.built_total_m2).tolist()
    codes = codes.tolist()
    # class and subcategory per code, split once; code -1 takes the blank last entry
    parts = [key.partition(":") for key in CLASSES] + [("", "", "")]
    fractions = [FLOAT_FORMAT % f if c >= 0 else "" for c, f in zip(codes, fractions)]
    write_csv(path, ["zone_id", "class", "subcategory", "residential_fraction"],
              [table.zone_ids, [parts[c][0] for c in codes], [parts[c][2] for c in codes],
               fractions])
