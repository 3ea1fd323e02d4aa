"""Predominant land-use classification of zones, as class codes, and class grouping.

A zone is classed residential when more than ``PREDOMINANCE_THRESHOLD`` of its
built surface is residential, activity when more than the same share is
non-residential (carrying the dominant activity category), and mixed otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .tables import write_csv

if TYPE_CHECKING:
    from .spatial import ZoneTable


PREDOMINANCE_THRESHOLD = 0.666


class LandUseCategory(Enum):
    """Closed set of land-use categories; enumeration order is the tie-break order."""

    OFFICE = "office"
    INDUSTRY = "industry"
    RETAIL = "retail"
    HEALTH = "health"
    EDUCATION = "education"
    CULTURE = "culture"
    TRANSPORT = "transport"
    PARK = "park"
    OTHER = "other"
    RESIDENTIAL = "residential"

    @property
    def column(self) -> str:
        """Column name used in zone input files, e.g. ``lu_retail_m2``."""
        return f"lu_{self.value}_m2"


CATEGORIES: tuple[LandUseCategory, ...] = tuple(LandUseCategory)
ACTIVITY_CATEGORIES: tuple[LandUseCategory, ...] = tuple(
    c for c in LandUseCategory if c is not LandUseCategory.RESIDENTIAL
)


@dataclass(frozen=True, order=True)
class LandUseClass:
    """Predominant class of a zone: residential, mixed, or activity with a subcategory."""

    kind: str  # "residential" | "mixed" | "activity"
    sub: LandUseCategory | None = None

    def __post_init__(self):
        if self.kind not in ("residential", "mixed", "activity"):
            raise ValueError(f"unknown land-use class kind {self.kind!r}")
        if self.kind == "activity":
            if self.sub is None or self.sub is LandUseCategory.RESIDENTIAL:
                raise ValueError("activity class requires a non-residential subcategory")
        elif self.sub is not None:
            raise ValueError(f"{self.kind} class carries no subcategory")

    @property
    def key(self) -> str:
        """Stable string form used in CSV exports, e.g. ``activity:retail``."""
        if self.kind == "activity":
            return f"activity:{self.sub.value}"
        return self.kind

    @classmethod
    def from_key(cls, key: str) -> "LandUseClass":
        if key.startswith("activity:"):
            return cls("activity", LandUseCategory(key.split(":", 1)[1]))
        return cls(key)


RESIDENTIAL = LandUseClass("residential")
MIXED = LandUseClass("mixed")


# Every class a zone can get, in class-code order: residential, mixed, then
# activity by category
CLASSES: tuple[LandUseClass, ...] = (
    RESIDENTIAL, MIXED, *(LandUseClass("activity", c) for c in ACTIVITY_CATEGORIES))
_ACTIVITY_COLUMNS = [CATEGORIES.index(c) for c in ACTIVITY_CATEGORIES]

# Profile and density labels in output order: the three kinds, then each activity class
LABELS: tuple[str, ...] = ("residential", "mixed", "activity", *(c.key for c in CLASSES[2:]))


def classify_zones(table: "ZoneTable", threshold: float = PREDOMINANCE_THRESHOLD) -> np.ndarray:
    """The predominant class of every zone, as class codes in the table's row order.

    Code ``k`` is ``CLASSES[k]``. A residential share of built surface
    strictly above ``threshold`` is residential; strictly below
    ``1 - threshold`` (non-residential predominant) is activity, labelled
    with the first largest non-residential column of the land-use matrix,
    which is the enumeration-order tie-break; the closed middle band is
    mixed. -1 marks a zone that cannot be classified (zero built surface):
    it is excluded from profile analyses but stays in regressions with
    whatever areas it carries.
    """
    total = table.built_total_m2
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = table.built_residential_m2 / total
    codes = np.where(fraction > threshold, 0, 1)
    activity = fraction < 1.0 - threshold
    codes[activity] = 2 + np.argmax(table.landuse_m2[activity][:, _ACTIVITY_COLUMNS], axis=1)
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
    kinds = [CLASSES[c].kind if c >= 0 else "" for c in codes]
    subs = [CLASSES[c].sub.value if c >= 2 else "" for c in codes]
    fractions = ["%.6g" % f if c >= 0 else "" for c, f in zip(codes, fractions)]
    write_csv(path, ["zone_id", "class", "subcategory", "residential_fraction"],
              [table.zone_ids, kinds, subs, fractions])
