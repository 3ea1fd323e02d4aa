"""Output checks for one run, against the oracle that inputs.py computed.

Plain Python, so the measuring parent stays small: a child's peak RSS can
include its parent's (the kernel carries it across exec), and the parent must
not be the larger of the two.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Exported floats carry 6 significant digits, so rounding alone can move a
# column sum by up to half a unit in the 6th digit of every value: 5e-6 of the
# total at most. Equal values (zones with one user each) round the same way,
# so the errors add up rather than cancel.
SUM_REL_TOL = 5e-6


def _read_matrix(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r[0] for r in rows[1:]], [r[1:] for r in rows[1:]]


def check_outputs(out_dir: Path, oracle: dict) -> tuple[list[str], dict]:
    """Problems found in one run's artifacts (empty when correct), and its manifest."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        header, zone_ids, quarter = _read_matrix(out_dir / "activity_matrix.csv")
        _, slot_zones, slot_counts = _read_matrix(out_dir / "slot_counts.csv")
        _, norm_zones, printed = _read_matrix(out_dir / "normalized_slots.csv")
        quarter = [[int(v) for v in row] for row in quarter]
        slot_counts = [[int(v) for v in row] for row in slot_counts]
        normalized = [[float(v) for v in row] for row in printed]
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable artifacts: {exc}"], {}

    problems: list[str] = []
    if header[1:] != [f"bin_{k}" for k in range(96)]:
        problems.append("activity_matrix.csv header is not bin_0..bin_95")
    if zone_ids != oracle["zone_ids"]:
        problems.append("activity_matrix.csv zone rows differ from the zones file")
    elif quarter != oracle["matrix"]:
        off = sum(a != b for row, ref in zip(quarter, oracle["matrix"])
                  for a, b in zip(row, ref))
        problems.append(f"activity_matrix.csv differs from the reference in {off} cells")

    total = float(manifest.get("config", {}).get("normalization_total", 0.0))
    for j, column in enumerate(zip(*normalized)):
        if any(column) and abs(sum(column) - total) > SUM_REL_TOL * total:
            problems.append(f"normalized_slots.csv column {j} sums to {sum(column)!r}, "
                            f"not {total!r}")
    # each printed value is count / column total * normalization total, rounded
    col_sums = [float(sum(col)) for col in zip(*slot_counts)]
    expected = [[format(c / s * total if s else 0.0, ".6g") for c, s in zip(row, col_sums)]
                for row in slot_counts]
    if norm_zones != slot_zones or printed != expected:
        problems.append("normalized_slots.csv is not slot_counts.csv rescaled per column")

    counts = manifest.get("counts", {})
    for key, want in oracle["funnel"].items():
        if counts.get(key) != want:
            problems.append(f"manifest {key} = {counts.get(key)!r}, expected {want}")
    return problems, manifest
