"""Per-zone CSV tables: one row template, filled a block of rows at a time.

Floats print at 6 significant digits (``"%.6g"``, the same text as
``format(v, ".6g")``), which keeps golden files stable.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Rows formatted at a time: a block's cells as Python objects stay a few MB
# even at 96 columns
BLOCK_ROWS = 1024

# the characters that make csv.writer quote a field (delimiter, quote, line ends)
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _text_cells(values) -> list[str]:
    """Strings as csv.writer writes them inside a row."""
    values = list(map(str, values))
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    return [_csv_field(v) if _NEEDS_QUOTES.search(v) else v for v in values]


def write_csv(path, header: Sequence[str], columns: Sequence = (), *,
              blocks: Iterable[Sequence] = ()) -> None:
    """One CSV of equal-length columns, or of ``blocks`` of rows, each block a
    sequence of such columns, one block after another.

    Float arrays print at 6 significant digits, integer arrays as integers,
    any other sequence as text, quoted where csv.writer would quote it.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for block in chain([columns] if columns else [], blocks):
            specs, cells = [], []
            for column in block:
                if isinstance(column, np.ndarray):
                    specs.append("%.6g" if column.dtype.kind == "f" else "%d")
                else:
                    specs.append("%s")
                    column = _text_cells(column)
                cells.append(column)
            row = ",".join(specs) + "\n"
            for lo in range(0, len(cells[0]), BLOCK_ROWS):
                part = [c[lo:lo + BLOCK_ROWS] for c in cells]
                fh.write("".join(row % r for r in zip(
                    *(c.tolist() if isinstance(c, np.ndarray) else c for c in part))))
