"""Golden digests: the SHA-256 of every artifact of the CI city that no BLAS
call feeds, so that a change that moves one byte of them fails a test.

The city is the one the CI job makes (``citypulse synth --seed 4 --n-zones 49
--n-users 300 --events-per-day 8 --centre-decay 0.1``). Pinned are its synth
files, ``pipeline.config`` with its directory written as ``CITY``; the files
of ``citypulse run`` and ``citypulse ingest``; and those of runs on copies of
its events: as CSV, with ``\\r\\n`` and with ``\\r`` line ends, and as CSV
with a few bad rows. Left out are the files that BLAS feeds, whose last
digits may vary with the numpy build and the machine: the models and their
residuals, ``bivariate_r2.csv``, ``zones_metrics.geojson``, and the manifest,
which holds their digests. Of the run's BLAS-fed files, the parts that no BLAS
call feeds are pinned: ``zones_metrics.geojson`` without its
``std_residual_*`` values (every ``lu_*`` key, ``landuse_class`` and
``normalized_*`` stay), and the sorted predictor names of each
``model_<slot>.csv``, which come from the land-use categories present.

``tests/test_golden.py`` builds the files and compares them with
``tests/golden.json``. After a change that is meant to move an artifact,
rewrite that file from the working tree with

    PYTHONPATH=src python tests/golden.py --update
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from citypulse import cli

GOLDEN = Path(__file__).with_name("golden.json")

SYNTH = ["--seed", "4", "--n-zones", "49", "--n-users", "300", "--events-per-day", "8",
         "--centre-decay", "0.1"]
SYNTH_FILES = ("events.ndjson", "zones.geojson", "profiles_truth.csv", "homes_truth.csv",
               "pipeline.config")
RUN_FILES = ("activity_matrix.csv", "slot_counts.csv", "normalized_slots.csv",
             "descriptives.csv", "profiles.csv", "density.csv", "landuse_classes.csv",
             "home_counts.csv", "rejections.csv")
INGEST_FILES = ("events_clean.ndjson", "rejections.csv")


def csv_bytes(ndjson: bytes) -> bytes:
    """The rows as CSV written by Python's csv module, a row without "u" with an empty user_id."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["user_id", "timestamp", "lon", "lat"])
    for line in io.StringIO(ndjson.decode("utf-8")):
        row = json.loads(line)
        writer.writerow([row.get("u", ""), row["t"], row["lon"], row["lat"]])
    return out.getvalue().encode("utf-8")


def mutated_ndjson(ndjson: bytes) -> bytes:
    """The rows with a bad date, a string lon, a lon that float() reads as -37,
    no "u", and a timestamp with a fraction, which is accepted."""
    lines = io.StringIO(ndjson.decode("utf-8")).readlines()
    for line, change in [(2, lambda row: row.update(t="2013-02-30T10:00:00+01:00")),
                         (1500, lambda row: row.update(lon="west")),
                         (2000, lambda row: row.update(lon="-3_7")),
                         (3000, lambda row: row.pop("u")),
                         (4500, lambda row: row.update(t=row["t"][:17] + "00.25Z"))]:
        row = json.loads(lines[line - 1])
        change(row)
        lines[line - 1] = json.dumps(row) + "\n"
    return "".join(lines).encode("utf-8")


# (name, events file name, its bytes from the city's NDJSON)
COPIES = (
    ("csv", "events.csv", csv_bytes),
    ("crlf", "events.ndjson", lambda data: data.replace(b"\n", b"\r\n")),
    ("cr", "events.ndjson", lambda data: data.replace(b"\n", b"\r")),
    ("bad rows csv", "events.csv", lambda data: csv_bytes(mutated_ndjson(data))),
)


def _digests(directory: Path, names, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{name}": hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _blas_free_digests(run: Path) -> dict[str, str]:
    """The digests of the run's BLAS-fed files with what BLAS feeds left out."""
    geojson = json.loads((run / "zones_metrics.geojson").read_text(encoding="utf-8"))
    for feature in geojson["features"]:
        feature["properties"] = {key: value for key, value in feature["properties"].items()
                                 if not key.startswith("std_residual_")}
    digests = {"run/zones_metrics.geojson without std_residual_*": _sha256(json.dumps(geojson))}
    for path in sorted(run.glob("model_*.csv")):
        if not path.name.endswith("_residuals.csv"):
            with open(path, encoding="utf-8", newline="") as fh:
                names = [row["predictor"] for row in csv.DictReader(fh)]
            names.remove("(summary)")
            digests[f"run/{path.name} predictors"] = _sha256("\n".join(sorted(names)))
    return digests


def build(root: Path) -> dict[str, str]:
    """Make the city and its runs under ``root``: the digest of each pinned file,
    named ``<run>/<file>``."""
    city = root / "city"
    config = str(city / "pipeline.config")
    assert cli.main(["synth", "--out", str(city), *SYNTH]) == 0
    text = (city / "pipeline.config").read_text(encoding="utf-8")
    (root / "pipeline.config").write_text(text.replace(str(city), "CITY"), encoding="utf-8")
    assert cli.main(["run", "--config", config]) == 0
    assert cli.main(["ingest", "--config", config, "--out", str(root / "ingest")]) == 0
    digests = {**_digests(city, SYNTH_FILES[:-1], "synth"),
               **_digests(root, SYNTH_FILES[-1:], "synth"),
               **_digests(city / "run", RUN_FILES, "run"),
               **_blas_free_digests(city / "run"),
               **_digests(root / "ingest", INGEST_FILES, "ingest")}
    data = (city / "events.ndjson").read_bytes()
    for name, file, transform in COPIES:
        (root / name).mkdir()
        (root / name / file).write_bytes(transform(data))
        assert cli.main(["run", "--config", config, "--events", str(root / name / file),
                         "--out", str(root / name / "run")]) == 0
        digests.update(_digests(root / name / "run", RUN_FILES, f"run {name}"))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the working tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        digests = build(Path(root))
    if args.update:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = sorted(name for name in golden.keys() | digests.keys()
                     if golden.get(name) != digests.get(name))
    print("\n".join(changed) or "every digest matches", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
