"""The command line's end-to-end contracts, on one synthetic city.

The city is made and run once through ``cli.main``. Each test writes into its
own directory: synth and the other steps give the run's bytes, so do copies
of the inputs written as CSV, with other line ends or with a byte-order mark,
and mutated rows are rejected by their physical line.
"""

import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from citypulse import cli, ingest

REPO = Path(__file__).resolve().parents[1]

SYNTH = ["--seed", "4", "--n-zones", "49", "--n-users", "300", "--events-per-day", "8",
         "--centre-decay", "0.1"]
BOM = b"\xef\xbb\xbf"


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-city")
    assert cli.main(["synth", "--out", str(root), *SYNTH]) == 0
    assert cli.main(["run", "--config", str(root / "pipeline.config")]) == 0
    assert (root / "run" / "manifest.json").is_file()
    return root


def run(city, command, out, *flags):
    return cli.main([command, "--config", str(city / "pipeline.config"), *flags,
                     "--out", str(out)])


def assert_run_bytes(city, out, same_files=True):
    """Every file in ``out`` but the manifest has the bytes of the run's file of
    that name; with ``same_files`` both directories hold the same names."""
    names = sorted(p.name for p in out.iterdir())
    if same_files:
        assert names == sorted(p.name for p in (city / "run").iterdir())
    for name in names:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (city / "run" / name).read_bytes(), name


def csv_bytes(ndjson: bytes) -> bytes:
    """The rows as CSV written by Python's csv module, a row without "u" with an empty user_id."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["user_id", "timestamp", "lon", "lat"])
    for line in io.StringIO(ndjson.decode("utf-8")):
        row = json.loads(line)
        writer.writerow([row.get("u", ""), row["t"], row["lon"], row["lat"]])
    return out.getvalue().encode("utf-8")


def test_synth_writes_the_same_inputs_twice(city, tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), *SYNTH]) == 0
    for name in ("events.ndjson", "zones.geojson", "profiles_truth.csv", "homes_truth.csv"):
        assert (tmp_path / name).read_bytes() == (city / name).read_bytes(), name


def test_city_under_unicode_line_breaks_runs_from_its_own_config(city, tmp_path):
    # the config's lines end only at \n: str.splitlines would also break its
    # paths at the U+2028 and U+0085 of the directory's name
    out = tmp_path / "a\u2028b\u0085c d"
    assert cli.main(["synth", "--out", str(out), *SYNTH]) == 0
    assert cli.main(["run", "--config", str(out / "pipeline.config")]) == 0
    assert_run_bytes(city, out / "run")


@pytest.mark.parametrize("name", ["city\nx", "city\rx", "city\r\n", " lead", "\tlead",
                                  "\u2028lead", "\x85lead", "non\udcffutf8"])
def test_synth_refuses_an_out_its_config_cannot_hold(tmp_path, monkeypatch, capsys, name):
    # pipeline.config ends a line at \n or \r and strips each value, so a
    # relative --out with a line end or leading whitespace would not read back;
    # nor would a name from non-UTF-8 bytes. Nothing is created.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", name, *SYNTH]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {name!r} would not read back")
    assert list(tmp_path.iterdir()) == []


def test_relative_out_with_a_unicode_line_break_inside_runs(city, tmp_path, monkeypatch):
    # U+2028 is stripped at the start of a value but is no line end inside it
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "in\u2028side ", *SYNTH]) == 0
    assert "events = in\u2028side /events.ndjson\n" in Path(
        "in\u2028side ", "pipeline.config").read_text(encoding="utf-8")
    assert cli.main(["run", "--config", str(Path("in\u2028side ", "pipeline.config"))]) == 0
    assert_run_bytes(city, tmp_path / "in\u2028side " / "run")


def test_profiles_writes_the_bytes_of_the_run(city, tmp_path):
    assert run(city, "profiles", tmp_path / "profiles") == 0
    assert (tmp_path / "profiles" / "profiles.csv").is_file()
    assert_run_bytes(city, tmp_path / "profiles", same_files=False)


def test_ingest_writes_back_the_synth_events(city, tmp_path):
    # every synth event falls on a workday, and ingest keeps every written field
    assert run(city, "ingest", tmp_path / "ingest") == 0
    clean = (tmp_path / "ingest" / "events_clean.ndjson").read_bytes()
    assert clean == (city / "events.ndjson").read_bytes()


def mutated_ndjson(city) -> bytes:
    """A bad date, a string lon, a lon that float() reads as -37, no "u", and a
    timestamp with a fraction, which is accepted."""
    with open(city / "events.ndjson", encoding="utf-8") as fh:
        lines = fh.readlines()
    for line, change in [(2, lambda row: row.update(t="2013-02-30T10:00:00+01:00")),
                         (1500, lambda row: row.update(lon="west")),
                         (2000, lambda row: row.update(lon="-3_7")),
                         (3000, lambda row: row.pop("u")),
                         (4500, lambda row: row.update(t=row["t"][:17] + "00.25Z"))]:
        row = json.loads(lines[line - 1])
        change(row)
        lines[line - 1] = json.dumps(row) + "\n"
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("fmt,expected", [
    ("ndjson", "line,reason\n2,bad timestamp '2013-02-30T10:00:00+01:00'\n"
               "1500,lon not a number\n2000,lon not a number\n3000,missing field 'u'\n"),
    # one line further down for the header
    ("csv", "line,reason\n3,bad timestamp '2013-02-30T10:00:00+01:00'\n"
            "1501,lon not a number\n2001,lon not a number\n3001,empty user_id\n"),
], ids=["ndjson", "csv"])
def test_mutated_rows_are_rejected_by_physical_line(city, tmp_path, fmt, expected):
    events = tmp_path / f"mutated.{fmt}"
    data = mutated_ndjson(city)
    events.write_bytes(data if fmt == "ndjson" else csv_bytes(data))
    assert run(city, "ingest", tmp_path / "out", "--events", str(events)) == 0
    assert (tmp_path / "out" / "rejections.csv").read_bytes() == expected.encode("ascii")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"]["rows_rejected"] == 4


def test_each_warning_is_reported_once(city, tmp_path):
    # through a fresh interpreter, so that the command line's own logging
    # setup prints the library's log records to stderr as a user sees them
    events = tmp_path / "mutated.ndjson"
    events.write_bytes(mutated_ndjson(city))
    done = subprocess.run(
        [sys.executable, "-m", "citypulse.cli", "run", "--config", str(city / "pipeline.config"),
         "--events", str(events), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True)
    lines = done.stderr.splitlines()
    assert "warning: 4 input rows rejected" in lines
    # the command line's own lines only, each once: no library log record repeats a fact
    assert all(line.startswith("warning: ") for line in lines)
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize("source,copy,transform", [
    ("events.ndjson", "events.csv", csv_bytes),
    ("events.ndjson", "events.ndjson", lambda data: data.replace(b"\n", b"\r\n")),
    ("events.ndjson", "events.ndjson", lambda data: data.replace(b"\n", b"\r")),
    ("events.ndjson", "events.ndjson", lambda data: BOM + data),
    ("events.ndjson", "events.csv", lambda data: BOM + csv_bytes(data)),
    ("zones.geojson", "zones.geojson", lambda data: BOM + data),
], ids=["csv", "crlf", "cr", "bom ndjson", "bom csv", "bom zones"])
def test_input_copies_give_the_bytes_of_the_run(city, tmp_path, source, copy, transform):
    (tmp_path / copy).write_bytes(transform((city / source).read_bytes()))
    flag = "--zones" if source == "zones.geojson" else "--events"
    assert run(city, "run", tmp_path / "out", flag, str(tmp_path / copy)) == 0
    assert_run_bytes(city, tmp_path / "out")


def test_open_ring_exits_2_before_any_output(city, tmp_path, capsys):
    doc = json.loads((city / "zones.geojson").read_text(encoding="utf-8"))
    doc["features"][7]["geometry"]["coordinates"][0].pop()
    (tmp_path / "bad.geojson").write_text(json.dumps(doc), encoding="utf-8")
    assert run(city, "run", tmp_path / "bad", "--zones", str(tmp_path / "bad.geojson")) == 2
    assert capsys.readouterr().err == "error: zone 'z0007': ring is not closed\n"
    assert not (tmp_path / "bad").exists()


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location("layers", REPO / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_traced_run_yields_every_per_layer_metric(city, tmp_path, monkeypatch):
    # the benchmark's traced run reads its per-layer metrics off wrapped
    # entry points: each must still exist and keep its argument and result
    # shapes. The events go through the workday filter and the zone join a
    # block at a time, each block one call of both: the counts the metrics
    # add up over the calls must be the run's own.
    layers = _perfbench_layers()
    for module_name, attr, _layer, _metric in layers.ENTRY_POINTS:
        module = importlib.import_module(f"citypulse.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr, None), raising=False)
    monkeypatch.setattr(ingest, "EVENT_BLOCK_ROWS", 2000)
    tracer = layers.Tracer(run_id=0)
    tracer.install()
    assert run(city, "run", tmp_path / "out") == 0
    assert tracer.missing == []
    metrics = layers.layer_metrics(tracer.spans, tracer.missing,
                                   {"import_s": 0.1, "rss_start_kb": 0, "rss_import_kb": 1024})
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in benchmark["per_layer"]
                if m["name"].split(".")[0] not in ("synth", "host", "trace")}
    assert len(expected) == 31 and set(metrics) == expected
    json.dumps(metrics, allow_nan=False)

    calls = [span["name"] for span in tracer.spans]
    assert calls.count("ingest.filter_workdays") == calls.count("pipeline.assign_events") >= 3
    counts = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))["counts"]
    assert metrics["ingest.rows"] == counts["rows_total"]
    assert metrics["ingest.workday_kept_ratio"] == (
        counts["events_workdays"] / counts["events_parsed"])
    assert metrics["spatial.assigned_ratio"] == (
        counts["events_assigned"] / counts["events_workdays"])
    assert metrics["stats.users_with_home"] == counts["users_with_home"]
