"""The CI check of a perfbench result line, ``.github/bench_result.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "bench_result.py"
_spec = importlib.util.spec_from_file_location("bench_result", SCRIPT)
bench_result = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_result)

PER_LAYER = [m["name"] for m in json.loads(bench_result.BENCHMARK.read_text())["per_layer"]]


def _output(**fields) -> str:
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": dict.fromkeys(PER_LAYER, 1.0)} | fields
    return "workload fine-grid seed 1: ...\n  run 1: 0.5 s\n" + json.dumps(result) + "\n"


def test_a_correct_traced_result_passes(tmp_path):
    path = tmp_path / "out"
    path.write_text(_output())
    assert bench_result.main([str(path)]) == 0
    assert bench_result.main(["--per-layer", str(path)]) == 0


@pytest.mark.parametrize("output,per_layer,reason", [
    ("", False, "no result line"),
    (_output() + "a progress line\n", False, "not strict JSON"),
    (_output().replace("1.0", "NaN", 1), False, "non-finite value NaN"),
    (_output().replace("1.0", "Infinity", 1), False, "non-finite value Infinity"),
    ("[1]\n", False, "not an object"),
    (_output(correct=False), False, "not correct"),
    (_output(correct=1), False, "not correct"),
    (_output(failed=1), False, "not correct"),
    (_output(failed=None), False, "not correct"),
    (_output(metrics={}), False, None),
    (_output(metrics={}), True, "missing per_layer metrics"),
    (_output(metrics=dict.fromkeys(PER_LAYER[1:], 1.0)), True, repr([PER_LAYER[0]])),
], ids=["empty", "last line not JSON", "NaN", "Infinity", "not an object", "not correct",
        "correct not true", "a failed check", "no failed count", "untraced",
        "no metrics", "one name missing"])
def test_each_fault_is_named(output, per_layer, reason):
    fault = bench_result.fault(output, per_layer)
    if reason is None:
        assert fault is None
    else:
        assert reason in fault
