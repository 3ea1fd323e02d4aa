"""Check the result line of a perfbench run; exit 0 when it passes.

    python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 5 --trace 0 | tee out
    python3 .github/bench_result.py [--per-layer] out

perfbench/run.py exits 0 even when a check fails, so the result is read from
the last line it prints. That line must be strict JSON (no NaN or Infinity)
with ``correct`` true and ``failed`` 0. With ``--per-layer`` its ``metrics``
must also hold every ``per_layer`` name of BENCHMARK.json, which only a
traced run (``--trace 1``) reports. Otherwise the exit names the fault.
"""

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _non_finite(constant: str):
    raise ValueError(f"non-finite value {constant}")


def fault(output: str, per_layer: bool) -> str | None:
    """Why the run's printed ``output`` fails the check, or None when it passes."""
    lines = output.splitlines()
    if not lines:
        return "no result line"
    try:
        result = json.loads(lines[-1], parse_constant=_non_finite)
    except ValueError as exc:
        return f"result line is not strict JSON: {exc}"
    if not isinstance(result, dict):
        return "result line is not an object"
    if result.get("correct") is not True or result.get("failed") != 0:
        return f"not correct: correct={result.get('correct')!r}, failed={result.get('failed')!r}"
    if per_layer:
        names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
        metrics = result.get("metrics")
        missing = [name for name in names if not isinstance(metrics, dict) or name not in metrics]
        if missing:
            return f"missing per_layer metrics {missing}"
    return None


def main(argv=None) -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="the file holding the run's printed output")
    parser.add_argument("--per-layer", action="store_true",
                        help="also require every per_layer name of BENCHMARK.json")
    args = parser.parse_args(argv)
    reason = fault(args.output.read_text(encoding="utf-8"), args.per_layer)
    return f"{args.output}: {reason}" if reason else 0


if __name__ == "__main__":
    sys.exit(main())
