"""citypulse benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload city-253k --seed 42 --seconds 40 --trace 0

``--workload all`` runs every workload in turn.

Generates the workload's inputs from ``--seed`` (several times, to time
set-up), then runs ``citypulse run --config ...`` in a fresh child process
again and again, one at a time, while another child is expected to finish
within ``--seconds``. The fixed reference workload (``reference.py``) runs
before the first child and after every child; each child's times are
reported relative to the mean of the reference times just before and after
it, because a shared host's speed can swing by up to 1.8x over minutes.
Every run's artifacts are checked against an independent oracle. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` traced
and untraced children alternate and the per-layer metrics are reported. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_outputs
from layers import layer_metrics, self_times, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3             # input generations per run; setup_s is their median
MIN_RUNS = 2           # children per run even when they outlast --seconds
CHILD_TIMEOUT_S = 150  # a child still running after this is killed and fails


def median(values):
    return statistics.median(values)


def spawn(cmd: list[str], root: Path, log_path: Path):
    """Run one process to completion: (exit code, wall seconds, its rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=root, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def log_tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:]


def run_child(root: Path, config: str, workdir: Path, index: int, traced: bool) -> dict:
    """Spawn one run child and wait for it; returns its measurements."""
    result_path = workdir / f"child-{index}.json"
    spans_path = workdir / f"spans-{index}.json"
    shutil.rmtree(workdir / "run", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), config, str(result_path)]
    rc, wall, usage = spawn(cmd + ([str(spans_path)] if traced else []), root,
                            workdir / "child.log")
    sample = {"traced": traced, "wall_s": wall, "rc": rc, "peak_kb": usage.ru_maxrss}
    if rc == 0:
        sample["child"] = json.loads(result_path.read_text(encoding="utf-8"))
        if traced:
            sample["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
    else:
        sample["log"] = log_tail(workdir / "child.log")
    return sample


def run_reference(root: Path, workdir: Path) -> dict:
    """Time the reference workload once in a fresh process: its wall_s and checksum."""
    out = workdir / "reference.json"
    rc, _wall, _usage = spawn([sys.executable, str(HERE / "reference.py")], root, out)
    if rc != 0:
        return {"rc": rc, "log": log_tail(out)}
    return json.loads(out.read_text(encoding="utf-8"))


def wall_clock(samples: list[dict], refs: list[float]) -> dict[str, tuple[list, str]]:
    """Untraced children's plain wall times and throughput, and the reference's."""
    plain = [s for s in samples if not s["traced"]]
    return {
        "run_s": ([s["wall_s"] for s in plain], "s"),
        "events_per_s": ([s["rows"] / s["child"]["pipeline_s"] for s in plain if "rows" in s],
                         "1/s"),
        "ref_s": (refs, "s"),
    }


def end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, tuple[list, str]]:
    """Each end-to-end metric's values over untraced children, with its unit.

    A child's times are divided by its ``ref_s``: the mean wall time of the
    reference workload timed just before and just after it."""
    plain = [s for s in samples if not s["traced"]]
    ok = [s for s in plain if "rows" in s]
    return {
        "run_rel": ([s["wall_s"] / s["ref_s"] for s in plain], "x"),
        "events_per_ref": ([s["rows"] * s["ref_s"] / s["child"]["pipeline_s"] for s in ok],
                           "1/ref"),
        "peak_rss_mb": ([s["peak_kb"] / 1024 for s in plain], "MB"),
        "rss_per_event_b": ([(s["peak_kb"] - s["child"]["rss_import_kb"]) * 1024 / s["rows"]
                             for s in ok], "B"),
        "setup_s": ([t["setup_s"] for t in setups], "s"),
    }


def per_layer(samples: list[dict], setups: list[dict], synth_rss_mb: float,
              refs: list[float]) -> dict[str, tuple[list, str]]:
    """Each per-layer metric's values over traced children, with its unit."""
    traced = [s for s in samples if s["traced"] and "trace" in s]
    per_child = [layer_metrics(s["trace"]["spans"], s["trace"]["missing"], s["child"])
                 for s in traced]
    names = sorted(set.intersection(*(set(m) for m in per_child))) if per_child else []
    out = {name: ([m[name] for m in per_child], unit_of(name)) for name in names}
    for key in ("city_s", "events_s", "write_s"):
        out[f"synth.{key}"] = ([t[key] for t in setups], "s")
    out["synth.rss_growth_mb"] = ([synth_rss_mb], "MB")
    out["host.ref_s"] = (refs, "s")
    plain = [s["wall_s"] for s in samples if not s["traced"]]
    walls = [s["wall_s"] for s in traced]
    if plain and walls:
        out["trace.overhead_s"] = ([median(walls) - median(plain)], "s")
    return out


def environment(samples: list[dict]) -> dict:
    child = next((s["child"] for s in samples if "child" in s), {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": child.get("python"), "numpy": child.get("numpy"),
            "scipy": child.get("scipy"), "blas_threads": child.get("blas_threads"),
            "clients": 1, "loop": "closed"}


def show(name: str, values: list, unit: str) -> None:
    if values:
        print(f"  {name:28s} {median(values):14.6g} {unit:6s} median of {len(values)}"
              f" (min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "citypulse" / "__init__.py").is_file():
        print(f"perfbench: no citypulse sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from all, "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workdir = root / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            results[name] = run(name, args, root, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if results[name] is None:
            return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:  # every workload's metrics, prefixed with its name
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


def run(workload: str, args, root: Path, workdir: Path) -> dict | None:
    """Set up and measure one workload.

    Returns its result object, or None if set-up or the reference workload failed."""
    spec = WORKLOADS[workload]
    print(f"workload {workload} seed {args.seed}: {spec['why']}")
    print(f"  format {spec['format']}, SynthConfig {spec['synth']}, mutate {spec['mutate']}")

    setup_path = workdir / "setup.json"
    rc, _wall, _usage = spawn([sys.executable, str(HERE / "inputs.py"), workload,
                               str(args.seed), str(workdir), str(SETUPS), str(setup_path)],
                              root, workdir / "inputs.log")
    if rc != 0:
        print(f"perfbench: input generation failed ({rc}):\n{log_tail(workdir / 'inputs.log')}",
              file=sys.stderr)
        return None
    setup = json.loads(setup_path.read_text(encoding="utf-8"))
    oracle = setup["oracle"]
    problems = [] if setup["deterministic"] else ["one seed gave different input files"]
    print(f"  inputs: expected funnel {oracle['funnel']}")

    samples: list[dict] = []
    first_outputs = None
    failed = 0
    start = time.perf_counter()
    refs = [run_reference(root, workdir)]
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = run_child(root, setup["config"], workdir, len(samples), traced)
        issues = [f"exit code {sample['rc']}: {sample.get('log', '')}"] if sample["rc"] else []
        if not issues:
            found, manifest = check_outputs(workdir / "run", oracle)
            issues.extend(found)
            outputs = manifest.get("outputs")
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                issues.append("output digests differ from the first run of this workload")
            if "rows_total" in manifest.get("counts", {}):
                sample["rows"] = manifest["counts"]["rows_total"]
        if issues:
            failed += 1
            problems.extend(f"run {len(samples)}: {issue}" for issue in issues)
        samples.append(sample)
        refs.append(run_reference(root, workdir))
        if "wall_s" in refs[-2] and "wall_s" in refs[-1]:
            sample["ref_s"] = (refs[-2]["wall_s"] + refs[-1]["wall_s"]) / 2
        print(f"  run {len(samples) - 1}{' traced' if traced else ''}: {sample['wall_s']:.3f} s,"
              f" peak {sample['peak_kb'] / 1024:.1f} MB, {'FAIL' if issues else 'ok'};"
              f" reference {sample.get('ref_s', float('nan')):.3f} s")
        # stop before a child and reference that would likely end after the window
        elapsed = time.perf_counter() - start
        if (len(samples) >= MIN_RUNS
                and elapsed + median([s["wall_s"] for s in samples])
                + median([r.get("wall_s", 0.0) for r in refs]) > args.seconds):
            break

    if len({(r.get("rc"), r.get("checksum")) for r in refs}) != 1:
        print(f"perfbench: the reference workload failed or changed its checksum: {refs}",
              file=sys.stderr)
        return None
    ref_walls = [r["wall_s"] for r in refs]

    env = environment(samples)
    print(f"  env {json.dumps(env)}")
    if env["blas_threads"] and env["nproc"] and env["blas_threads"] > env["nproc"]:
        print(f"  note: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    if args.trace:
        metrics = per_layer(samples, setup["timings"], setup["synth_rss_growth_mb"], ref_walls)
        traces = [s["trace"] for s in samples if "trace" in s]
        (root / ".perfbench_work" / f"spans-{workload}-seed{args.seed}.json").write_text(
            json.dumps(traces), encoding="utf-8")
        for s in samples:
            if "trace" in s:
                ranked = sorted(self_times(s["trace"]["spans"]).items(), key=lambda kv: -kv[1])
                print("  self time: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked[:6]))
                if s["trace"]["missing"]:
                    print(f"  absent (entry point not found): {s['trace']['missing']}")
    else:
        metrics = end_to_end(samples, setup["timings"])
        for name, (values, unit) in wall_clock(samples, ref_walls).items():
            show(f"{name} (wall clock, not reported)", values, unit)
    metrics = {name: (values, unit) for name, (values, unit) in metrics.items() if values}
    for name, (values, unit) in metrics.items():
        show(name, values, unit)
    print(f"  fail_ratio {failed / len(samples):.6g} ({failed} of {len(samples)} runs)")
    for problem in problems:
        print(f"  problem: {problem}")

    return {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
