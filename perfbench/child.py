"""One ``citypulse run --config CONFIG`` in a fresh interpreter, instrumented.

Usage: python3 child.py CONFIG RESULT_JSON [SPANS_JSON]
(with the repository's ``src`` on PYTHONPATH, from the repository root)

Imports citypulse, times the import and the ``run_pipeline``
call, then runs the command-line entry point exactly as the ``citypulse``
script does and exits with its code. With SPANS_JSON the layer entry points
are traced (see layers.py) and the spans are written there at exit. RESULT_JSON
gets what the parent cannot observe from outside: import time, the
``run_pipeline`` wall time, RSS after import, library versions and the BLAS
thread count.
"""

import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

from layers import Tracer, maxrss_kb


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    counts = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts.append(fn())
                break
    return max(counts) if counts else None


def main(argv: list[str]) -> int:
    config, result_path = argv[1:3]
    spans_path = argv[3] if len(argv) > 3 else None
    src = Path.cwd() / "src"
    rss_start_kb = maxrss_kb()
    t0 = time.perf_counter()
    import citypulse
    import_s = time.perf_counter() - t0
    rss_import_kb = maxrss_kb()
    if not Path(citypulse.__file__).resolve().is_relative_to(src.resolve()):
        print(f"citypulse imported from {citypulse.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy
    import scipy
    from citypulse import cli, pipeline

    tracer = None
    if spans_path:
        tracer = Tracer(run_id=os.getpid())
        tracer.install()
    timed = {}
    inner = pipeline.run_pipeline

    def run_pipeline(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            timed["pipeline_s"] = time.perf_counter() - start

    pipeline.run_pipeline = run_pipeline
    rc = cli.main(["run", "--config", config])

    result = {"rc": rc, "import_s": import_s, "pipeline_s": timed.get("pipeline_s"),
              "rss_start_kb": rss_start_kb, "rss_import_kb": rss_import_kb,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "blas_threads": blas_threads()}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        Path(spans_path).write_text(json.dumps({"missing": tracer.missing,
                                                "spans": tracer.spans}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
