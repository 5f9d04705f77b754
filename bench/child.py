"""One round of one workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD INPUTS_JSON ARTIFACT_DIR RESULT_JSON \
        --started NS [--threads K] [--trace] [--setup-only]

`--started` is the parent's time.monotonic_ns() just before it spawned this
process, so set-up time covers interpreter start, the imports of sulab, numpy
and scipy, and the workload's set-up, up to the call into its entry point.
The result file holds setup_s, wall_s (entry call to last artifact written),
peak_rss_mb, the machine facts and, with --trace, the aggregated spans.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))


def blas_facts() -> dict:
    """BLAS library name and the thread count it reports, read from the
    OpenBLAS copies loaded into this process."""
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.split()[-1].lower()})
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[Path(lib).name] = fn()
                break
    return {"blas": f"{info.get('name')} {info.get('version')}",
            "blas_threads": threads}


def machine_facts() -> dict:
    import numpy as np
    import scipy
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_facts()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("inputs", type=Path)
    p.add_argument("art", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("--started", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import sulab.cli  # noqa: F401  (imports every sulab module, numpy, scipy)
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    entry = workloads.prepare(args.workload, args.inputs, args.art, args.threads)
    called = time.monotonic_ns()
    result = {"setup_s": (called - args.started) / 1e9}
    if not args.setup_only:
        cpu = time.process_time()
        entry()
        result["wall_s"] = (time.monotonic_ns() - called) / 1e9
        result["cpu_s"] = time.process_time() - cpu
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["machine"] = machine_facts()
        if tracer is not None:
            result["spans"] = tracer.spans()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
