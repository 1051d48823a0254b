"""Set-up probe, run in a fresh interpreter: import the CLI, resolve scenarios.

    python3 perfbench/probe.py CONFIG_JSON [--env]

Prints one JSON line with import_s (import of pce_transfer.cli) and
resolve_ms (cli.build_scenarios on the workload's config).  With --env it
also records the interpreter, library versions and the BLAS library with its
thread count as OpenBLAS reports it at run time.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def blas_info() -> dict:
    """numpy's BLAS as built, plus OpenBLAS's run-time thread count and core."""
    import ctypes
    import glob

    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": build.get("name"), "version": build.get("version")}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            core = getattr(lib, f"{prefix}_get_corename64_", None)
            if threads is not None and core is not None:
                threads.restype = ctypes.c_int
                core.restype = ctypes.c_char_p
                info["threads"] = threads()
                info["core"] = core().decode()
                break
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    start = time.perf_counter()
    from pce_transfer import cli
    imported = time.perf_counter()
    cli.build_scenarios(cfg)
    resolved = time.perf_counter()
    out = {"import_s": imported - start, "resolve_ms": 1e3 * (resolved - imported)}
    if "--env" in argv[1:]:
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
