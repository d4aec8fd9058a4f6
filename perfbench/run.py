"""hlrd benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload build-aca --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The line
before it holds the environment block, and the full result (environment,
problems found, per-round counts) is written to
``.perfbench_work/<workload>/result-seed<seed>-trace<t>.json``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Fixed before numpy loads so OpenBLAS starts with this many threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc's malloc raises its mmap and trim thresholds as large blocks are
# freed, so whether a large array comes from the heap or from fresh pages
# the kernel has to fault in depends on what the run freed before.  Fixed
# thresholds keep every array up to MMAP_THRESHOLD on the heap, and freed
# heap memory in the process, whatever ran before.
MMAP_THRESHOLD = 32 * 2**20      # the largest glibc accepts
TRIM_THRESHOLD = 2**30


def _fix_malloc() -> bool:
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, MMAP_THRESHOLD)) and bool(
        mallopt(m_trim_threshold, TRIM_THRESHOLD))


MALLOC_FIXED = _fix_malloc()
HASH_SEED = "0"
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("build-aca", "build-constructive")


def _openblas_threads():
    """Thread count OpenBLAS reports, read from the loaded library, or None."""
    import ctypes

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
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy
    from hlrd import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "grid_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "malloc_thresholds_fixed": MALLOC_FIXED,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hlrd" / "__init__.py").is_file():
        print(f"perfbench: no hlrd package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hlrd

    if Path(hlrd.__file__).resolve().parent != (src / "hlrd").resolve():
        print(f"perfbench: imported hlrd from {hlrd.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = time.perf_counter() - t_start

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workdir = ROOT / ".perfbench_work" / args.workload
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        with tracing.installed(tracer):
            result = workloads.run_workload(wl, args.seed, args.seconds, workdir, tracer)
    else:
        result = workloads.run_workload(wl, args.seed, args.seconds, workdir, tracer)
        value, unit = result["metrics"]["setup_s"]
        result["metrics"]["setup_s"] = (value + import_s, unit)

    env = environment(args.seed)
    full = dict(result, environment=env, workload=args.workload, trace=args.trace,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps({key: full[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _fix_hash_seed() -> None:
    """Re-execute this process with a fixed string-hash seed.

    With a random seed, dict and set order changes from process to process
    and with it the order of the run's allocations: peak RSS of the same
    seed moved between 129 and 132 MiB from run to run.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    _fix_hash_seed()
    sys.exit(main())
