"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass, one at a time, and passes the
monotonic clock reading taken just before the start.  Set-up time runs
from that reading to the end of ``import bwexp.cli``, which is what a
user of the ``bwexp`` command pays on every invocation.  The result is
printed as one JSON line on standard output.

    python3 perfbench/worker.py --spawned <monotonic> --setup-only
    python3 perfbench/worker.py --spawned <monotonic> --workload solve-default \
        --seed 1 --trace 0 --run-id solve-default-1-0 [--spans FILE]
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bwexp.cli  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import bwexp.construct  # noqa: E402
import bwexp.norms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def environment() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "platform": platform.platform(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-id", default="")
    p.add_argument("--spans")
    args = p.parse_args()
    report = {"setup_s": IMPORTED - args.spawned}
    if not bwexp.cli.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"bwexp imported from {bwexp.cli.__file__}, not from this checkout")
    if args.setup_only:
        report["env"] = environment()
        print(json.dumps(report))
        return 0

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    calls = {
        "cli.main": bwexp.cli.main,
        "construct.witness_certificate": bwexp.construct.witness_certificate,
        "norms.norm_on_bidisk": bwexp.norms.norm_on_bidisk,
    }
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
        calls = {name: tracer.wrap(name, fn) for name, fn in calls.items()}

    res = workload.run(inputs, calls)
    report.update(
        wall_s=res.wall_s,
        attempted=res.attempted,
        failures=res.failures,
        lower_gap_nats=res.lower_gap_nats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=res.outputs,
        info=res.info,
    )
    if tracer is not None:
        report["layers"], report["largest_self_time"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
