#!/usr/bin/env python3
"""Benchmark runner for anchorloc.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs per process. The runner pins BLAS to one thread before
numpy is first imported, imports the package from ``src/`` next to this
directory (nothing is installed), and prints every metric by name and unit,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "anchorloc")
WORKLOADS = ("train-sparse", "train-dense", "localize")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7, help="world seed (default: the README's 7)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run (BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            if subprocess.run(cmd, cwd=ROOT, check=False).returncode != 0:
                status = 1
    return status


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def run_one(args) -> int:
    for var in BLAS_VARS:  # before numpy's first import in this process
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import numpy as np

    import bench

    print("provenance " + json.dumps(provenance(np, args), sort_keys=True), flush=True)
    workload = bench.WORKLOADS[args.workload]
    tally = bench.Tally()
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.trace:
            metrics, info = bench.trace(workload, args.seed, work_dir, tally), {}
        else:
            result = bench.measure(workload, args.seed, args.seconds, work_dir, tally)
            metrics, info = result if result is not None else (None, {})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    for why in tally.problems:
        print(f"FAILED CHECK: {why}")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value:.10g} {unit}")
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name} = {value:.10g} {unit}")
    correct = metrics is not None and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    }), flush=True)
    return 0 if metrics is not None else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no anchorloc package at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
