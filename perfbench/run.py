#!/usr/bin/env python3
"""Benchmark of the qkevolve pipeline: decode -> PCA -> simulate -> Gram ->
SMO -> score, inside the (mu + lambda) NSGA-II loop.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-n150 --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed by scripts/make_synthetic_data.py (untimed).
The workload then runs as a closed loop in this one process, BLAS pinned to
one thread, for --seconds. The outputs are checked, a human-readable table and
a `# machine` line go to standard output, and the last line is one JSON object
with `correct`, `attempted` (fitness evaluations computed), `failed` (of
those, absorbed into worst-case fitness) and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run also
writes its spans to .perfbench/traces/. The exit code is 1 when a
correctness check fails and 2 when the qkevolve sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qkevolve"
GENERATOR = ROOT / "scripts" / "make_synthetic_data.py"
WORK_ROOT = ROOT / ".perfbench"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS itself reports, read through the library numpy
    loaded; None when it cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT; None outside a git checkout (git is
    kept from searching the directories above ROOT)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info(eval_threads: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "eval_threads": eval_threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not GENERATOR.is_file():
        print(f"perfbench: qkevolve sources not found under {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(ROOT / "src"))
    import qkevolve

    if Path(qkevolve.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported qkevolve from {qkevolve.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    import metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workload = dataclasses.replace(
        workload, threads=min(workload.threads, workloads.available_threads())
    )

    workdir = WORK_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# machine " + json.dumps(machine_info(workload.threads), sort_keys=True))
    if args.trace:
        values = metrics.per_layer(outcome)
        units, samples = metrics.PER_LAYER, {}
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        outcome.recorder.write_jsonl(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values, samples = metrics.end_to_end(outcome)
        units = metrics.END_TO_END
    for name, value in values.items():
        note = f"  (n={samples[name]})" if name in samples else f"  -> {metrics.MOVES[name]}"
        print(f"# {name:42s} {value:14.6g} {units[name]}{note}")
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    attempted = sum(len(r.eval_spans) for r in outcome.rounds)
    failed = sum(r.failures for r in outcome.rounds)
    print(f"# rounds {len(outcome.rounds)}, evaluations computed {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
