"""Run one sirmetric benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  ``--workload all`` runs every workload, each in its own
process, one after another.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""
from __future__ import annotations

import os

# One BLAS thread: pinned before numpy loads, and recorded in the header.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train-default", "train-wide", "eval-gallery")


def _read(path) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git_dir, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    value = _read(os.path.join(git_dir, ref)).strip()
    if value:
        return value
    for line in _read(os.path.join(git_dir, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> list:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.machine())
    threads = next((line.split(":", 1)[1].strip()
                    for line in _read("/proc/self/status").splitlines()
                    if line.startswith("Threads:")), "unknown")
    return [
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        f"blas {blas}, threads pinned to {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)",
        f"process threads {threads}",
        f"nproc {os.cpu_count()}",
        f"cpu {cpu}",
        f"commit {git_commit()}",
    ]


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "sirmetric", "__init__.py")):
        print(f"error: no sirmetric sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import Bench

    for line in environment():
        print(f"# {line}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  os.path.join(WORKDIR, args.workload))
    report = bench.run()
    ops = report["ops"]
    print(f"# rounds {report['rounds']}")
    for traced, digests in sorted(report["digests"].items()):
        for digest in sorted(digests):
            print(f"# loss-log sha256 ({'traced' if traced else 'untraced'}) {digest}")
    print(f"{'metric':40s} {'value':>16s}  {'unit':6s} n")
    for name, (value, unit, count) in report["rows"].items():
        print(f"{name:40s} {value:16.6f}  {unit:6s} {'' if count is None else count}")
    print("# not gated: medians and tails (n, samples above the value)")
    for name, (value, unit, count, above) in report["distributions"].items():
        print(f"{name:40s} {value:16.6f}  {unit:6s} {count} ({above} above)")
    print(f"{'error_rate':40s} {ops.error_rate:16.6f}  {'ratio':6s} {ops.attempted}")
    if bench.tracer is not None:
        bench.tracer.write(os.path.join(WORKDIR, args.workload, "spans.csv"))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["rows"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
