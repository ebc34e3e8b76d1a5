#!/usr/bin/env python3
"""loopchar benchmark: run one workload and print its result.

    python3 loopbench/run.py --workload block-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) with ``PYTHONHASHSEED`` pinned, so no workload
warms another's caches.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
Earlier lines record the environment and the workload's readings under
their own names (``cli_p50_ms``, ``block_p99_ms``, ...).

``--workload all`` runs the four workloads one after another and prints
every end-to-end reading by name.  ``--smoke`` shrinks each workload for
the benchmark's own tests; its numbers are not comparable.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

HASH_SEED = "0"
WORKER_TIMEOUT_S = 170
OUT_DIR = ".loopbench-out"


def spawn_ms() -> float:
    """Median wall time of a bare interpreter start, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" where the root is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "loopchar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "pythonhashseed": HASH_SEED,
        "cli.spawn_ms": spawn_ms(),
    }


def run_worker(root: str, name: str, args) -> tuple:
    """Run one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(
        os.environ,
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=os.path.join(root, "src"),
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", root, "--out", os.path.join(root, OUT_DIR),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def run_all(root: str, args) -> int:
    readings, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        rc, lines = run_worker(root, name, args)
        if rc != 0 or len(lines) < 2:
            return rc or 1
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in info["metrics"].items():
            shared = key in ("setup_s", "peak_rss_mb", "fail_ratio")
            readings[f"{name}.{key}" if shared else key] = m
            print(f"{name:13s} {key:18s} {m['value']:14.6g} {m['unit']:6s} "
                  f"(n={info['samples']}, tail {info['tail_percentile']})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": readings}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny runs for the benchmark's own tests")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopchar", "__init__.py")):
        print("error: run from a checkout root holding src/loopchar", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    print(json.dumps({"env": environment(root, args)}), flush=True)
    if args.workload == "all":
        return run_all(root, args)
    rc, lines = run_worker(root, args.workload, args)
    if rc != 0 or not lines:
        print(f"error: worker exited with {rc}", file=sys.stderr)
        return rc or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
