"""tautrr benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded Python process (``worker.py``) that imports tautrr from
``src/``.  With ``--trace 0`` the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric; ``setup_s`` is the median over
SETUP_REPEATS fresh processes.  With ``--trace 1`` the metrics are the
per-layer ones, and the spans are written under ``.perfbench/``.  ``--all``
runs every workload, each through this script, and prints a table.
Cache and report files go to a temporary directory under ``.perfbench/``,
which is removed at the end.  Exit status: 0 on a completed run (check
``correct``), 1 if a worker failed, 2 if there is no tautrr to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("pointtarget", "pairing", "ladder", "warmcache")
SETUP_REPEATS = 5
#: every run, set-up processes included, must end within this many seconds
DEADLINE_S = 170


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAUTRR_CACHE"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, tmp: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        setups = [] if args.trace else [
            run_worker(args, tmp, deadline, True)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = run_worker(args, tmp, deadline, False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "passes": result["passes"], "failures": result["failures"]}))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {attempted} ops in {result['passes']} passes, "
          f"fail_ratio {failed / attempted:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload through this script, one fresh process tree each."""
    print(json.dumps({"env": environment()}))
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S + 30)
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"\n{name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}")
        print(f"  {'fail_ratio':40s} {result['failed'] / result['attempted']:>14.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tautrr" / "__init__.py").is_file():
        print(f"error: no tautrr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    try:
        result = run_one(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
