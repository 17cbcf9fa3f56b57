#!/usr/bin/env python3
"""End-to-end register benchmark: builds perfbench (Release, its own build
tree) from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout of the repository. Build output goes
to stderr; the benchmark's metric lines and, last, its JSON result go to
stdout. Journals live in a per-run directory under .perfbench-out/ that is
removed on every exit path; traced runs leave spans-<workload>.jsonl there.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench-build"
OUT = ROOT / ".perfbench-out"
REQUIRED = [
    "src/nad/server.h",
    "src/nad/client.h",
    "src/core/swmr_atomic.h",
    "src/core/mwmr_atomic.h",
    "src/core/coded/coded_mwmr.h",
]
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds only the benchmark target (incremental)."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd), 3)
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="feed the oracles planted violations and exit")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail("the program's sources are absent (missing " + ", ".join(missing) +
             "); run from a checkout of the repository", 2)
    binary = build()
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # benchmark, and the finally clause removes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        t0 = time.time_ns()
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--t0-ns", str(t0), "--tmp-dir", str(scratch),
             "--out-dir", str(OUT)],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
