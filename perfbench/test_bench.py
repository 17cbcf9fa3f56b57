#!/usr/bin/env python3
"""The benchmark's own test: runs the oracle self-test, then every workload
briefly in plain and in traced mode, and checks that each run exits 0, is
correct with no failed operation, and prints exactly the metric set that
BENCHMARK.json declares for its mode. A traced run must also leave a span
file in which every phase and base_op span of an operation shares the id of
an op span. Last, a copy of the benchmark without the program's sources must
fail fast without printing a result.

    python3 perfbench/test_bench.py [--seconds S]
"""
import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def run(cmd, cwd=ROOT, timeout=900):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def check_spans(path):
    ops, linked = set(), 0
    kinds = {"op": 0, "phase": 0, "base_op": 0}
    rows = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            kinds[row["span"]] += 1
            if row["span"] == "op":
                ops.add(row["id"])
            else:
                rows.append(row)
    for row in rows:
        if row["id"] == 0:
            continue  # background: issued off any operation
        if row["id"] not in ops:
            return f"{row['span']} span with id {row['id']} has no op span"
        linked += 1
    if min(kinds.values()) == 0 or linked == 0:
        return f"span file lacks a kind of span: {kinds}"
    return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="1")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    p = run([sys.executable, "perfbench/run.py", "--self-test"])
    print(p.stderr.strip().splitlines()[-1] if p.stderr.strip() else "")
    if p.returncode != 0:
        failures.append("oracle self-test: a planted violation was not caught")

    for wl in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{wl['name']} trace {trace}"
            p = run([sys.executable, "perfbench/run.py", "--workload",
                     wl["name"], "--seed", "5", "--seconds", args.seconds,
                     "--trace", str(trace)])
            lines = p.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{tag}: no JSON result (exit {p.returncode})"
                                f"\n{p.stderr[-2000:]}")
                continue
            problems = []
            if p.returncode != 0:
                problems.append(f"exit {p.returncode}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(res)}")
            if res.get("correct") is not True:
                problems.append("correct is not true")
            if res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"attempted {res.get('attempted')} "
                                f"failed {res.get('failed')}")
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            if got != want[trace]:
                problems.append(f"metric set differs: {sorted(set(got) ^ set(want[trace]))}")
            if trace == 0:
                zero = [k for k, v in res["metrics"].items() if v["value"] <= 0]
                if zero:
                    problems.append(f"end-to-end metrics at 0: {zero}")
            else:
                span_file = OUT / f"spans-{wl['name']}.jsonl"
                if not span_file.is_file():
                    problems.append("no span file")
                else:
                    err = check_spans(span_file)
                    if err:
                        problems.append(err)
            print(f"{tag}: {'ok' if not problems else '; '.join(problems)}")
            if problems:
                failures.append(f"{tag}: {'; '.join(problems)}\n{p.stderr[-2000:]}")

    # Without the program's sources the command must fail fast, printing
    # no result.
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, timeout=180)
        if p.returncode == 0 or p.stdout.strip():
            failures.append("bare copy: expected a non-zero exit and no result")
        print(f"bare copy: exit {p.returncode}, "
              f"{'no result' if not p.stdout.strip() else 'PRINTED A RESULT'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
