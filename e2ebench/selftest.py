#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at reduced scale.

    python3 e2ebench/selftest.py [--seed N]

From the repository root. For every workload run.py knows, including
those BENCHMARK.json leaves out, it runs run.py once with
--trace 0 and once with --trace 1 on a small trace, and checks that each
metric BENCHMARK.json names is printed exactly once, with its unit, and
that every output check passed. It then damages one output byte per
workload and checks that the run is counted as failed, and that run.py
refuses to run, without printing a result, where the sources are missing.
Exits 0 when every check holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SCALE = "0.02"


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"printed more than once: {sorted(dup)}")
    return dict(pairs)


def bench(cwd, workload, seed, trace, *extra):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE, *extra],
        cwd=cwd, capture_output=True, text=True)


def result_of(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1],
                      object_pairs_hook=no_duplicates)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for w in WORKLOADS:
        for trace in (0, 1):
            try:
                r = result_of(bench(ROOT, w, seed, trace))
            except (RuntimeError, ValueError) as e:
                problems.append(f"{w} --trace {trace}: {e}")
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} --trace {trace}: metrics {got} != {want[trace]}")
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                problems.append(f"{w} --trace {trace}: checks failed: {r}")
            print(f"{w} --trace {trace}: {len(got)} metrics, "
                  f"{r['attempted']} runs, {r['failed']} failed")

        r = result_of(bench(ROOT, w, seed, 0, "--tamper-output"))
        if r["correct"] or r["failed"] < 1:
            problems.append(f"{w}: a damaged output byte was not caught: {r}")
        print(f"{w} with one damaged output byte: {r['failed']} of "
              f"{r['attempted']} runs failed")

    # Only BENCHMARK.json and the benchmark's files: run.py must refuse.
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = build_root.resolve() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, spec["workloads"][0]["name"], seed, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")
    print(f"without the sources: exit code {proc.returncode}, no result printed")

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
