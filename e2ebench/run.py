#!/usr/bin/env python3
"""Paper-scale end-to-end benchmark of the lsm characterization pipeline.

    python3 e2ebench/run.py --workload paper_bin_t4 --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds e2ebench/ (Release) into
$CARGO_TARGET_DIR or .bench_build/, generates the workload's input trace
from --seed, measures the workload for --seconds, checks every output and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see e2ebench/README.md). Every measured step is its own process, so its
CPU time and peak RSS come from wait4 and hold no set-up work.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# kind: which driver step runs; input: the trace format set-up writes.
# codec_roundtrip_t4 is not in BENCHMARK.json: its wall time, mostly the
# serial CSV writer, spreads about 0.2 of its median between runs on the
# reference host (see README.md). It runs on demand, and in selftest.py.
WORKLOADS = {
    "paper_bin_t4": {"kind": "paper", "input": "bin", "threads": 4},
    "paper_csv_t1": {"kind": "paper", "input": "csv", "threads": 1},
    "codec_roundtrip_t4": {"kind": "codec", "input": "csv", "threads": 4},
}
SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_REPS = 3  # untraced repetitions per run, however short --seconds is

END_TO_END_UNITS = {
    "wall_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_root):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"e2ebench: no lsm sources beside {HERE.name}/; nothing to build")
    build_dir = build_root / "e2ebench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "lsm_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "lsm_e2e"


class Step:
    """One driver process: its exit code, JSON output and resource usage."""

    def __init__(self, argv):
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.result = None
        if proc.returncode == 0:
            try:
                self.result = json.loads(out.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                log(f"e2ebench: unreadable output from {argv[1]}: {out!r}")
        else:
            log(f"e2ebench: {argv[1]} exited with code {proc.returncode}")
        self.ok = self.result is not None


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def flip_byte(path):
    """Damages one byte of an output, so the checks must catch it."""
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0x01]))


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The repetitions of one benchmark run and the checks on their outputs."""

    def __init__(self, exe, work, name, tamper):
        self.exe, self.work, self.name, self.tamper = exe, work, name, tamper
        self.spec = WORKLOADS[name]
        self.input = work / f"input.{self.spec['input']}"
        self.input_digest = None  # codec: the round trip must reproduce it
        self.untraced, self.traced = [], []  # the measured repetitions
        self.attempted = self.failed = 0
        self.report_digests = []  # paper: digest of each untraced report
        self.traced_digests = []  # paper: digest of each traced report

    def rep(self, traced, warmup=False):
        """Runs and checks one repetition; a warm-up one is not measured."""
        threads = self.spec["threads"]
        flag = ["--traced"] if traced else []
        tamper = self.tamper and not traced  # damage one untraced output
        self.tamper = self.tamper and not tamper
        self.attempted += 1
        if self.spec["kind"] == "paper":
            report = self.work / "report.json"
            step = Step([self.exe, "paper", threads, self.input, report, *flag])
            ok = step.ok and report.is_file()
            if ok and tamper:
                flip_byte(report)
            if ok and traced:
                ok = step.result["acf_match"] == 1
                self.traced_digests.append(sha256(report))
            elif ok:
                self.report_digests.append(sha256(report))
            report.unlink(missing_ok=True)
        else:
            tmp_bin, out_csv = self.work / "roundtrip.bin", self.work / "roundtrip.csv"
            step = Step([self.exe, "codec", threads, self.input, tmp_bin, out_csv,
                         *flag])
            ok = step.ok and out_csv.is_file()
            if ok and tamper:
                flip_byte(out_csv)
            ok = ok and sha256(out_csv) == self.input_digest
            tmp_bin.unlink(missing_ok=True)
            out_csv.unlink(missing_ok=True)
        if not ok:
            self.failed += 1
        if not warmup:
            (self.traced if traced else self.untraced).append(step)

    def check_reports(self, digest_cache):
        """Facade reports must equal the traced one; reports of the same
        seed must agree across the two paper workloads and across runs."""
        if self.spec["kind"] != "paper":
            return
        want = self.traced_digests[0] if self.traced_digests else None
        self.failed += sum(1 for d in self.report_digests + self.traced_digests
                           if d != want)
        if self.failed:
            return  # a report that failed here must not become the reference
        seen = json.loads(digest_cache.read_text()) if digest_cache.is_file() else {}
        if any(d != want for d in seen.values()):
            log(f"e2ebench: report digest differs from {seen} for this seed")
            self.failed = self.attempted
        seen[self.name] = want
        tmp = digest_cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True))
        tmp.replace(digest_cache)


def end_to_end(run, setup):
    steps = [s for s in run.untraced if s.ok]
    return {
        "wall_s": median([s.result["wall_s"] for s in steps]),
        "records_per_s": median([s.result["records"] / s.result["wall_s"]
                                 for s in steps]),
        "cpu_s": median([s.cpu_s for s in steps]),
        "peak_rss_mb": median([s.peak_rss_mb for s in steps]),
        "setup_s": median(setup["setup_s"]),
    }


# Per-layer metrics and their units. A layer that does not run on a
# workload reports 0 (e.g. the characterize layers on codec_roundtrip_t4).
PER_LAYER_UNITS = {
    "core.csv_decode_s": "s", "core.csv_decode_mb_s": "MB/s",
    "core.bin_decode_s": "s", "core.bin_decode_mb_s": "MB/s",
    "core.bin_encode_s": "s", "core.bin_encode_mb_s": "MB/s",
    "core.csv_encode_s": "s", "core.csv_encode_mb_s": "MB/s",
    "core.records_in": "count", "core.ingest_errors": "count",
    "core.sanitize_s": "s", "core.sanitize_dropped": "count",
    "core.summary_s": "s",
    "characterize.sessionize_s": "s",
    "characterize.sessionize_records_s": "records/s",
    "characterize.sessions": "count",
    "characterize.client_layer_s": "s",
    "characterize.session_layer_s": "s",
    "characterize.transfer_layer_s": "s",
    "characterize.layers_s": "s",
    "stats.acf_s": "s", "stats.acf_lags": "count", "stats.acf_points": "count",
    "characterize.report_json_s": "s", "characterize.report_bytes": "bytes",
    "gismo.generate_s": "s", "gismo.transfers": "count",
    "bench.traced_total_s": "s", "bench.unattributed_s": "s",
    "bench.tracing_overhead_s": "s",
    "error_rate": "ratio",
}

def per_layer(run, setup):
    rows = [s.result for s in run.traced if s.ok]
    metrics = {name: median([r.get(name, 0.0) for r in rows])
               for name in PER_LAYER_UNITS}
    # Where the measured pipeline encodes nothing (the paper workloads),
    # the encode layer is timed on set-up's write of the input file.
    encode = f"core.{run.spec['input']}_encode"
    if not any(encode + "_s" in r for r in rows):
        metrics[encode + "_s"] = median(setup["write_s"])
        metrics[encode + "_mb_s"] = median([setup["written_mb"] / s
                                            for s in setup["write_s"]])
    untraced_wall = median([s.result["wall_s"] for s in run.untraced if s.ok])
    metrics["bench.tracing_overhead_s"] = metrics["bench.traced_total_s"] - untraced_wall
    metrics["gismo.generate_s"] = median(setup["generate_s"])
    metrics["gismo.transfers"] = setup["transfers"]
    metrics["error_rate"] = run.failed / run.attempted
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the self-test: a smaller trace, and one damaged output byte.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--tamper-output", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    build_root = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    exe = build(build_root)
    (build_root / "work").mkdir(parents=True, exist_ok=True)
    (build_root / "digests").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build_root / "work"))
    try:
        run = Run(exe, work, args.workload, args.tamper_output)
        setup = Step([exe, "setup", spec["input"], args.scale, args.seed, SETUP_REPS,
                      run.input])
        if not setup.ok:
            sys.exit("e2ebench: set-up failed")
        setup = setup.result
        if spec["kind"] == "codec":
            run.input_digest = sha256(run.input)

        # The first repetition after set-up runs measurably slower (page
        # cache and allocator state left by set-up), so it is checked like
        # every other one but left out of the medians. With --trace 0 that
        # is the traced repetition, which gives the reference report.
        if args.trace:
            run.rep(traced=False, warmup=True)
            start = time.monotonic()
            # Alternate, so both kinds see the same machine state.
            while not run.traced or time.monotonic() - start < args.seconds:
                run.rep(traced=False)
                run.rep(traced=True)
        else:
            run.rep(traced=True)
            start = time.monotonic()
            while (len(run.untraced) < MIN_REPS
                   or time.monotonic() - start < args.seconds):
                run.rep(traced=False)
        exe_tag = sha256(exe)[:16]
        run.check_reports(build_root / "digests" /
                          f"{exe_tag}-{args.scale}-{args.seed}.json")

        if args.trace:
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                       for k, v in per_layer(run, setup).items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end(run, setup).items()}
        print(f"{args.workload} seed={args.seed} scale={args.scale}: "
              f"{len(run.untraced)} untraced + {len(run.traced)} traced runs "
              f"measured of {run.attempted}, "
              f"{SETUP_REPS} set-ups (medians below)")
        for name, m in metrics.items():
            print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                          "failed": run.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
