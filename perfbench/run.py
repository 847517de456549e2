#!/usr/bin/env python3
"""Run one benchmark measurement of the ddmgnn solver library.

    python3 perfbench/run.py --workload lu-160k --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/perfbench, verifies the committed DSS
model fixture against its SHA-256, runs one workload and prints the result
record as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. The
exit code is 0 only when every answer was re-checked and correct.

    python3 perfbench/run.py --selftest

builds and runs the C++ self-test and the Python tests instead.
"""
import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

FIXTURE = HERE / "fixture" / "dss_k10_d10_h10_default.bin"
FIXTURE_SHA256 = "d75014690e1e23356810c375d6e1878e2cb1504d704d7ea8ab9ad83c915686ed"

WORKLOADS = ("lu-160k", "gnn-10k", "service-2op")
END_TO_END = ("setup_s", "latency_p50_s", "max_rate_per_s", "peak_rss_mb")
PER_LAYER = (
    "la.spmv_s", "la.spmv_gbs", "la.spmv_speedup_4t", "la.spmv_roofline_frac",
    "precond.apply_s", "precond.local_solve_s", "precond.local_solve_speedup_4t",
    "precond.apply_many_col_s", "precond.cholesky_roofline_frac",
    "partition.restrict_prolong_s", "partition.restrict_prolong_speedup_4t",
    "partition.coarse_apply_s", "partition.coarse_speedup_4t",
    "mg.cycle_apply_s",
    "gnn.projection_s", "gnn.gather_s", "gnn.aggregate_s", "gnn.update_s",
    "gnn.decode_s", "gnn.gflops", "gnn.roofline_frac", "gnn.fallback_share",
    "solver.iterations", "solver.iterate_s", "solver.window_overhead_s",
    "core.setup.decompose_s", "core.setup.local_s", "core.setup.coarse_s",
    "core.cache_hit_ratio", "core.service.queue_wait_p50_s",
    "core.service.window_cols_mean", "core.service.applies_per_solve",
    "host.stream_gbs", "host.fma_gflops",
    "solve_tail_s", "solve_tail_samples", "latency_p99_s",
    "bench.injector_late_p99_s", "bench.trace_overhead", "bench.unattributed_s", "bench.failed_ops_share",
)
# Per-run wall-clock cap for the measuring process (the build is separate).
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_fixture(path, expected):
    """Refuse a model file whose SHA-256 is not the recorded one."""
    if not pathlib.Path(path).is_file():
        raise BenchError(f"model fixture missing: {path}")
    actual = sha256_of(path)
    if actual != expected:
        raise BenchError(
            f"model fixture {path} has SHA-256 {actual}, expected {expected}")


def build(target="perfbench"):
    """Configure and build `target`; build output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / target


def parse_program_output(stdout):
    """The perfbench program's last line is its raw result object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def result_record(raw, trace, returncode):
    """Turn the program's raw object into the benchmark's result record."""
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    errors = list(raw.get("errors", []))
    metrics = dict(raw["metrics"])
    if attempted < 1:
        errors.append("no operation was attempted")
    if trace:
        metrics["bench.failed_ops_share"] = {
            "value": failed / max(attempted, 1), "unit": "ratio"}
    wanted = PER_LAYER if trace else END_TO_END
    missing = [m for m in wanted if m not in metrics]
    if missing:
        errors.append("missing metrics: " + ", ".join(missing))
    selected = {}
    for name in wanted:
        if name in metrics:
            value = float(metrics[name]["value"])
            if not math.isfinite(value):
                errors.append(f"metric {name} is not finite")
            selected[name] = {"value": value, "unit": metrics[name]["unit"]}
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    correct = not errors and failed == 0 and returncode == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": selected}


def run(args):
    binary = build()
    check_fixture(FIXTURE, FIXTURE_SHA256)
    spans = BUILD_DIR / f"spans-{args.workload}-{args.seed}.csv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--model", str(FIXTURE), "--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    for line in proc.stdout.splitlines()[:-1]:
        print(line)
    record = result_record(parse_program_output(proc.stdout), args.trace,
                           proc.returncode)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def selftest():
    subprocess.run([str(build("perfbench_selftest"))], check=True)
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
