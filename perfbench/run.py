#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cell_mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The program (perfbench.cpp, built with CMake into $CARGO_TARGET_DIR or
.bench_build) measures and checks; this wrapper turns its raw samples into
medians, prints a table with spread and sample count per metric, the run
manifest, and as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Metric names, units and the better direction
come from BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("owd_p50_ms", "owd_p99_ms", "goodput_mbps")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the simulator library and perfbench (Release)."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
        if rc != 0:
            raise BenchError(f"build step {' '.join(cmd[:2])} exited with {rc}")
    return os.path.join(out, "perfbench")


def run_program(binary, args):
    """Runs perfbench and returns its result object (its last stdout line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench {' '.join(args)} timed out") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def summarize(result, expected):
    """Medians of the expected metrics; raises if one is missing or bad."""
    got = result["metrics"]
    names = {m["name"] for m in expected}
    extra = sorted(set(got) - names)
    if extra:
        raise BenchError(f"perfbench reports metrics BENCHMARK.json lacks: {extra}")
    rows = []
    for m in expected:
        name = m["name"]
        if name not in got:
            raise BenchError(f"metric {name} missing from perfbench output")
        samples = got[name]["samples"]
        if got[name]["unit"] != m["unit"]:
            raise BenchError(f"metric {name}: unit {got[name]['unit']} != {m['unit']}")
        if not samples or any(v is None or not math.isfinite(v) for v in samples):
            raise BenchError(f"metric {name}: non-finite or empty samples")
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        rows.append((m, statistics.median(samples), q[0], q[2], len(samples)))
    return rows


def source_digest():
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args):
    spec = load_spec()
    binary = build()
    result = run_program(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    rows = summarize(result, expected_metrics(spec, args.trace))

    for f in result["failures"]:
        log(f"FAILED: {f}")
    print(f"{'metric':<30} {'median':>14} {'unit':<8} {'q1':>14} {'q3':>14} {'n':>4}  worse")
    for m, med, q1, q3, n in rows:
        worse = "higher" if m["better"] == "lower" else "lower"
        print(f"{m['name']:<30} {med:>14.6g} {m['unit']:<8} {q1:>14.6g} {q3:>14.6g} {n:>4}  {worse}")
    manifest = dict(result["manifest"])
    manifest["git_sha"] = git_sha()
    manifest["source_sha256"] = source_digest()
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": med, "unit": m["unit"]}
                    for m, med, _, _, _ in rows},
    }))


def selftest():
    """Runs every workload at tiny size and checks the benchmark itself."""
    spec = load_spec()
    binary = build()
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        tiny = ["--workload", w, "--seed", "7", "--seconds", "0.2", "--size", "tiny"]
        first = run_program(binary, tiny + ["--trace", "0"])
        second = run_program(binary, tiny + ["--trace", "0"])
        traced = run_program(binary, tiny + ["--trace", "1"])
        for label, r, trace in (("run 1", first, 0), ("run 2", second, 0), ("traced", traced, 1)):
            try:
                summarize(r, expected_metrics(spec, trace))
            except BenchError as e:
                problems.append(f"{w} {label}: {e}")
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} {label}: outputs failed checks: {r['failures']}")
        for name in SIMULATED:
            if first["metrics"][name]["samples"] != second["metrics"][name]["samples"]:
                problems.append(f"{w}: {name} differs between two runs of one seed")
    check = run_program(binary, ["--check-scenario", "--seed", "7", "--size", "tiny"])
    if not check["correct"]:
        problems.append(f"impairment_grid differs from run_scenario: {check['failures']}")
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        measure(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
