#!/usr/bin/env python3
"""Repository benchmark: builds plum_bench from source, runs one workload
and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The benchmark program is built with CMake
into .bench_build/perfbench (build output goes to stderr).  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; the line before it carries the run metadata.  README.md
beside this file describes the workloads and metrics.

The output check has three parts: the distributed invariant checker at
full level must pass on the final mesh; every metric must be finite;
and the run's fingerprint (final mesh, placement and simulated
makespan) must equal the one recorded for the same workload, seed,
cycle count and sources by any earlier run in this checkout.  A traced run always
has an untraced fingerprint to match: if none is recorded yet, it makes
the untraced run first.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "plum_bench")
FINGERPRINTS = os.path.join(BUILD_DIR, "fingerprints.json")
RESULTS = os.path.join(BUILD_DIR, "results")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "parallel", "framework.cpp")):
        fail("library sources not found under %s/src; run from a full checkout"
             % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_bench(args, trace):
    """Runs plum_bench; returns (plan, result) — result None on failure."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--scale", args.scale]
    if args.scale == "tiny":
        cmd += ["--cycles", "4"]
    else:
        cmd += ["--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("plum_bench timed out after %d s" % RUN_TIMEOUT_S)
        return None, None
    plan, result = None, None
    for line in proc.stdout.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if "plan" in doc:
            plan = doc["plan"]
        elif "metrics" in doc:
            result = doc
    if proc.returncode != 0:
        log("plum_bench exited with code %d" % proc.returncode)
        result = None
    return plan, result


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # guest time is already counted in user time
    busy = fields[:8]
    return busy[7] if len(busy) > 7 else 0, sum(busy)


def steal_frac(before, after):
    """Share of CPU time the hypervisor took from this host's CPUs."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def record_fingerprint(key, value):
    table = load_fingerprints()
    table[key] = value
    tmp = FINGERPRINTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
    os.replace(tmp, FINGERPRINTS)


def check_fingerprint(key, result):
    """Compares with the recorded value, recording it when absent."""
    recorded = load_fingerprints().get(key)
    if recorded is None:
        record_fingerprint(key, result["fingerprint"])
        return True
    if recorded != result["fingerprint"]:
        log("fingerprint %s != recorded %s for %s"
            % (result["fingerprint"], recorded, key))
        return False
    return True


def source_digest():
    """SHA-256 of the library and benchmark sources, for run metadata:
    the checkout the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metrics_ok(result, trace):
    """Every metric BENCHMARK.json names for the run kind, finite, with
    its unit, and no other."""
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"]
                for m in load_spec()["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(expected):
        log("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(expected) - set(metrics)),
               sorted(set(metrics) - set(expected))))
        return False
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("metric %s is not a finite number" % name)
            return False
        if m.get("unit") != expected[name]:
            log("metric %s has unit %s, not %s"
                % (name, m.get("unit"), expected[name]))
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in load_spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-test")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    os.makedirs(RESULTS, exist_ok=True)

    ticks0 = cpu_ticks()
    plan, result = run_bench(args, args.trace)
    steal = steal_frac(ticks0, cpu_ticks())
    attempted = max(1, plan["cycles"] if plan else 1)
    if result is None:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    digest = source_digest()
    key = "%s/seed=%d/cycles=%d/scale=%s/source=%s" % (
        args.workload, args.seed, result["cycles"], args.scale, digest)
    correct = bool(result["check_ok"]) and metrics_ok(result, args.trace)
    if not result["check_ok"]:
        log("distributed check failed: " + result["check_summary"])
    if args.trace and key not in load_fingerprints():
        log("no untraced fingerprint recorded for %s; running untraced" % key)
        _, ref = run_bench(args, 0)
        if ref is None or not ref["check_ok"]:
            correct = False
        else:
            record_fingerprint(key, ref["fingerprint"])
    correct = check_fingerprint(key, result) and correct

    meta = {k: v for k, v in result.items()
            if k not in ("metrics", "check_ok", "check_summary")}
    meta.update(scale=args.scale, git_commit=git_commit(),
                source_digest=digest, cpu_steal_frac=steal,
                unix_time=time.time())
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": result["metrics"],
    }
    out = os.path.join(RESULTS, "%s-seed%d-trace%d-%s.json"
                       % (args.workload, args.seed, args.trace, args.scale))
    with open(out, "w") as f:
        json.dump({"meta": meta, "result": final}, f, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
