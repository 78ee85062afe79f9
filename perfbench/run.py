#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload with every
DIALGA_* variable removed from the environment, and prints the
binary's report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; each is {"value": v, "unit": u}. setup_s
is the median over SETUP_PROCESSES fresh processes of the CPU time of
the first construction of the workload's system, so every sample pays
the process-wide lazy init; setup_wall_s, its wall time, is reported
beside it. The full record (sample counts, attribution,
fingerprint, notes) is kept under <build>/results/ and the traced run's
spans under <build>/traces/.

--selftest runs every workload at tiny size, traced and untraced, and
requires every end_to_end metric to be a positive finite number. It
adds a negative control per workload (one expected byte flipped must
fail verification), a cluster run too short to fill one percentile
chunk, and refusal checks: a DIALGA_* variable, and a file_roundtrip
data directory on tmpfs. Exit status 0 means every check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("file_roundtrip", "service_mix", "cluster_degraded")
RUN_TIMEOUT_S = 150
SETUP_PROCESSES = 21
# All set-up processes together; with RUN_TIMEOUT_S this keeps a whole
# run under three minutes.
SETUP_BUDGET_S = 20
# Pause before each set-up process: one's exit (freeing its memory and
# threads) does not overlap the next one's construction, and the samples
# spread over about six seconds instead of one burst of host load.
SETUP_PAUSE_S = 0.25


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources not found under", ROOT)
        return None
    out = os.path.join(build_dir(), "perfbench-build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def hermetic_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("DIALGA_")}


def run_binary(binary, workload, seed, seconds, trace, extra=(), env=None,
               data=None, timeout=RUN_TIMEOUT_S):
    """Runs one workload; returns (exit code, stdout lines, record)."""
    data = data or os.path.join(build_dir(), "data", workload)
    shutil.rmtree(data, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=hermetic_env() if env is None else env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out after", timeout, "s")
        shutil.rmtree(data, ignore_errors=True)
        return 124, [], None
    lines = proc.stdout.splitlines()
    record = None
    if lines and lines[-1].startswith("{"):
        record = json.loads(lines[-1])
        lines = lines[:-1]
    spans = os.path.join(data, "spans.jsonl")
    if os.path.exists(spans):
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%s.jsonl" % (workload, seed)))
    shutil.rmtree(data, ignore_errors=True)
    return proc.returncode, lines, record


def measure_setup(binary, workload, seed):
    """Medians of setup_s and setup_wall_s over SETUP_PROCESSES processes,
    each timing its first construction, or None if one of them fails."""
    runs = []
    deadline = time.monotonic() + SETUP_BUDGET_S
    for _ in range(SETUP_PROCESSES):
        time.sleep(SETUP_PAUSE_S)
        left = deadline - time.monotonic()
        rc, _, rec = (run_binary(binary, workload, seed, 1, 0, ["--setup-only"],
                                 timeout=left) if left > 0 else (124, [], None))
        if rc != 0 or rec is None or "setup_s" not in rec["metrics"]:
            log("run.py: set-up run failed or ran out of time (exit %d)" % rc)
            return None
        runs.append(rec["metrics"])
    return {name: {"value": statistics.median(m[name]["value"] for m in runs),
                   "unit": "s", "samples": SETUP_PROCESSES}
            for name in ("setup_s", "setup_wall_s")}


def contract_line(record, spec, trace):
    """The result object for the metric list BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            raise ValueError("metric %s missing from the run" % m["name"])
        if got["unit"] != m["unit"]:
            raise ValueError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        if not math.isfinite(got["value"]) or abs(got["value"]) >= 1e299:
            raise ValueError("metric %s is not finite" % m["name"])
        # End-to-end figures are never 0: a 0 means no samples backed it.
        if not trace and (got["value"] <= 0 or got["samples"] < 1):
            raise ValueError("metric %s = %r from %d samples" % (
                m["name"], got["value"], got["samples"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def tmpfs_mount():
    """A tmpfs mount point of this machine, or None."""
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) > 2 and parts[2] == "tmpfs" and \
                        os.path.isdir(parts[1]):
                    return parts[1]
    except OSError:
        pass
    return None


def selftest(binary, spec):
    ok = True

    def check(name, cond):
        nonlocal ok
        ok = ok and cond
        print("[%s] %s" % ("PASS" if cond else "FAIL", name), flush=True)

    def accepted(rec, setup, trace):
        """The contract line for `rec` is printable: every metric named
        in BENCHMARK.json is there and, untraced, positive and finite."""
        if rec is None or (not trace and setup is None):
            return False
        if setup is not None:
            rec["metrics"].update(setup)
        try:
            contract_line(rec, spec, trace)
        except ValueError as e:
            log("run.py:", e)
            return False
        return True

    for w in WORKLOADS:
        setup = measure_setup(binary, w, 7)
        check("%s set-up runs" % w, setup is not None and all(
            m["value"] > 0 for m in setup.values()))
        for trace in (0, 1):
            rc, _, rec = run_binary(binary, w, 7, 2, trace, ["--tiny"])
            check("%s tiny trace=%d runs clean" % (w, trace),
                  rc == 0 and rec is not None and rec["correct"]
                  and rec["failed"] == 0 and rec["attempted"] > 0
                  and accepted(rec, None if trace else setup, trace))
        rc, _, rec = run_binary(binary, w, 7, 1, 0,
                                ["--tiny", "--corrupt-expected"])
        check("%s negative control is caught" % w,
              rc != 0 and rec is not None and not rec["correct"])
    # Fewer degraded reads than one percentile chunk holds, as in a much
    # slower program: the tails must still come from every sample.
    rc, _, rec = run_binary(binary, "cluster_degraded", 7, 0.2, 0, ["--tiny"])
    check("a run too short to fill a chunk still reports its tails",
          rc == 0 and accepted(rec, setup, 0)
          and rec["metrics"]["degraded_read_p50_us"]["samples"] > 0)
    env = hermetic_env()
    env["DIALGA_AIO"] = "stdio"
    rc, _, rec = run_binary(binary, WORKLOADS[0], 7, 1, 0, ["--tiny"], env)
    check("a DIALGA_* variable makes the binary refuse",
          rc == 2 and rec is None)
    shm = tmpfs_mount()
    if shm is None:
        print("[SKIP] no tmpfs mount to try a tmpfs data directory on")
    else:
        # The directory is never created: the binary refuses first.
        data = os.path.join(shm, "perfbench-selftest-%d" % os.getpid(), "data")
        rc, _, rec = run_binary(binary, "file_roundtrip", 7, 1, 0, ["--tiny"],
                                data=data)
        check("a file_roundtrip data directory on tmpfs makes it refuse",
              rc == 2 and rec is None and not os.path.exists(data))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        log("run.py: BENCHMARK.json not found at", spec_path)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 3
    if args.selftest:
        return selftest(binary, spec)
    if args.workload is None:
        p.error("--workload is required")

    setup = None
    if not args.trace:
        setup = measure_setup(binary, args.workload, args.seed)
        if setup is None:
            return 1
    rc, lines, record = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    for line in lines:
        print(line)
    if record is None:
        log("run.py: the benchmark printed no result (exit %d)" % rc)
        return 1
    if setup is not None:
        record["metrics"].update(setup)
        for name, m in setup.items():
            print("  metric %s = %r s (n=%d, median over fresh processes)"
                  % (name, m["value"], m["samples"]))
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    try:
        line = contract_line(record, spec, args.trace)
    except ValueError as e:
        log("run.py:", e)
        return 1
    print(json.dumps(line), flush=True)
    return 0 if rc == 0 and line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
