#!/usr/bin/env python3
"""End-to-end benchmark driver for phls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-dag --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the phls library from src/ plus the phls_bench
harness) as a Release package in $CARGO_TARGET_DIR (default
.bench_build), runs the workload in its own child process, checks its
outputs against the committed digests in perfbench/expected/ and prints
one JSON line as the last line of standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and leaves a Chrome trace in .bench_out/traces/).
Every run also writes a result file with the host fingerprint to
.bench_out/results/.  A child that crashes, is killed or times out is
reported as a failed workload with its exit status.

    python3 perfbench/run.py --regen     # rewrite perfbench/expected/
    python3 perfbench/run.py --selftest  # the input round-trip test
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["synth-dag", "sweep-plane", "sweep-sharded", "tasks-mix"]
# sweep-sharded must reproduce sweep-plane's outputs, so they share a file.
EXPECTED = {"synth-dag": "synth-dag", "sweep-plane": "sweep-plane",
            "sweep-sharded": "sweep-plane", "tasks-mix": "tasks-mix"}
CHILD_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds the Release package; False on failure."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def run_child(cmd, timeout):
    """Runs `cmd` in its own process group; returns (status, stdout).
    The group is killed on timeout so no worker outlives the run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timed out after %d s" % timeout, ""
    finally:
        try:  # reap any forked worker left in the group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode < 0:
        name = signal.Signals(-proc.returncode).name
        why = " (out of memory?)" if proc.returncode == -signal.SIGKILL else ""
        return "killed by %s%s" % (name, why), out
    if proc.returncode:
        return "exit status %d" % proc.returncode, out
    return "ok", out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args):
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build_dir(), "phls_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(BENCH, "expected", EXPECTED[args.workload] + ".txt"),
           "--work-dir", work]
    try:
        status, out = run_child(cmd, CHILD_TIMEOUT_S)
        trace_file = os.path.join(work, "trace-%s.json" % args.workload)
        if os.path.exists(trace_file):
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            shutil.move(trace_file, os.path.join(
                OUT, "traces", "trace-%s-seed%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    child = None
    lines = out.strip().splitlines()
    if status == "ok" and lines:
        try:
            child = json.loads(lines[-1])
        except ValueError:
            status = "unparsable harness output"
    elif status == "ok":
        status = "no harness output"

    metrics, problems = {}, []
    if child is not None:
        wanted = benchmark_metrics(args.trace)
        for m in wanted:
            got = child["metrics"].get(m["name"])
            if got is None:
                problems.append("metric %s missing" % m["name"])
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        problems += child.get("problems", [])
        attempted, failed = child["attempted"], child["failed"]
    else:
        attempted, failed = 1, 1
        problems.append("workload failed: " + status)
    correct = status == "ok" and failed == 0 and not any(
        p.startswith("metric ") for p in problems)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "status": status, "correct": correct,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "passes": child.get("passes") if child else 0,
        "samples": child.get("samples", {}) if child else {},
        "metrics": metrics, "problems": problems,
        "host": dict(child.get("host", {}) if child else {}, git_commit=git_commit()),
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=2)
    for p in problems:
        log(p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if status == "ok" else 1


def regen():
    """Rewrites the expected digests on the reference kernels."""
    work = os.path.join(OUT, "regen-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        for w in sorted(set(EXPECTED.values())):
            out = os.path.join(BENCH, "expected", w + ".txt")
            cmd = [os.path.join(build_dir(), "phls_bench"), "--regen", w,
                   "--out", out, "--work-dir", work]
            status, _ = run_child(cmd, None)
            if status != "ok":
                log("regen of", w, "failed:", status)
                return 1
            log("wrote", os.path.relpath(out, ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--regen", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no phls sources at", os.path.join(ROOT, "src"), "- run from a checkout")
        return 2
    if not (args.regen or args.selftest or args.workload):
        p.error("one of --workload, --regen or --selftest is required")
    if not build(["phls_bench", "perfbench_inputs_test"]):
        return 1
    if args.selftest:
        status, out = run_child([os.path.join(build_dir(), "perfbench_inputs_test")], None)
        sys.stderr.write(out)
        return 0 if status == "ok" else 1
    if args.regen:
        return regen()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
