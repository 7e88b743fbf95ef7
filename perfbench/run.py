#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1   # every workload, untraced
                                              # then traced; rewrites
                                              # BENCHMARK.json
    python3 perfbench/run.py --self-test      # the correctness gate
                                              # must catch perturbations

The first call builds the simulator libraries, the nsrf_serve daemon
and the driver from source into .bench_build/.  The driver prints one
JSON line; this script checks it against SPEC, prints every metric by
name with its unit, and ends with the one-line result object.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = ".bench_out"

# The benchmark's contract, written verbatim to BENCHMARK.json.
SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "paper_sweep",
         "why": "every figure-bench cell as one lane-batched sweep on all "
                "cores: the simulator step, register file and cache "
                "dominate; decode is shared by lanes"},
        {"name": "explore_prefix",
         "why": "successive-halving search from an empty cache: the only "
                "load on snapshot save/restore and the explorer's ranking; "
                "promoted points simulate only their tails"},
        {"name": "serve_hot",
         "why": "2 clients send ~36-cell submits to a warmed daemon over "
                "its socket: the read path (parse, fingerprint, cache, "
                "decode, encode) with no simulation"},
        {"name": "serve_cold",
         "why": "3 clients each submit one never-seen cell: the write path "
                "(queue, batching, simulate, cache put), each cell "
                "decoding its own stream"},
    ],
    "end_to_end": [
        {"name": "req_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "req_p90_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "req_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "ok_share", "unit": "ratio", "better": "higher",
         "bound": 0.01},
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
         "bound": 0.10},
    ],
    "per_layer": [
        {"name": "workload.fill_s", "unit": "s", "better": "lower"},
        {"name": "workload.ns_per_event", "unit": "ns", "better": "lower"},
        {"name": "workload.events", "unit": "count", "better": "lower"},
        {"name": "sim.step_s", "unit": "s", "better": "lower"},
        {"name": "sim.ns_per_step", "unit": "ns", "better": "lower"},
        {"name": "sim.steps", "unit": "count", "better": "higher"},
        {"name": "sim.decode_share", "unit": "ratio", "better": "lower"},
        {"name": "sim.sweep_s", "unit": "s", "better": "lower"},
        {"name": "sim.units", "unit": "count", "better": "lower"},
        {"name": "sim.lanes_per_decode", "unit": "ratio",
         "better": "higher"},
        {"name": "sim.pool_efficiency", "unit": "ratio", "better": "higher"},
        {"name": "sim.pool_overhead_s", "unit": "s", "better": "lower"},
        {"name": "sim.parts_sum_error", "unit": "ratio", "better": "lower"},
        {"name": "regfile.accesses", "unit": "count", "better": "higher"},
        {"name": "regfile.miss_ratio", "unit": "ratio", "better": "lower"},
        {"name": "regfile.spills", "unit": "count", "better": "lower"},
        {"name": "regfile.reloads", "unit": "count", "better": "lower"},
        {"name": "regfile.line_evictions", "unit": "count",
         "better": "lower"},
        {"name": "regfile.ns_per_access", "unit": "ns", "better": "lower"},
        {"name": "mem.cache_accesses", "unit": "count", "better": "lower"},
        {"name": "mem.cache_miss_ratio", "unit": "ratio", "better": "lower"},
        {"name": "snapshot.captured", "unit": "count", "better": "lower"},
        {"name": "snapshot.restored", "unit": "count", "better": "higher"},
        {"name": "snapshot.steps_skipped", "unit": "count",
         "better": "higher"},
        {"name": "snapshot.skip_ratio", "unit": "ratio", "better": "higher"},
        {"name": "snapshot.save_ms", "unit": "ms", "better": "lower"},
        {"name": "snapshot.restore_ms", "unit": "ms", "better": "lower"},
        {"name": "snapshot.bytes", "unit": "bytes", "better": "lower"},
        {"name": "explore.evaluate_s", "unit": "s", "better": "lower"},
        {"name": "explore.self_s", "unit": "s", "better": "lower"},
        {"name": "explore.evaluations", "unit": "count", "better": "lower"},
        {"name": "serve.parse_us", "unit": "us", "better": "lower"},
        {"name": "serve.fingerprint_us", "unit": "us", "better": "lower"},
        {"name": "serve.cache_get_us", "unit": "us", "better": "lower"},
        {"name": "serve.decode_us", "unit": "us", "better": "lower"},
        {"name": "serve.encode_us", "unit": "us", "better": "lower"},
        {"name": "serve.request_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.transport_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "serve.simulate_s", "unit": "s", "better": "lower"},
        {"name": "serve.queue_wait_p50_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.queue_wait_p90_ms", "unit": "ms", "better": "lower"},
        {"name": "serve.batches", "unit": "count", "better": "lower"},
        {"name": "serve.cells_per_batch", "unit": "ratio",
         "better": "higher"},
        {"name": "serve.merges", "unit": "count", "better": "higher"},
        {"name": "serve.rejections", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_req_p50_ms", "unit": "ms",
         "better": "lower"},
        {"name": "trace.overhead_work_per_s", "unit": "1/s",
         "better": "higher"},
        {"name": "trace.spans", "unit": "count", "better": "lower"},
    ],
}

# How each workload's work_per_s is counted (printed beside it).
WORK_UNIT = {
    "paper_sweep": "steps_per_s (simulated trace events per host second)",
    "explore_prefix": "points_per_s (lattice points ranked per second)",
    "serve_hot": "cells_per_s (cached cells served per second)",
    "serve_cold": "steps_per_s (simulated trace events per host second)",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver and daemon up to date."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perfbench_driver", "nsrf_serve_cli"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def driver():
    return os.path.join(BUILD, "perfbench_driver")


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(name.encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha1:" + digest.hexdigest()


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (result object, driver report)."""
    cmd = [driver(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--jobs", str(os.cpu_count() or 1),
           "--serve-bin", os.path.join(BUILD, "nsrf", "tools", "nsrf_serve"),
           "--out-dir", OUT]
    # A new process group, so a timed-out driver is killed with the daemons it
    # started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("driver failed with exit code %d"
                           % proc.returncode)
    report = json.loads(lines[-1])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in report["metrics"]:
            value = report["metrics"][name]
        elif trace:
            value = 0.0  # the layer is idle on this workload
        else:
            raise RuntimeError("driver did not report " + name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    counts = report["counts"]
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(counts["attempted"]),
        "failed": int(counts["attempted"] - counts["succeeded"]),
        "metrics": metrics,
    }
    return result, report


def describe(workload, seed, result, report):
    """Print the human-readable part of one run to stdout."""
    meta = dict(report["meta"])
    meta["commit"] = commit()
    counts = report["counts"]
    attempted = counts["attempted"]
    failed = attempted - counts["succeeded"]
    print("workload %s  seed %s" % (workload, seed))
    print("  meta: " + "  ".join("%s=%s" % kv for kv in meta.items()))
    print("  counts: attempted=%d succeeded=%d rejected=%d timed_out=%d "
          "errored=%d wrong=%d  fail_share=%.6g"
          % (attempted, counts["succeeded"], counts["rejected"],
             counts["timed_out"], counts["errored"], counts["wrong"],
             failed / attempted if attempted else 0.0))
    for name, metric in result["metrics"].items():
        alias = ""
        if name == "work_per_s":
            alias = "  = " + WORK_UNIT[workload]
        print("  %-28s %18.6g %s%s" % (name, metric["value"],
                                       metric["unit"], alias))
    print("  correct: %s" % ("yes" if result["correct"] else "NO"))
    for note in report["notes"]:
        print("  gate: " + note)


def write_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(SPEC, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced, "
                             "and rewrite BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true",
                        help="show the correctness gate failing on "
                             "perturbed results")
    args = parser.parse_args()
    if not (args.all or args.self_test or args.workload):
        parser.error("give --workload, --all or --self-test")

    os.chdir(ROOT)
    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        return subprocess.call([driver(), "--self-test"])

    runs = [(args.workload, args.trace)]
    if args.all:
        runs = [(w["name"], t) for t in (0, 1) for w in SPEC["workloads"]]
    results = []
    for workload, trace in runs:
        try:
            result, report = run_workload(workload, args.seed,
                                          args.seconds, trace)
        except (RuntimeError, ValueError, KeyError,
                subprocess.SubprocessError) as err:
            log("perfbench: %s: %s" % (workload, err))
            return 1
        describe(workload, args.seed, result, report)
        results.append((workload, trace, result))
    if args.all:
        write_spec()
        print("wrote BENCHMARK.json")
        result = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {"%s/%s" % (w, name): metric
                        for w, t, r in results if not t
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
