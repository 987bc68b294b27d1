#!/usr/bin/env python3
"""One benchmark run of the OFTT reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the C++ harness (perfbench/harness.cpp on top of src/) into
.bench_build/perfbench on first use, runs one workload for about S
seconds of host time and checks its outputs. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). The lines before it give the host context, the
history digest, the sim-domain guards and every check. A failed check
still prints the result (correct=false; each problem counts as a failed
operation) and exits 1. Without a source tree beside perfbench/ the run
exits 1 before printing a result.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "oftt_perfbench"
TRACES = ROOT / ".bench_build" / "traces"
PINS = HERE / "pins.json"
WORKLOADS = ("swim512", "swim512_pdes", "opc_farm_failover", "plant")
# Metrics read off the wall clock; every other value is sim-domain and
# repeats exactly for a seed.
HOST_DOMAIN = {
    "setup_s", "host_s_per_sim_s", "peak_rss_mb", "sim.host_ns_per_event", "pdes.stall_ms",
    "swim.host_ns_per_datagram", "ftim.full_ckpt_slice_host_ms", "ftim.save_ns_p50",
    "ftim.save_ns_p99", "opc.tagstore_set_ns", "diverter.send_ns",
    "phase.steady_host_s_per_sim_s", "phase.failover_host_s", "trace.overhead_host_s_per_sim_s",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ beside perfbench/: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = BUILD / "tmp"  # keeps the compiler's temporary files inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD), "--target", "oftt_perfbench", "-j", "3"])
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                if "-S" in cmd:
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                log.flush()
                tail = "\n".join(log_path.read_text(errors="replace").splitlines()[-40:])
                fail(f"build failed, see {log_path}:\n{tail}")


def run_harness(workload, seed, seconds, trace=False, inject_ns=0, workers=None, trace_out=None):
    """Run the harness once and return its JSON record."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if inject_ns:
        cmd += ["--inject-ns", str(int(inject_ns))]
    if workers:
        cmd += ["--workers", str(workers)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def host_rate(episodes):
    """Median host seconds per simulated second over `episodes`."""
    return statistics.median(ep["window_host_s"] / ep["window_sim_s"] for ep in episodes)


def fastest_rate(episodes):
    """Host seconds per simulated second with each window slice at its
    fastest across `episodes`. Every episode of a seed does the same work
    slice by slice, while a busy shared host only ever slows a slice, so
    the minimum filters bursts of contention that a median over two or
    three episodes lets through."""
    chunks = zip(*(ep["chunk_ns"] for ep in episodes))
    return sum(min(c) for c in chunks) / 1e9 / episodes[0]["window_sim_s"]


def problems_of(rec, pins):
    """Every violation of the correctness gate, one readable line each."""
    eps = rec["episodes"]
    problems = [f"episode {i}: {name} failed"
                for i, ep in enumerate(eps) for name, ok in ep["checks"].items() if not ok]
    if len({ep["digest"] for ep in eps}) != 1:
        problems.append("the history digest differs between episodes of one seed")
    if any(ep["guards"] != eps[0]["guards"] for ep in eps):
        problems.append("the sim-domain guards differ between episodes of one seed")
    pinned = pins.get(rec["workload"], {}).get(str(rec["seed"]))
    if pinned is not None and pinned != eps[0]["digest"]:
        problems.append(f"history digest {eps[0]['digest']} differs from the pinned {pinned}")
    return problems


def metrics_of(rec, trace, spec):
    eps = rec["episodes"]
    untraced = [ep for ep in eps if not ep["traced"]]
    if not trace:
        values = {"setup_s": statistics.median(ep["setup_s"] for ep in eps),
                  "host_s_per_sim_s": fastest_rate(untraced),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    else:
        traced = [ep for ep in eps if ep["traced"]]
        values = {name: statistics.median(ep["layers"][name] for ep in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_host_s_per_sim_s"] = host_rate(traced) - host_rate(untraced)
        wanted = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def report(rec, pins, problems, metrics, trace_out):
    context = {key: rec[key] for key in ("workload", "seed", "engine", "workers", "build_type",
                                         "compiler", "sanitized", "hardware_threads")}
    context["nproc"] = len(os.sched_getaffinity(0))
    context["episodes"] = len(rec["episodes"])
    if rec["sanitized"]:
        context["comparable"] = False  # sanitizer timings are not comparable
    print("context " + json.dumps(context))
    first = rec["episodes"][0]
    pinned = str(rec["seed"]) in pins.get(rec["workload"], {})
    print(f"digest {first['digest']} ({'pinned seed' if pinned else 'seed not pinned'})")
    for name, value in first["guards"].items():
        print(f"  {name:34} {value:>16.6g}          sim")
    for name, ok in first["checks"].items():
        print(f"  check {name:40} {'ok' if ok else 'FAILED'}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    for name, m in metrics.items():
        domain = "host" if name in HOST_DOMAIN else "sim"
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']:8} {domain}")
    if trace_out:
        print(f"slices and spans: {trace_out}")


def main():
    ap = argparse.ArgumentParser(description="Run one perfbench workload (perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    trace_out = None
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        trace_out = TRACES / f"{args.workload}-seed{args.seed}.json"
    rec = run_harness(args.workload, args.seed, args.seconds, args.trace, trace_out=trace_out)
    pins = load_pins()
    problems = problems_of(rec, pins)
    metrics = metrics_of(rec, args.trace, spec)
    report(rec, pins, problems, metrics, trace_out)
    eps = rec["episodes"]
    print(json.dumps({"correct": not problems,
                      "attempted": sum(ep["attempted"] for ep in eps),
                      "failed": sum(ep["failed"] for ep in eps) + len(problems),
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
