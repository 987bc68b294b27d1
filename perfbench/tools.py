#!/usr/bin/env python3
"""Tooling around perfbench/run.py.

    python3 perfbench/tools.py sweep --workloads plant --seeds 1-10 --out change.jsonl
    python3 perfbench/tools.py compare parent.jsonl change.jsonl
    python3 perfbench/tools.py selfcheck --seed 9001
    python3 perfbench/tools.py pin --from change.jsonl

sweep      runs run.py once per (workload, seed), appends each result to
           --out, then prints every end-to-end metric's quartiles and
           spread (interquartile range over median) per workload.
compare    reads two sweep files (parent, change) and prints one row per
           workload and end-to-end metric: both medians and quartiles,
           how much worse the change's median is, and a verdict against
           the metric's bound in BENCHMARK.json. A metric whose spread on
           either side exceeds its bound is "unresolved" unless every
           change run beats every parent run. Exits 1 on a regression.
selfcheck  runs one episode per workload, then one more with a host-time
           cost of three times the bound injected at a boundary the
           benchmark owns (bus subscriber, app tick or diverter source),
           and shows host_s_per_sim_s moving by more than its bound while
           the digest and every sim-domain guard stay bit-identical; for
           swim512_pdes it also checks that 1 and 2 workers give one
           digest.
pin        records each workload's history digest per seed in pins.json,
           taken from the correct runs of a sweep file.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (build and harness helpers)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
INJECT_FACTOR = 3.0  # selfcheck's injected cost, in multiples of the bound


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return seeds


def quartiles(xs):
    """(q1, median, q3) the way statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(q):
    return (q[2] - q[0]) / q[1] if q[1] else float("inf")


def load(path):
    """Sweep rows with a result, grouped by workload."""
    by_workload = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if row.get("result"):
            by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def values(rows, name):
    return [r["result"]["metrics"][name]["value"] for r in rows
            if name in r["result"]["metrics"]]


def cmd_sweep(args):
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in seed_list(args.seeds):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                     str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                digest = next((line.split()[1] for line in lines if line.startswith("digest ")),
                              None)
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "exit": proc.returncode, "digest": digest,
                                      "result": result}) + "\n")
                out.flush()
                brief = ({k: float(f"{v['value']:.6g}") for k, v in result["metrics"].items()
                          if k in E2E} if result else None)
                print(f"{workload} seed {seed}: exit {proc.returncode} "
                      f"correct={result['correct'] if result else None} {brief or ''}",
                      flush=True)
    print_spreads(load(args.out))


def print_spreads(by_workload):
    print(f"\n{'workload':18} {'metric':17} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload, rows in by_workload.items():
        for name, m in E2E.items():
            xs = values(rows, name)
            if not xs:
                continue
            q = quartiles(xs)
            s = spread(q)
            note = ("steady" if s < m["bound"] / 3 else
                    "within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"{workload:18} {name:17} {len(xs):3d} {q[0]:11.5g} {q[1]:11.5g} {q[2]:11.5g} "
                  f"{s:7.2%} {m['bound']:6.0%} {note}")


def cmd_compare(args):
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    print(f"{'workload':18} {'metric':17} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse by':>9}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, m in E2E.items():
            a, b = values(parent[workload], name), values(change[workload], name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / qa[1]
            every_better = all(sign * (y - x) < 0 for x in a for y in b)
            if max(spread(qa), spread(qb)) > m["bound"] and not every_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > spread(qa):
                verdict = "better (medians apart by more than the parent spread)"
            else:
                verdict = "no change beyond the bound"
            fa = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            fb = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{workload:18} {name:17} {fa:>34} {fb:>34} {worse:+9.1%}  {verdict}")
    sys.exit(1 if regressions else 0)


def cmd_selfcheck(args):
    run.build()
    bound = E2E["host_s_per_sim_s"]["bound"]
    passed = True
    print(f"{'workload':18} {'inject ns':>11} {'base s/s':>9} {'hot s/s':>9} {'moved':>7} "
          f"{'bound':>6}  digest and guards")
    for workload in args.workloads.split(","):
        base = run.run_harness(workload, args.seed, 0)
        first = base["episodes"][0]
        rate = run.fastest_rate(base["episodes"])
        points = first["inject_points"] / first["window_sim_s"]
        inject_ns = INJECT_FACTOR * bound * rate * 1e9 / points
        hot = run.run_harness(workload, args.seed, 0, inject_ns=inject_ns)
        hot_rate = run.fastest_rate(hot["episodes"])
        moved = hot_rate / rate - 1
        same = all(ep["digest"] == first["digest"] and ep["guards"] == first["guards"]
                   for ep in hot["episodes"])
        ok = moved > bound and same
        print(f"{workload:18} {inject_ns:11.0f} {rate:9.4f} {hot_rate:9.4f} {moved:7.1%} "
              f"{bound:6.0%}  {'identical' if same else 'DIFFERENT'}  {'ok' if ok else 'FAILED'}",
              flush=True)
        if workload == "swim512_pdes":
            one = run.run_harness(workload, args.seed, 0, workers=1)["episodes"][0]["digest"]
            ok_w = one == first["digest"]
            print(f"{'':18} digest with 1 worker {one}, with 2 workers {first['digest']}: "
                  f"{'identical' if ok_w else 'DIFFERENT'}", flush=True)
            ok = ok and ok_w
        passed = passed and ok
    sys.exit(0 if passed else 1)


def cmd_pin(args):
    pins = run.load_pins()
    for line in Path(args.sweep).read_text().splitlines():
        row = json.loads(line)
        if row.get("digest") and row.get("result") and row["result"]["correct"]:
            pins.setdefault(row["workload"], {})[str(row["seed"])] = row["digest"]
    ordered = {w: dict(sorted(p.items(), key=lambda kv: int(kv[0])))
               for w, p in sorted(pins.items())}
    run.PINS.write_text(json.dumps(ordered, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    every = ",".join(run.WORKLOADS)
    p = sub.add_parser("sweep")
    p.add_argument("--workloads", default=every)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("selfcheck")
    p.add_argument("--workloads", default=every)
    p.add_argument("--seed", type=int, default=9001)
    p = sub.add_parser("pin")
    p.add_argument("--from", dest="sweep", required=True, help="the sweep file to take digests from")
    args = ap.parse_args()
    {"sweep": cmd_sweep, "compare": cmd_compare, "selfcheck": cmd_selfcheck,
     "pin": cmd_pin}[args.cmd](args)


if __name__ == "__main__":
    main()
