#!/usr/bin/env python3
"""STGSim benchmark entry point.

Builds the simulator and the stgbench program from source into .bench_build
(CMake, Release), runs one seeded workload in its own process, prints every
metric by name with its unit, and ends with one JSON result line:

  python3 stgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (spans are written to .bench_build/work/trace-NAME.json). The
exit code is 0 only when every output check passed.

Steadiness report: run each workload N times and print, per metric, the
median, the quartiles, the spread against the bound, and the per-run sample
counts and CPU utilisation; exact counts that drift between runs of one seed
are flagged:

  python3 stgbench/run.py --report N [--workload NAME ...] [--seconds S]
                          [--seed S | --seed-base B [--seed-base B2 ...]]

Each --seed-base starts a set of N seeds; the sets' runs are interleaved and
each set's medians are compared with the first set's against the bounds.

Regenerate the default-seed digests and counts in stgbench/expected.json:

  python3 stgbench/run.py --write-expected
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "Release"
DEFAULT_SEED = 1


def run_timeout_s(seconds):
    """How long one run may take: its timed phase lasts about --seconds (on
    the simulation workloads at least 3 rounds, 25-30 s), and set-up and the
    untimed checks add well under a minute. Three times that, plus slack."""
    return 3 * max(seconds, 20) + 100


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once and builds incrementally; False when it fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("stgbench: build failed:", " ".join(cmd))
            return False
    return True


def git(*args):
    """Output of a git command in the checkout, or None without git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The git commit; with uncommitted changes to the sources, the commit
    plus "-dirty-" and a hash of the sources; without git, that hash."""
    commit = git("rev-parse", "HEAD")
    if commit and not git("status", "--porcelain", "--", "src", HERE.name):
        return commit
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    tree = "tree-" + h.hexdigest()[:16]
    return f"{commit}-dirty-{tree}" if commit else tree


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(workload, seed, seconds, trace, write_expected=None):
    """Runs stgbench once; returns its result document, or None."""
    cmd = [str(BUILD / "stgbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--stgsim", str(BUILD / "stgsim" / "cli" / "stgsim"),
           "--work-dir", str(BUILD / "work" / workload),
           "--expected", str(HERE / "expected.json")]
    if write_expected:
        cmd += ["--write-expected", str(write_expected)]
    # Own process group, so that a daemon left behind by a crash or a
    # timeout is stopped together with stgbench.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    timeout = run_timeout_s(seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"stgbench: {workload} did not finish in {timeout} s")
        return None
    stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"stgbench: exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def ledger(bench):
    return {"host_cores": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": source_id(),
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]}}


def run_one(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload[0] not in names:
        log(f"stgbench: unknown workload {args.workload[0]}; one of {names}")
        return 2
    workload = args.workload[0]
    doc = run_bench(workload, args.seed, args.seconds, args.trace)
    if doc is None:
        return 1
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in doc["metrics"]]
    if missing:
        log("stgbench: missing metrics", ", ".join(missing))
        return 1
    meta = ledger(bench)
    meta["workload"] = workload
    meta["why"] = meta.pop("workloads")[workload]
    meta.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("ledger", json.dumps(meta))
    print("samples", json.dumps(doc["samples"]))
    print("counts", json.dumps(doc["counts"]))
    for p in doc["problems"]:
        print("CHECK FAILED", p)
    metrics = {}
    for m in wanted:
        v = doc["metrics"][m["name"]]
        print(f"{m['name']:<26} {v['value']:>16.6f} {v['unit']}")
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] else 1


def summarize(docs, bounds):
    """Median, quartiles and spread per end-to-end metric over `docs`."""
    summary = {}
    for name, bound in bounds.items():
        vals = [d["metrics"][name]["value"] for _, d in docs]
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound}
    return summary


def report(args, bench):
    """Runs every workload N times per set of seeds and prints each set's
    summary. Sets are interleaved run by run (set 0 seed i, set 1 seed i,
    ...), so a drift of host speed falls on every set alike, and the
    medians of each set are compared with those of set 0 against the
    bounds."""
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bases = args.seed_base or [None]
    seeds = [[args.seed] * args.report if b is None else
             [b + i for i in range(args.report)] for b in bases]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    out = {"ledger": ledger(bench), "runs": args.report,
           "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    status = 0
    for w in names:
        docs = [[] for _ in seeds]
        for i in range(args.report):
            for k, set_seeds in enumerate(seeds):
                seed = set_seeds[i]
                t0 = time.monotonic()
                doc = run_bench(w, seed, args.seconds, False)
                elapsed = time.monotonic() - t0
                if doc is None or not doc["correct"]:
                    log(f"stgbench: {w} seed {seed} failed:",
                        doc and doc["problems"])
                    status = 1
                    continue
                docs[k].append((seed, doc))
                log(f"{w} seed {seed} ({elapsed:.1f} s):", json.dumps(
                    {k: v["value"] for k, v in doc["metrics"].items()}))
        sets = []
        for k, set_docs in enumerate(docs):
            if not set_docs:
                continue
            summary = summarize(set_docs, bounds)
            print(f"\n== {w} set {k}, seeds {seeds[k][0]}.. "
                  f"({len(set_docs)} runs)")
            print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6} {'vs set 0':>9}")
            for name, m in summary.items():
                flag = ("" if name == "setup_s" or m["spread"] <= m["bound"] / 3
                        else " <-")
                change = ""
                if sets and name in sets[0]["metrics"]:
                    ref = sets[0]["metrics"][name]["median"]
                    worse = m["median"] / ref - 1 if ref else 0.0
                    if metrics[name]["better"] == "higher":
                        worse = -worse
                    m["worse_than_set0"] = worse
                    change = f"{worse:>+9.4f}"
                    if worse > m["bound"]:
                        flag += " WORSE THAN BOUND"
                        status = 1
                print(f"{name:<14} {m['median']:>12.5g} {m['q1']:>12.5g} "
                      f"{m['q3']:>12.5g} {m['spread']:>8.4f} "
                      f"{m['bound']:>6} {change:>9}{flag}")
                if name != "setup_s" and m["spread"] > m["bound"]:
                    status = 1
            per_run = [{"seed": s, **d["samples"]} for s, d in set_docs]
            for r in per_run:
                print("  run", json.dumps(r))
            sets.append({"metrics": summary, "per_run": per_run})
        drift = []
        by_seed = {}
        for set_docs in docs:
            for s, d in set_docs:
                by_seed.setdefault(s, []).append(d["counts"])
        for s, counts in by_seed.items():
            if any(c != counts[0] for c in counts):
                drift.append(s)
        if drift:
            print("  EXACT COUNTS DRIFTED for seeds", drift)
            status = 1
        out["workloads"][w] = {"sets": sets, "count_drift_seeds": drift}
    print(json.dumps(out))
    return status


def write_expected(bench):
    path = HERE / "expected.json"
    path.unlink(missing_ok=True)
    for w in bench["workloads"]:
        if run_bench(w["name"], DEFAULT_SEED, 1, False, path) is None:
            return 1
    log("wrote", path)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seed-base", type=int, action="append", default=[],
                    help="first seed of a set; repeat for interleaved sets")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=int, metavar="N")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log("stgbench: cannot read BENCHMARK.json:", e)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not build():
        return 1
    if args.write_expected:
        return write_expected(bench)
    if args.report:
        return report(args, bench)
    if len(args.workload) != 1:
        log("stgbench: give one --workload (or --report N)")
        return 2
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
