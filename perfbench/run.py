#!/usr/bin/env python3
"""Build and run the SecCloud end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The benchmark is built from source with
dune (no shared cache, so nothing is written outside the tree), then
run once per workload.  Every workload prints its metrics by name and
unit; the last stdout line of a single-workload run is one JSON object
{correct, attempted, failed, metrics}.  Results and traced-run span
files land in perfbench/out/.  Exit status: 0 when every correctness
check passed, 1 when one failed, 2 when the tree cannot be built or
run, 3 on a timeout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["ingest", "audit", "dynamic_rw", "service_mix"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    # Each workload pins its own domain count inside the benchmark.
    e.pop("SECCLOUD_DOMAINS", None)
    if "PERFBENCH_COMMIT" not in e and os.path.isdir(".git"):
        try:
            e["PERFBENCH_COMMIT"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return e


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(2, "no %s here: run from the root of a SecCloud checkout" % need)
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           capture_output=True, text=True, env=env(),
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(2, "dune not found")
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail(2, "build failed")


def run(args, echo=True):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([EXE] + args, capture_output=True, text=True, env=env(),
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "run timed out: " + " ".join(args))
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def result(lines):
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def smoke():
    """Every workload at tiny sizes: checks pass, every metric listed in
    BENCHMARK.json appears with its unit, a mislabelled cheater fails
    the run, and the service digest repeats for a repeated seed."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    tiny = ["--tiny", "--ops", "24", "--seed", "7"]
    for w in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run(["--workload", w, "--trace", trace] + tiny, echo=False)
            res = result(lines)
            if code != 0 or res is None or not res["correct"]:
                problems.append("%s trace=%s: exit %d" % (w, trace, code))
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%s: metric %s missing or mis-unit"
                                    % (w, trace, m["name"]))
    code, lines = run(["--workload", "audit", "--trace", "0", "--mislabel"] + tiny,
                      echo=False)
    res = result(lines)
    if code != 1 or res is None or res["correct"]:
        problems.append("audit with a mislabelled cheater was not refused")
    digests = []
    for _ in range(2):
        _, lines = run(["--workload", "service_mix", "--trace", "0"] + tiny, echo=False)
        digests.append([l for l in lines if l.startswith("env digest=")])
    if not digests[0] or digests[0] != digests[1]:
        problems.append("service digest differs across runs of one seed: %s" % digests)
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    a, extra = ap.parse_known_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    names = WORKLOADS if a.workload == "all" else [a.workload]
    worst = 0
    for w in names:
        if len(names) > 1:
            print("== %s" % w, flush=True)
        code, lines = run(["--workload", w, "--seed", a.seed, "--seconds", a.seconds,
                           "--trace", a.trace] + extra)
        if result(lines) is None:
            fail(2, "%s printed no result line" % w)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
