#!/usr/bin/env python3
"""Host-cost benchmark of the Firefly RPC reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pair-bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe with dune (the repository's libraries from
source, release profile), pins the process to one CPU and runs the
named workload.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger.  --self-test runs
every workload briefly in both modes and checks that each metric named
in BENCHMARK.json is printed with its unit, that no call failed, and
that the simulated-output digest is the same in both runs of a seed.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 150
RUN_LIMIT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_layout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("run from the root of a source checkout (missing %s)" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        die("dune is not installed", 3)
    except subprocess.TimeoutExpired:
        die("build timed out", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed", 3)


def pin_to_one_cpu():
    """The workloads run on one domain; pinning keeps the scheduler from
    migrating it (and, on socket-loopback, puts the client and server
    threads on the same core, so each hand-off is one context switch)."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):
        pass


def run_bench(workload, seed, seconds, trace):
    """Runs bench.exe; returns (exit code, stdout lines)."""
    limit = min(RUN_LIMIT_S, seconds + RUN_SLACK_S)
    proc = subprocess.Popen(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s did not finish within %d s" % (workload, limit), 1)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = 2
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        digests = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(name, 1, seconds, trace)
            result = parse_result(lines)
            if code != 0 or result is None:
                problems.append("%s trace %d: exit %d, no result" % (name, trace, code))
                continue
            digests.append(json.loads(lines[-2]).get("digest"))
            metrics = result["metrics"]
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s trace %d: metric %s missing" % (name, trace, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s trace %d: %s unit %r, expected %r"
                                    % (name, trace, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[section]}
            if extra:
                problems.append("%s trace %d: metrics not in BENCHMARK.json: %s"
                                % (name, trace, ", ".join(sorted(extra))))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace %d: %d of %d calls failed"
                                % (name, trace, result["failed"], result["attempted"]))
            print("%-16s trace %d  attempted %-7d failed %d  metrics %d"
                  % (name, trace, result["attempted"], result["failed"], len(metrics)))
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("%s: digest differs between runs of seed 1: %s vs %s"
                            % (name, digests[0], digests[1]))
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    check_layout()
    build()
    pin_to_one_cpu()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        die("--workload is required")
    code, lines = run_bench(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    if parse_result(lines) is None:
        die("bench.exe printed no result line", 1)


if __name__ == "__main__":
    main()
