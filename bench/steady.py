"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py

Runs the command of BENCHMARK.json on every workload with seeds
1 .. 10, once per set, alternating the sets so that drift in the
machine falls on both. For every workload and end-to-end metric it
prints each set's median and spread (the distance between the first
and third quartile as a share of the median) and how much worse the
second set's median is than the first's. A spread should stay below a
third of the metric's bound and must stay within it, except that of
setup_s, which is printed but not held to its bound. The medians of
every metric, setup_s too, must differ by no more than the bound,
either way. Raw results go to .bench_out/steady-<time>.jsonl. Exits 0
when every run is correct and every metric agrees.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def _run(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(metric, first, last):
    """Share by which the last median is worse than the first;
    negative when it is better."""
    change = (last - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", "steady-%d.jsonl" % time.time())

    results = {}  # (set, workload) -> list of run results
    with open(log, "w") as out:
        for seed in range(1, RUNS + 1):
            for s in range(SETS):
                for workload in workloads:
                    result = _run(spec, workload, seed)
                    results.setdefault((s, workload), []).append(result)
                    out.write(json.dumps({"set": s, "workload": workload,
                                          "seed": seed, "result": result}) + "\n")
                    out.flush()
                    print("set %d %-6s seed %-3d %s" % (s, workload, seed, " ".join(
                        "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                        flush=True)

    ok = True
    print("\n%-6s %-12s %6s  %-22s %s" % ("load", "metric", "bound", "median (spread) per set",
                                         "worse"))
    for workload in workloads:
        runs = [results[(s, workload)] for s in range(SETS)]
        if not all(r["correct"] for set_runs in runs for r in set_runs):
            print("%-6s some runs are not correct" % (workload,))
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns, medians = [], []
            for set_runs in runs:
                values = [r["metrics"][name]["value"] for r in set_runs]
                medians.append(statistics.median(values))
                width = spread(values)
                steady = width < bound / 3
                ok &= width <= bound or name == "setup_s"
                columns.append("%.4g (%.1f%%%s)" % (medians[-1], 100 * width,
                                                    "" if steady else " unsteady"))
            worse = worsening(metric, medians[0], medians[-1])
            ok &= abs(worse) <= bound
            print("%-6s %-12s %5.0f%%  %s  %+.1f%%" % (
                workload, name, 100 * bound, "  ".join(columns), 100 * worse))
    print("\nraw results: %s" % (os.path.relpath(log, ROOT),))
    print("agree within bounds" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
