"""Run one workload of the alliancelib benchmark and print its metrics.

    python3 bench/run.py --workload audit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ./src,
never from an installed copy, and the run fails without printing a
result when ./src/alliancelib is missing.

A run repeats whole passes over its seeded corpus until --seconds
have been measured; every pass is complete, so a pass longer than
--seconds makes the run longer. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass, and
bench.trace_overhead_s is the traced pass minus an untraced one. The
lines before it are a readable report, including the failed
operations by name. Metric names and units are those of
BENCHMARK.json; README.md says what each one measures.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# fresh processes timed for setup_s
PROBES = {"full": 7, "tiny": 1}

# the tail is the highest percentile with ten items beyond it, reported
# only when that is at least the 75th
TAIL_ITEMS = 40

STAGE_TAGS = ("mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain")

# per-layer metrics: self seconds of the spans with these names
LAYER_SPANS = (
    ["solver.solve.decide", "solver.solve.enumerate-all", "solver.solve_connected_pruned"]
    + ["reductions.%s.build" % tag for tag in STAGE_TAGS]
    + ["reductions.lift_solution", "reductions.project_solution",
       "reductions.solution_to_orientation"]
    + ["treewidth.heuristic_td", "treewidth.validate_td", "treewidth.make_nice"]
    + ["treewidth.transform_td.%s" % tag for tag in STAGE_TAGS]
    + ["cli.process", "cli.parse_instance", "cli.main"]
    + ["mmo.solve_mmo", "gen.draw", "alliance.primal_graph", "alliance.is_solution"]
)
# per-layer metrics: number of spans with these names
LAYER_CALLS = ("reductions.lift_solution", "reductions.project_solution")
# per-layer metrics: counters the workloads keep
LAYER_COUNTERS = (
    ["solver.solve.calls", "solver.free_count_max", "solver.budget_refused"]
    + ["reductions.%s.vertices_out" % tag for tag in STAGE_TAGS]
    + ["reductions.%s.edges_out" % tag for tag in STAGE_TAGS]
    + ["treewidth.nodes_out", "treewidth.make_nice.failed"]
    + ["treewidth.width_out.%s" % tag for tag in STAGE_TAGS]
)


def _use_checkout():
    if not os.path.isfile(os.path.join(SRC, "alliancelib", "__init__.py")):
        sys.exit("bench: no alliancelib sources under %s" % (SRC,))
    sys.path.insert(0, SRC)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "chain", "large", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload in this fresh process and exit")
    return parser.parse_args(argv)


def _probe(args):
    """Wall time of a fresh process that imports the library and sets
    up the workload, and the import time it measured itself."""
    command = [
        sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit("bench: set-up probe failed: %s" % (proc.stderr.strip(),))
    return wall, json.loads(proc.stdout.splitlines()[-1])["import_s"]


def _measure(workload, ctx, corpus, seconds):
    """Whole passes over the corpus until seconds have gone by, then
    the checks deferred past timing.

    Returns each item's time, charged as the workload says, and each
    pass's total.
    """
    items, passes = [], []
    begin = time.perf_counter()
    while True:
        total = 0.0
        for entry in corpus:
            start = time.perf_counter()
            with ctx.tracer.item(entry.id):
                try:
                    extra = workload.run(ctx, entry)
                except Exception as exc:  # noqa: BLE001 -- one failed item must not end the run
                    ctx.ledger.check(entry.id, "item", False, "%s: %s" % (type(exc).__name__, exc))
                    extra = 0.0
            spent = time.perf_counter() - start + extra
            items.append(spent)
            total += spent
        passes.append(total)
        if time.perf_counter() - begin >= seconds:
            break
    with ctx.tracer.item("check"):
        for judge in ctx.pending:
            try:
                judge()
            except Exception as exc:  # noqa: BLE001 -- an output that cannot be judged is a failure
                ctx.ledger.check("check", "judge", False, "%s: %s" % (type(exc).__name__, exc))
    return items, passes


def _setup(args, scratch, tracer):
    """The workload, a fresh context and the corpus drawn for the seed."""
    import workloads  # imports alliancelib, so only once src is on the path

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(ROOT, scratch, tracer, workloads.Ledger())
    with tracer.item("setup"):
        corpus = workload.setup(ctx, args.seed, workload.sizes[args.size])
    return workload, ctx, corpus


def _run(args, scratch, tracer, seconds):
    """Set up and measure one workload: its context, item times, pass totals."""
    workload, ctx, corpus = _setup(args, scratch, tracer)
    items, passes = _measure(workload, ctx, corpus, seconds)
    return workload, ctx, items, passes


def _peak_rss_mb(ctx):
    """Peak RSS of the process that did the work: the largest of the
    request processes when the workload starts them, else this one's,
    never that of the set-up probes."""
    kb = ctx.process_peak_kb
    if kb is None:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _layer_metrics(tracer, import_s, overhead):
    totals = spans.layer_totals(tracer.spans, skip_items=("setup", "check"))
    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + "_s"] = (totals.get(name, (0.0, 0))[0], "s")
    for name in LAYER_CALLS:
        metrics[name + ".calls"] = (totals.get(name, (0.0, 0))[1], "count")
    for name in LAYER_COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0), "count")
    attempts = tracer.counters.get("solver.decide_attempts", 0)
    decided = tracer.counters.get("solver.decided", 0)
    metrics["solver.decided_ratio"] = (decided / attempts if attempts else 0.0, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["bench.unattributed_s"] = (totals.get("item", (0.0, 0))[0], "s")
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    return metrics


def _report(args, workload, ledger, items, passes, setup_s, peak):
    """Readable lines: every end-to-end figure, and each failed operation."""
    lines = ["%s seed %d: %d pass(es), %d items, decision limit %s" % (
        args.workload, args.seed, len(passes), len(items),
        "%gs" % workload.decision_limit if workload.decision_limit else "none")]
    lines.append("  setup_s       %.4f s  (median of fresh-process set-ups)" % setup_s)
    lines.append("  wall_s        %.4f s  (median pass)" % statistics.median(passes))
    lines.append("  item_p50_s    %.4f s  (%d items)" % (statistics.median(items), len(items)))
    ordered = sorted(items)
    if len(items) >= TAIL_ITEMS:
        index = len(items) - 11
        lines.append("  item_tail_s   %.4f s  (p%d of %d items, 10 beyond)" % (
            ordered[index], round(100 * (index + 1) / len(items)), len(items)))
    else:
        lines.append("  item_tail_s   n/a       (fewer than %d items)" % TAIL_ITEMS)
    lines.append("  failed_share  %d/%d" % (len(ledger.failures), ledger.attempted))
    if ledger.decisions:
        lines.append("  decided_share %d/%d" % (ledger.agreed, ledger.decisions))
    else:
        lines.append("  decided_share n/a       (no decisions)")
    lines.append("  peak_rss_mb   %.1f MB" % peak)
    lines.extend("  failed: %s" % (failure,) for failure in ledger.failures)
    return lines


def main(argv=None):
    args = _parse(argv)
    _use_checkout()
    start = time.perf_counter()
    import alliancelib.cli  # noqa: F401 -- timed: the import is part of set-up

    import_s = time.perf_counter() - start
    if not os.path.abspath(alliancelib.__file__).startswith(SRC + os.sep):
        sys.exit("bench: alliancelib was not imported from %s" % (SRC,))

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        if args.setup_probe:
            _setup(args, scratch, spans.NullTracer())
            print(json.dumps({"import_s": import_s}))
            return 0
        probes = [_probe(args) for _ in range(PROBES[args.size])]
        setup_s = statistics.median(wall for wall, _ in probes)
        workload, ctx, items, passes = _run(
            args, scratch, spans.NullTracer(), 0 if args.trace else args.seconds)
        ledgers = [ctx.ledger]
        if args.trace:
            _, traced, traced_items, _ = _run(args, scratch, spans.Tracer(), 0)
            ledgers.append(traced.ledger)
            overhead = sum(traced_items) - sum(items)
            import_s = statistics.median(seconds for _, seconds in probes)
            metrics = _layer_metrics(traced.tracer, import_s, overhead)
            traced.tracer.write(os.path.join(
                OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
        peak = _peak_rss_mb(ctx)
        if not args.trace:
            metrics = {
                "setup_s": (setup_s, "s"),
                "item_p50_s": (statistics.median(items), "s"),
                "peak_rss_mb": (peak, "MB"),
            }
    for line in _report(args, workload, ctx.ledger, items, passes, setup_s, peak):
        print(line)
    result = {
        "correct": not any(ledger.unexpected() for ledger in ledgers),
        "attempted": ctx.ledger.attempted,
        "failed": len(ctx.ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
