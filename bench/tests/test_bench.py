"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q

Seeded corpora repeat exactly, a tiny run of every workload prints
every metric BENCHMARK.json names, and every layer span nests inside
the span of its item.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from alliancelib.alliance import AllianceInstance, instance_to_json  # noqa: E402
from alliancelib.graph import Graph, VertexId  # noqa: E402
from alliancelib.mmo import mmo_to_json, solve_mmo  # noqa: E402
from alliancelib.reductions import lift_solution, orientation_to_solution  # noqa: E402
from alliancelib.solver import SolveResult  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAMES = ("audit", "chain", "large", "cli")


def _context(tmp_path, tracer=None):
    tmp_path.mkdir(exist_ok=True)
    return workloads.Context(
        ROOT, str(tmp_path), tracer or spans.NullTracer(), workloads.Ledger()
    )


def _setup(name, ctx, seed):
    workload = workloads.WORKLOADS[name]
    with ctx.tracer.item("setup"):
        return workload.setup(ctx, seed, workload.sizes["tiny"])


def _fingerprint(name, corpus):
    if name == "audit":
        return [
            (unit.id,
             [(tag, instance_to_json(toy)) for tag, _build, toy in unit.toys],
             [(mmo_to_json(mmo), feasible, count) for mmo, feasible, count in unit.targets])
            for unit in corpus
        ]
    if name == "cli":
        return [
            (r.id, [os.path.basename(a) for a in r.argv], r.document, r.defect)
            for r in corpus
        ]
    return [(s.id, mmo_to_json(s.mmo), s.feasible, s.stages) for s in corpus]


def _bench(name, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_the_same_corpus(name, tmp_path):
    first = _fingerprint(name, _setup(name, _context(tmp_path / "a"), 7))
    second = _fingerprint(name, _setup(name, _context(tmp_path / "b"), 7))
    assert first == second
    if name in ("audit", "cli"):
        assert _fingerprint(name, _setup(name, _context(tmp_path / "c"), 8)) != first


@pytest.mark.parametrize("name", ("audit", "cli"))
def test_same_seed_gives_the_same_counts(name):
    _lines, first = _bench(name, 5, 0)
    _lines, second = _bench(name, 5, 0)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric(name, trace):
    lines, result = _bench(name, 1, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    report = "\n".join(lines)
    for figure in ("setup_s", "wall_s", "item_p50_s", "item_tail_s",
                   "failed_share", "decided_share", "peak_rss_mb"):
        assert figure in report
    assert report.count("failed: ") == result["failed"]


@pytest.mark.parametrize("name", NAMES)
def test_layer_spans_nest_inside_their_item(name, tmp_path):
    tracer = spans.Tracer()
    ctx = _context(tmp_path, tracer)
    corpus = _setup(name, ctx, 3)
    run._measure(workloads.WORKLOADS[name], ctx, corpus, 0)
    items = [s for s in tracer.spans if s.parent is None]
    assert [s.item for s in items] == ["setup"] + [entry.id for entry in corpus] + ["check"]
    assert all(s.name == "item" for s in items)
    layer = [s for s in tracer.spans if s.parent is not None]
    assert layer
    for span in layer:
        outer = tracer.spans[span.parent]
        assert outer.start <= span.start <= span.end <= outer.end
        assert outer.item == span.item
        while outer.parent is not None:
            outer = tracer.spans[outer.parent]
        assert outer.name == "item" and outer.item == span.item


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    with tracer.item("x"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    item, outer, inner = tracer.spans
    own = spans.self_times(tracer.spans)
    assert own[1] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert own[0] == pytest.approx((item.end - item.start) - (outer.end - outer.start))
    with pytest.raises(RuntimeError):
        with tracer.span("loose"):
            pass


def test_chain_family_is_every_small_target_under_the_cap():
    family = {(name, weights, r) for name, _n, _e, weights, r in
              workloads.chain_family(workloads.CHAIN_CAP)}
    assert family == {
        ("edge", (1,), 1), ("edge", (1,), 2), ("edge", (1,), 3), ("edge", (1,), 4),
        ("edge", (1,), 5), ("edge", (2,), 1), ("edge", (2,), 2),
        ("edge+isolated", (1,), 1), ("edge+isolated", (1,), 2),
        ("edge+isolated", (1,), 3), ("edge+isolated", (2,), 1),
        ("path", (1, 1), 1),
    }


def test_size_formulas_match_the_known_chain_sizes():
    counts = oracle.mmo_stage_counts(2, 1, 1, 1)
    two = oracle.next_stage_counts("fnc-to-fn", counts)
    three = oracle.next_stage_counts("fn-to-f", two)
    assert (counts["vertices"], two["vertices"], three["vertices"]) == (8, 427, 368711)
    wide = oracle.next_stage_counts("fnc-to-fn", oracle.mmo_stage_counts(2, 1, 3, 3))
    assert wide["vertices"] == 13191


def _one_edge_stages(ctx):
    mmo = workloads.labelled_target(random.Random(1), 2, ((0, 1),), (1,), 1)
    stages, _td, _counts = workloads.two_stages(ctx, "x", mmo, validate=False)
    return mmo, stages


def test_a_yes_is_checked_against_solve_mmo_and_read_back(tmp_path):
    # no solver decides a chain output today, so build the witness by
    # lifting a feasible orientation through both stages
    ctx = _context(tmp_path)
    mmo, stages = _one_edge_stages(ctx)
    witness = lift_solution(stages[1], orientation_to_solution(mmo, solve_mmo(mmo)))
    result = SolveResult("decide", True, witness=witness, size=len(witness))
    workloads.check_decision(ctx, "x", mmo, True, stages, result)
    assert ctx.ledger.failures == [] and ctx.ledger.agreed == 1
    workloads.check_decision(ctx, "x", mmo, False, stages, result)
    assert [f.operation for f in ctx.ledger.failures] == ["decision"]
    assert ctx.ledger.agreed == 1


def test_a_refused_decision_is_charged_the_limit(tmp_path):
    ctx = _context(tmp_path)
    _mmo, stages = _one_edge_stages(ctx)
    start = time.perf_counter()
    result, extra = workloads.decide_within(ctx, stages[1].result, 0.5)
    assert result is None
    assert time.perf_counter() - start + extra == pytest.approx(0.5, abs=0.05)


def test_a_decision_past_the_limit_is_cut_off(tmp_path):
    ctx = _context(tmp_path)
    ring = [VertexId("v%d" % i) for i in range(20)]
    instance = AllianceInstance(Graph(ring, list(zip(ring, ring[1:] + ring[:1]))), k=20)
    result, extra = workloads.decide_within(ctx, instance, 0.01)
    assert result is None and extra <= 0.01
    assert ctx.ledger.decisions == 1
