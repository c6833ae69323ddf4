"""Command surface tests. Reports are JSON on stdout; exit codes are
0 yes/success, 1 no, 2 usage or parse trouble, 3 budget exceeded."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from alliancelib import cli, reductions
from alliancelib.alliance import (
    AllianceInstance,
    instance_from_json,
    instance_to_json,
)
from alliancelib.graph import Graph
from alliancelib.mmo import MmoInstance, mmo_to_json
from alliancelib.reductions import eliminate_pairs, mmo_to_alliance
from alliancelib.solver import SolveRequest, solve
from alliancelib.treewidth import (
    heuristic_td,
    make_nice,
    td_from_lines,
    td_to_lines,
    treewidth_exact_small,
)

from helpers import BAD_NODE_IDS, constrained_instance, two_vertex_mmo, v, vs, wheelish_graph


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def wheelish_file(tmp_path, k=2, mode="at-most"):
    inst = AllianceInstance(wheelish_graph(), k=k, mode=mode)
    return write(tmp_path, "wheelish.json", instance_to_json(inst))


def pair_toy_file(tmp_path):
    a, b = vs("a b")
    inst = AllianceInstance(Graph([a, b], []), k=1, pairs=[(a, b)])
    return write(tmp_path, "pair.json", instance_to_json(inst))


def fn_toy():
    a, b = vs("a b")
    return AllianceInstance(Graph([a, b], [(a, b)]), k=2, necessary=[b])


def one_edge_mmo():
    a, b = vs("a b")
    return MmoInstance(Graph([a, b], [(a, b)]), {(a, b): 1}, r=1)


class TestParseInstance:
    def test_alliance_json_roundtrip(self):
        inst = constrained_instance()
        parsed = cli.parse_instance(instance_to_json(inst))
        assert parsed == inst
        assert len(parsed.graph.vertices) == 7
        assert len(parsed.pairs) == 1

    def test_mmo_json_dispatch(self):
        m = two_vertex_mmo()
        parsed = cli.parse_instance(mmo_to_json(m))
        assert isinstance(parsed, MmoInstance)
        assert parsed.graph == m.graph
        assert parsed.weights == m.weights
        assert parsed.r == m.r

    def test_edgelist_needs_k(self):
        with pytest.raises(ValueError, match="k"):
            cli.parse_instance("a b\nb c\n", "edgelist")

    def test_edgelist_parses(self):
        inst = cli.parse_instance("# comment\na b\nb c\nd\n", "edgelist", k=2)
        assert inst.variant == "plain"
        assert len(inst.graph.vertices) == 4
        assert len(inst.graph.edges) == 2

    def test_edgelist_error_carries_line(self):
        with pytest.raises(ValueError, match="line 2"):
            cli.parse_instance("a b\na b c d\n", "edgelist", k=1)

    def test_pair_on_forbidden_vertex_rejected(self):
        payload = {
            "vertices": ["a", "b"],
            "edges": [],
            "k": 1,
            "forbidden": ["a"],
            "pairs": [["a", "b"]],
        }
        with pytest.raises(ValueError, match="forbidden"):
            cli.parse_instance(json.dumps(payload))


def _wheelish_payload(k, mode="at-most"):
    return json.loads(instance_to_json(AllianceInstance(wheelish_graph(), k=k, mode=mode)))


def _path_payload(vertices, k, **fields):
    """Vertices a, b, ... with the single edge a--b."""
    payload = {"vertices": list(vertices), "edges": [["a", "b"]], "k": k}
    payload.update(fields)
    return payload


# (payload, -S argument, problems) of vertex sets that are no solution
VERIFY_REASONS = {
    "size-outside-range": (lambda: _wheelish_payload(2), "a,b,c", ["size 3 is outside 1..2"]),
    "exact-size": (
        lambda: _wheelish_payload(3, "exact"), "a,b", ["size 2 is not exactly k=3"]
    ),
    "forbidden-selected": (
        lambda: _path_payload("ab", 2, forbidden=["b"]), "a,b",
        ["forbidden vertices selected: b"],
    ),
    "necessary-missing": (
        lambda: _path_payload("abc", 2, necessary=["c"]), "a,b",
        ["necessary vertices missing: c"],
    ),
    "pair-not-split": (
        lambda: _path_payload("abcd", 2, pairs=[["c", "d"]]), "a,b",
        ["pair c/d is not split"],
    ),
    "outnumbered": (lambda: _wheelish_payload(2), "a,d", ["vertex d is outnumbered"]),
    "empty-set": (
        lambda: _path_payload("ab", 0, mode="exact"), "",
        ["the empty set is not a solution"],
    ),
    "every-reason-in-order": (
        lambda: json.loads(instance_to_json(constrained_instance())),
        "b,c,d,f",
        [
            "size 4 is outside 1..3",
            "forbidden vertices selected: d, f",
            "necessary vertices missing: a, g",
            "pair b/c is not split",
            "vertex b is outnumbered",
            "vertex c is outnumbered",
        ],
    ),
}


class TestVerify:
    def test_accepts_solution(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, report = run(capsys, ["verify", "-S", "a,b", path])
        assert code == 0
        assert report["solution"] is True
        assert report["violators"] == []

    def test_rejects_with_violator(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, report = run(capsys, ["verify", "-S", "a,d", path])
        assert code == 1
        assert report["solution"] is False
        assert report["violators"] == ["d"]

    def test_bad_vertex_name_is_usage_error(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, _report = run(capsys, ["verify", "-S", "a,??", path])
        assert code == 2

    @pytest.mark.parametrize("reason", sorted(VERIFY_REASONS))
    def test_reports_each_reason(self, capsys, tmp_path, reason):
        payload, members, problems = VERIFY_REASONS[reason]
        path = write(tmp_path, "doc.json", json.dumps(payload()))
        code, report = run(capsys, ["verify", "-S", members, path])
        assert code == 1
        assert report["solution"] is False
        assert report["problems"] == problems


class TestSolve:
    def test_minimum_witness(self, capsys, tmp_path):
        path = wheelish_file(tmp_path, k=5)
        code, report = run(capsys, ["solve", "--goal", "minimum", path])
        assert code == 0
        assert report["size"] == 2
        assert report["witness"] == ["a", "b"]

    def test_exact_singleton_is_no(self, capsys, tmp_path):
        path = wheelish_file(tmp_path, k=1, mode="exact")
        code, report = run(capsys, ["solve", path])
        assert code == 1
        assert report["feasible"] is False

    def test_enumerate_unique_solution(self, capsys, tmp_path):
        path = write(
            tmp_path, "fig2.json", instance_to_json(constrained_instance())
        )
        code, report = run(capsys, ["solve", "--goal", "enumerate-all", path])
        assert code == 0
        assert report["solutions"] == [["a", "b", "g"]]

    def test_budget_exit_code(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        instance = AllianceInstance(wheelish_graph(), k=2)
        nodes = solve(SolveRequest(instance, "decide")).nodes
        # the largest budget of 2^budget nodes that the search overruns
        budget = (nodes - 1).bit_length() - 1
        code = cli.main(["solve", "--budget", str(budget), path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "budget of 2^%d nodes" % budget in captured.err

    def test_pair_with_equal_endpoints_exits_two(self, capsys, tmp_path):
        path = write(tmp_path, "loop.json", json.dumps(
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "k": 1, "pairs": [["a", "a"]]}
        ))
        code = cli.main(["solve", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "pair a/a has equal endpoints" in captured.err
        assert "self loop" not in captured.err

    def test_connected_search(self, capsys, tmp_path):
        p, q, r, x, y, z = vs("p q r x y z")
        g = Graph(
            [p, q, r, x, y, z],
            [(p, q), (q, r), (r, p), (x, y), (y, z), (z, x)],
        )
        path = write(
            tmp_path,
            "triangles.json",
            instance_to_json(AllianceInstance(g, k=3)),
        )
        code, report = run(
            capsys, ["solve", "--goal", "minimum", "--connected", path]
        )
        assert code == 0
        assert report["size"] == 2

    def test_mode_override(self, capsys, tmp_path):
        path = wheelish_file(tmp_path, k=2)
        code, report = run(capsys, ["solve", "--mode", "exact", path])
        assert code == 0
        assert report["size"] == 2

    def test_unreadable_json_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "broken.json", "{nope")
        code, _report = run(capsys, ["solve", path])
        assert code == 2


class TestReduceStage:
    def test_pair_stage_report(self, capsys, tmp_path):
        path = pair_toy_file(tmp_path)
        code, report = run(capsys, ["reduce", "--stage", "fnc-to-fn", path])
        assert code == 0
        assert report["stage"] == "fnc-to-fn"
        assert report["k"] == 11
        assert report["variant"] == "FN"
        inner = instance_from_json(json.dumps(report["instance"]))
        assert len(inner.graph.vertices) == 37
        assert report["gadgets"]["triangle"]

    def test_mmo_stage_report(self, capsys, tmp_path):
        path = write(tmp_path, "mmo.json", mmo_to_json(two_vertex_mmo()))
        code, report = run(capsys, ["reduce", "--stage", "mmo-to-fnc", path])
        assert code == 0
        assert report["k"] == 15
        assert report["vertices"] == 24
        inner = instance_from_json(json.dumps(report["instance"]))
        assert len(inner.pairs) == 5

    def test_stage_variant_mismatch_is_usage_error(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, _report = run(capsys, ["reduce", "--stage", "fnc-to-fn", path])
        assert code == 2

    def test_necessary_stage_with_decomposition(self, capsys, tmp_path):
        toy = fn_toy()
        inst_path = write(tmp_path, "fn.json", instance_to_json(toy))
        ntd = make_nice(heuristic_td(toy.graph))
        td_path = write(tmp_path, "fn.td", td_to_lines(ntd))
        code, report = run(
            capsys,
            ["reduce", "--stage", "fn-to-f", "--td", td_path, inst_path],
        )
        assert code == 0
        assert report["width_in"] == ntd.width()
        assert report["width_out"] <= ntd.width() + 13
        parsed = td_from_lines("\n".join(report["decomposition"]))
        assert parsed.width() == report["width_out"]

    def test_forbidden_stage(self, capsys, tmp_path):
        a, b, c, d = vs("a b c d")
        inst = AllianceInstance(
            Graph([a, b, c, d], [(a, b), (b, c), (c, d)]), k=2, forbidden=[d]
        )
        path = write(tmp_path, "f.json", instance_to_json(inst))
        code, report = run(capsys, ["reduce", "--stage", "f-to-plain", path])
        assert code == 0
        assert report["k"] == 2
        assert report["vertices"] == 9


class TestReduceChain:
    def test_single_stage_chain_decides_and_projects(self, capsys, tmp_path):
        path = write(tmp_path, "mmo.json", mmo_to_json(two_vertex_mmo()))
        code, report = run(
            capsys, ["reduce", "--chain", "--stages", "1", path]
        )
        assert code == 0
        assert report["decision"] is True
        assert report["mmo_decision"] is True
        assert report["orientation"] is not None
        assert report["stages"][0]["k"] == 15

    def test_infeasible_at_both_levels(self, capsys, tmp_path):
        m = two_vertex_mmo()
        tight = MmoInstance(m.graph, dict(m.weights), r=2)
        path = write(tmp_path, "mmo2.json", mmo_to_json(tight))
        code, report = run(
            capsys, ["reduce", "--chain", "--stages", "1", path]
        )
        assert code == 1
        assert report["decision"] is False
        assert report["mmo_decision"] is False
        assert report["orientation"] is None

    def test_full_chain_projects_oversized_stages(self, capsys, tmp_path):
        path = write(tmp_path, "tiny.json", mmo_to_json(one_edge_mmo()))
        code, report = run(capsys, ["reduce", "--chain", path])
        assert code == 3
        assert "size-cap" in report["flags"]
        stages = report["stages"]
        assert [s["tag"] for s in stages] == [
            "mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain"
        ]
        assert stages[0]["k"] == 5
        assert stages[1]["k"] == 119
        assert stages[1]["projected"] is False
        assert stages[2]["projected"] is True
        # cross-check the projected budget against the stage formula
        middle = eliminate_pairs(mmo_to_alliance(one_edge_mmo()).result).result
        n = len(middle.graph.vertices)
        open_count = (
            n - len(middle.forbidden) - len(middle.necessary)
        )
        expected = (n + 3) * (middle.k + open_count) - len(middle.necessary)
        assert stages[2]["k"] == expected
        assert stages[3]["k"] == expected

    def test_chain_with_decomposition_reports_widths(self, capsys, tmp_path):
        m = one_edge_mmo()
        path = write(tmp_path, "tiny.json", mmo_to_json(m))
        td_path = write(tmp_path, "tiny.td", td_to_lines(heuristic_td(m.graph)))
        code, report = run(
            capsys,
            ["reduce", "--chain", "--stages", "2", "--td", td_path, path],
        )
        base = heuristic_td(m.graph).width()
        first, second = report["stages"]
        assert first["width"] <= base + 4
        assert second["width"] <= 3 * first["width"] + 5
        assert code in (0, 1, 3)

    def test_run_pipeline_rejects_non_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            reductions.run_pipeline(two_vertex_mmo(), ["fnc-to-fn"])


class TestDecompose:
    def test_heuristic_matches_library(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, report = run(capsys, ["decompose", path])
        assert code == 0
        expected = heuristic_td(wheelish_graph()).width()
        assert report["width"] == expected
        parsed = td_from_lines("\n".join(report["lines"]))
        assert parsed.width() == expected

    def test_exact_verification(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, report = run(capsys, ["decompose", "--exact", path])
        assert code == 0
        assert report["treewidth"] == treewidth_exact_small(wheelish_graph())
        assert report["optimal"] is True

    def test_nice_output(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        code, report = run(capsys, ["decompose", "--nice", path])
        assert code == 0
        assert report["nice"] is True
        parsed = td_from_lines("\n".join(report["lines"]))
        assert parsed.validate_nice(wheelish_graph()).ok

    def test_vertex_named_like_a_kind_round_trips(self, capsys, tmp_path):
        text = json.dumps({"vertices": ["join"], "edges": [], "k": 1})
        path = write(tmp_path, "join.json", text)
        code, report = run(capsys, ["decompose", path])
        assert code == 0
        assert report["lines"] == ["0 - join"]
        td_path = write(tmp_path, "join.td", "\n".join(report["lines"]) + "\n")
        code, report = run(capsys, ["reduce", "--stage", "f-to-plain", "--td", td_path, path])
        assert code == 0
        assert report["width_out"] == 0

    def test_primal_graph_is_decomposed(self, capsys, tmp_path):
        path = pair_toy_file(tmp_path)
        code, report = run(capsys, ["decompose", path])
        assert code == 0
        # the pair counts as an edge, so the two vertices share a bag
        assert report["width"] == 1

    def test_dot_export(self, capsys, tmp_path):
        path = wheelish_file(tmp_path)
        out_dir = tmp_path / "dots"
        out_dir.mkdir()
        code, _report = run(
            capsys, ["decompose", "--dot", str(out_dir), path]
        )
        assert code == 0
        files = list(out_dir.glob("*.dot"))
        assert files and "graph" in files[0].read_text()


class TestRoundtrip:
    def test_pair_stage_audit(self, capsys, tmp_path):
        path = pair_toy_file(tmp_path)
        code, report = run(capsys, ["roundtrip", "--stage", "fnc-to-fn", path])
        assert code == 0
        assert report["verified"] is True
        assert report["input_solutions"] == report["output_solutions"] == 2

    def test_mmo_stage_audit(self, capsys, tmp_path):
        path = write(tmp_path, "mmo.json", mmo_to_json(two_vertex_mmo()))
        code, report = run(capsys, ["roundtrip", "--stage", "mmo-to-fnc", path])
        assert code == 0
        assert report["verified"] is True
        assert report["input_solutions"] == report["output_solutions"] == 2

    def test_forbidden_stage_audit(self, capsys, tmp_path):
        a, b, c, d = vs("a b c d")
        inst = AllianceInstance(
            Graph([a, b, c, d], [(a, b), (b, c), (c, d)]), k=2, forbidden=[d]
        )
        path = write(tmp_path, "f.json", instance_to_json(inst))
        code, report = run(capsys, ["roundtrip", "--stage", "f-to-plain", path])
        assert code == 0
        assert report["verified"] is True
        assert report["input_solutions"] == 3


class TestGen:
    def test_seed_is_mandatory(self, capsys):
        code, _report = run(capsys, ["gen", "--kind", "mmo"])
        assert code == 2

    def test_mmo_generation_reproducible(self, capsys):
        code1, report1 = run(capsys, ["gen", "--kind", "mmo", "--seed", "5"])
        code2, report2 = run(capsys, ["gen", "--kind", "mmo", "--seed", "5"])
        assert code1 == code2 == 0
        assert report1 == report2
        parsed = cli.parse_instance(json.dumps(report1))
        assert isinstance(parsed, MmoInstance)

    def test_alliance_kinds(self, capsys):
        for kind, variant in (
            ("fnc", "FNC"), ("fn", "FN"), ("plain", "plain")
        ):
            code, report = run(capsys, ["gen", "--kind", kind, "--seed", "9"])
            assert code == 0
            parsed = cli.parse_instance(json.dumps(report))
            assert parsed.variant == variant

    def test_multiple_instances(self, capsys):
        code, report = run(
            capsys, ["gen", "--kind", "plain", "--seed", "3", "--count", "4"]
        )
        assert code == 0
        assert isinstance(report, list) and len(report) == 4


def _plain_payload():
    return json.loads(instance_to_json(AllianceInstance(wheelish_graph(), k=2)))


def _mmo_payload():
    return json.loads(mmo_to_json(two_vertex_mmo()))


def _set(payload, key, value):
    payload[key] = value
    return payload


def _set_weight(payload, value):
    payload["edges"][0][2] = value
    return payload


# (argv before the document, payload) of documents that must exit 2
MALFORMED = {
    "vertices-not-list": (["solve"], lambda: _set(_plain_payload(), "vertices", 5)),
    "vertices-as-string": (["solve"], lambda: _set(_plain_payload(), "vertices", "abcde")),
    "k-boolean": (["solve"], lambda: _set(_plain_payload(), "k", True)),
    "forbidden-as-string": (["solve"], lambda: _set(_plain_payload(), "forbidden", "ab")),
    "necessary-as-string": (["solve"], lambda: _set(_plain_payload(), "necessary", "ab")),
    "weight-boolean": (
        ["reduce", "--stage", "mmo-to-fnc"], lambda: _set_weight(_mmo_payload(), True)
    ),
    "r-boolean": (["reduce", "--stage", "mmo-to-fnc"], lambda: _set(_mmo_payload(), "r", True)),
    "mmo-vertices-as-string": (
        ["reduce", "--stage", "mmo-to-fnc"], lambda: _set(_mmo_payload(), "vertices", "ab")
    ),
    "mmo-edges-not-list": (
        ["reduce", "--stage", "mmo-to-fnc"], lambda: _set(_mmo_payload(), "edges", 3)
    ),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_exits_two_without_traceback(self, capsys, tmp_path, shape):
        argv, payload = MALFORMED[shape]
        path = write(tmp_path, "doc.json", json.dumps(payload()))
        code = cli.main(argv + [path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "payload, field",
    [(_plain_payload, f) for f in ("vertices", "edges", "forbidden", "necessary", "pairs")]
    + [(_mmo_payload, f) for f in ("vertices", "edges")],
)
def test_list_field_errors_name_the_document_field(payload, field):
    with pytest.raises(ValueError, match="^field '%s' must be a list$" % (field,)):
        cli.parse_instance(json.dumps(_set(payload(), field, "ab")))


@pytest.mark.parametrize("case", sorted(BAD_NODE_IDS))
def test_reduce_refuses_decompositions_with_bad_node_ids(capsys, tmp_path, case):
    text, message = BAD_NODE_IDS[case]
    path = write(tmp_path, "doc.json", json.dumps(_plain_payload()))
    td_path = write(tmp_path, "doc.td", text)
    code = cli.main(["reduce", "--stage", "f-to-plain", "--td", td_path, path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


# requests with a negative count or limit, refused before any work: the
# one-edge target's fourth stage passes the default vertex cap, its first
# does not
BAD_LIMITS = {
    "chain-budget-projected": (["reduce", "--chain", "--budget", "-1"], "--budget"),
    "chain-budget-built": (["reduce", "--chain", "--stages", "1", "--budget", "-1"], "--budget"),
    "chain-max-vertices": (["reduce", "--chain", "--max-vertices", "-5"], "--max-vertices"),
    "gen-count": (["gen", "--kind", "plain", "--seed", "1", "--count", "-1"], "--count"),
    "solve-budget": (["solve", "--budget", "-1"], "--budget"),
}


@pytest.mark.parametrize("case", sorted(BAD_LIMITS))
def test_negative_limits_exit_two(capsys, tmp_path, case):
    argv, option = BAD_LIMITS[case]
    value = argv[argv.index(option) + 1]
    if argv[0] == "reduce":
        argv = argv + [write(tmp_path, "doc.json", mmo_to_json(one_edge_mmo()))]
    elif argv[0] == "solve":
        argv = argv + [write(tmp_path, "doc.json", json.dumps(_plain_payload()))]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: %s must be non-negative, got %s\n" % (option, value)


def test_zero_count_draws_nothing(capsys):
    assert run(capsys, ["gen", "--kind", "plain", "--seed", "1", "--count", "0"]) == (0, [])


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert cli.main(["solve", "/nonexistent/x.json"]) == 2
        capsys.readouterr()


# imports alliancelib.cli, then runs requests in-process, and prints the
# codes and the alliancelib submodules (and numpy) loaded after each step
MODULE_PROBE = """
import contextlib, io, json, sys
from alliancelib import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("alliancelib.") or m == "numpy")

path = sys.argv[1]
steps, codes = {"import": loaded()}, []
for step, requests in (
    ("solve+verify", (["solve", path], ["verify", "-S", "a", path])),
    ("decompose", (["decompose", path],)),
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes += [cli.main(argv) for argv in requests]
    steps[step] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_import_leaves_numpy_out(tmp_path):
    # the package has no third-party runtime dependency, and a request
    # loads only the modules its subcommand runs: every other module
    # costs a command-line process its compile time and memory
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = wheelish_file(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, path],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == [0, 1, 0]
    chain = {"alliancelib.%s" % name for name in ("treewidth", "reductions", "gen", "mmo")}
    for step in ("import", "solve+verify"):
        assert not (chain | {"numpy"}) & set(probe["steps"][step]), step
    decompose = set(probe["steps"]["decompose"])
    assert "alliancelib.treewidth" in decompose
    assert not {"alliancelib.reductions", "alliancelib.gen", "numpy"} & decompose


def test_package_names_resolve_to_the_submodule_objects():
    import alliancelib

    modules = [
        importlib.import_module("alliancelib." + name)
        for name in ("alliance", "graph", "mmo", "reductions", "solver", "treewidth")
    ]
    listed = dir(alliancelib)
    for name in alliancelib.__all__:
        value = getattr(alliancelib, name)
        owners = [module for module in modules if hasattr(module, name)]
        assert owners, name
        assert all(getattr(module, name) is value for module in owners), name
        assert name in listed
    namespace = {}
    exec("from alliancelib import *", namespace)
    assert set(alliancelib.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="nope"):
        alliancelib.nope


_NOT_A_LIST = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NOT_AN_INT = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
_BAD_NAME = st.one_of(
    st.sampled_from(["", "a b", "a/unknown", "a.b.c/x"]), st.integers(), st.none()
)
_UNKNOWN = st.sampled_from(["f", "zz", "q7"])


def _without(payload, field):
    del payload[field]
    return payload


# instance documents over the wheelish graph (a..e), each wrong in one way
_BAD_ALLIANCE = st.one_of(
    st.sampled_from(["vertices", "edges", "k"]).map(lambda f: _without(_plain_payload(), f)),
    st.tuples(
        st.sampled_from(["vertices", "edges", "forbidden", "necessary", "pairs"]), _NOT_A_LIST
    ).map(lambda fv: _set(_plain_payload(), *fv)),
    _NOT_AN_INT.map(lambda k: _set(_plain_payload(), "k", k)),
    st.integers(max_value=0).map(lambda k: _set(_plain_payload(), "k", k)),
    _BAD_NAME.map(lambda u: _set(_plain_payload(), "vertices", ["a", "b", u])),
    _BAD_NAME.map(lambda u: _set(_plain_payload(), "edges", [["a", u]])),
    _UNKNOWN.map(lambda u: _set(_plain_payload(), "edges", [["a", u]])),
    _UNKNOWN.map(lambda u: _set(_plain_payload(), "forbidden", [u])),
    _UNKNOWN.map(lambda u: _set(_plain_payload(), "necessary", [u])),
    _UNKNOWN.map(lambda u: _set(_plain_payload(), "pairs", [["a", u]])),
    st.sampled_from([["a"], ["a", "b", "c"], "ab", 3, ["a", "a"]]).map(
        lambda e: _set(_plain_payload(), "edges", [e])
    ),
    st.sampled_from([["a"], "ab", ["a", "a"]]).map(
        lambda p: _set(_plain_payload(), "pairs", [p])
    ),
    st.sampled_from([("necessary", ["a"]), ("pairs", [["a", "b"]])]).map(
        lambda fv: _set(_set(_plain_payload(), "forbidden", ["a"]), *fv)
    ),
    st.text(max_size=5).filter(lambda m: m not in ("at-most", "exact"))
    .map(lambda m: _set(_plain_payload(), "mode", m)),
).map(lambda payload: ("alliance", json.dumps(payload)))

# orientation targets over one edge a--b, each wrong in one way
_BAD_MMO = st.one_of(
    st.sampled_from(["vertices", "edges"]).map(lambda f: _without(_mmo_payload(), f)),
    st.tuples(st.sampled_from(["vertices", "edges"]), _NOT_A_LIST)
    .map(lambda fv: _set(_mmo_payload(), *fv)),
    _NOT_AN_INT.map(lambda r: _set(_mmo_payload(), "r", r)),
    st.integers(max_value=0).map(lambda r: _set(_mmo_payload(), "r", r)),
    st.one_of(_NOT_AN_INT, st.integers(max_value=0), st.integers(min_value=10**6 + 1))
    .map(lambda w: _set_weight(_mmo_payload(), w)),
    st.sampled_from([["a", "b"], ["a", "b", 1, 1], "ab", 3, ["a", "a", 1]]).map(
        lambda e: _set(_mmo_payload(), "edges", [e])
    ),
    _BAD_NAME.map(lambda u: _set(_mmo_payload(), "vertices", ["a", "b", u])),
    _UNKNOWN.map(lambda u: _set(_mmo_payload(), "edges", [["a", u, 1]])),
).map(lambda payload: ("mmo", json.dumps(payload)))

# a document that is not an instance at all: not JSON, or no object
_NOT_A_DOCUMENT = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda cut: json.dumps(_plain_payload())[:cut]),
    st.one_of(
        st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=4), st.none()
    ).map(json.dumps),
).map(lambda text: ("any", text))

_COMMANDS = {
    "alliance": [["verify", "-S", "a"], ["solve"], ["decompose"]]
    + [["reduce", "--stage", tag] for tag in reductions.STAGE_TAGS[1:]]
    + [["roundtrip", "--stage", tag] for tag in reductions.STAGE_TAGS[1:]],
    "mmo": [
        ["reduce", "--stage", "mmo-to-fnc"],
        ["reduce", "--chain", "--stages", "2"],
        ["roundtrip", "--stage", "mmo-to-fnc"],
        ["decompose"],
    ],
}
_COMMANDS["any"] = _COMMANDS["alliance"] + _COMMANDS["mmo"]

# decomposition documents that td_from_lines refuses; three rows make ids 0..2
_TD = "0 - a b\n1 0 b c\n"
_OUT_OF_RANGE = st.integers(-10**12, 10**12).filter(lambda n: not 0 <= n <= 2)
_BAD_TD = st.one_of(
    st.sampled_from(["", "# nothing\n", "\n  \n"]),
    st.integers().map(lambda n: _TD + "%d\n" % n),
    _OUT_OF_RANGE.map(lambda n: _TD + "%d 0 a\n" % n),
    st.sampled_from([0, 1]).map(lambda n: _TD + "%d 0 a\n" % n),
    st.text(alphabet="abxyz", min_size=1, max_size=3).map(lambda t: _TD + "%s 0 a\n" % t),
    _OUT_OF_RANGE.map(lambda n: _TD + "2 %d a\n" % n),
    st.sampled_from(["a/unknown", "a.b.c/x"]).map(lambda u: _TD + "2 0 %s\n" % u),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


def _main_exits_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
    assert (code, out.getvalue()) == (2, ""), (argv, code, err.getvalue())
    assert err.getvalue().startswith("error: "), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(document=st.one_of(_BAD_ALLIANCE, _BAD_MMO, _NOT_A_DOCUMENT), data=st.data())
def test_malformed_documents_exit_two(scratch, document, data):
    kind, text = document
    path = scratch / "doc.json"
    path.write_text(text)
    _main_exits_two(data.draw(st.sampled_from(_COMMANDS[kind])) + [str(path)])


@settings(max_examples=60, deadline=None)
@given(td=_BAD_TD, chain=st.booleans())
def test_malformed_decompositions_exit_two(scratch, td, chain):
    td_path = scratch / "doc.td"
    td_path.write_text(td)
    if chain:
        argv, payload = ["reduce", "--chain", "--stages", "2"], _mmo_payload()
    else:
        argv, payload = ["reduce", "--stage", "fnc-to-fn"], _plain_payload()
    path = scratch / "source.json"
    path.write_text(json.dumps(payload))
    _main_exits_two(argv + ["--td", str(td_path), str(path)])
