"""Command surface tests. Reports are JSON on stdout; exit codes are
0 yes/success, 1 no, 2 usage or parse trouble, 3 budget exceeded."""

import contextlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from alliancelib import cli, pipeline, reductions, replace, solver
from alliancelib.alliance import (
    STAGE_TAGS,
    AllianceInstance,
    instance_from_json,
    instance_to_json,
)
from alliancelib.graph import Graph
from alliancelib.mmo import MmoInstance, mmo_to_json
from alliancelib.reductions import eliminate_pairs, mmo_to_alliance
from alliancelib.solver import SolveRequest, solve, solve_connected_pruned
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

    @pytest.mark.parametrize(
        "text",
        [instance_to_json(constrained_instance()), mmo_to_json(two_vertex_mmo())],
        ids=["instance", "target"],
    )
    def test_each_document_is_decoded_once(self, monkeypatch, text):
        loads, calls = json.loads, []

        def counting(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        cli.parse_instance(text)
        assert len(calls) == 1

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

    def test_names_the_least_unknown_member_whatever_the_hash_seed(self, tmp_path):
        # the members are read into a frozenset, whose order follows the
        # string hashes, so each seed runs in its own process
        path = wheelish_file(tmp_path)
        for seed in ("0", "1", "2", "3", "4", "5", "6", "7"):
            done = subprocess.run(
                [sys.executable, "-m", "alliancelib.cli", "verify", "-S", "v1,v0,a,v2", path],
                env=dict(os.environ, PYTHONPATH=package_root(), PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 2, seed
            assert done.stderr == "error: candidate vertex v0 is not in the graph\n", seed

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

    def test_connected_goals_are_answered_by_the_minimum_search(
        self, capsys, tmp_path, monkeypatch
    ):
        path = wheelish_file(tmp_path, k=3)
        want = solve_connected_pruned(AllianceInstance(wheelish_graph(), k=3), "minimum")

        def refuse(*args, **kwargs):
            raise AssertionError("the connected enumeration ran")

        monkeypatch.setattr(solver, "solve_connected_pruned", refuse)
        monkeypatch.setattr(cli, "solve_connected_pruned", refuse, raising=False)
        for goal in ("decide", "minimum"):
            code, report = run(capsys, ["solve", "--connected", "--goal", goal, path])
            assert code == 0 and report["goal"] == goal
            assert (report["feasible"], report["size"]) == (True, want.size)
            assert report["witness"] == [str(u) for u in sorted(want.witness)]

    @pytest.mark.parametrize(
        "goal, mode, message",
        [
            ("minimum", "exact",
             "connected search answers plain at-most instances only, "
             "got variant plain in exact mode"),
            ("count", "at-most", "goal must be \"decide\" or \"minimum\", got 'count'"),
        ],
    )
    def test_connected_refusals_keep_their_messages(self, capsys, tmp_path, goal, mode, message):
        path = wheelish_file(tmp_path, k=3, mode=mode)
        code = cli.main(["solve", "--connected", "--goal", goal, path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: %s\n" % (message,)

    def test_connected_search_keeps_to_its_budget(self, capsys, tmp_path):
        path = wheelish_file(tmp_path, k=3)
        code = cli.main(["solve", "--connected", "--budget", "0", path])
        assert code == 3
        assert "budget of 2^0 nodes" in capsys.readouterr().err

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

    def test_edgeless_target_runs_through_two_stages(self, capsys, tmp_path):
        # the first stage of a target without edges has no pairs (FN)
        path = write(tmp_path, "edgeless.json", '{"vertices": ["a"], "edges": [], "r": 1}')
        code, report = run(capsys, ["reduce", "--chain", "--stages", "2", path])
        assert code == 0
        assert [s["variant"] for s in report["stages"]] == ["FN", "FN"]
        assert report["decision"] is True and report["mmo_decision"] is True
        assert report["orientation"] == {}

    def test_run_pipeline_rejects_non_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            pipeline.run_pipeline(two_vertex_mmo(), ["fnc-to-fn"])

    def test_run_pipeline_caps_stages_like_the_command_line(self):
        # gen --kind mmo --seed 7: a 7,521-vertex stage 2, past the cap
        a, b, c = vs("a b c")
        target = MmoInstance(Graph([a, b, c], [(a, c)]), {(a, c): 3}, r=1)
        report = pipeline.run_pipeline(target, STAGE_TAGS[:2])
        assert report["stages"][1]["vertices"] == 7521
        assert report["flags"] == ["size-cap"] and report["decision"] is None


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

    def test_edge_list_is_decomposed_without_k(self, capsys, tmp_path):
        path = write(tmp_path, "path.txt", "a b\nb c\nc d\n")
        for extra in ([], ["--k", "2"]):
            code, report = run(capsys, ["decompose", "--format", "edgelist", *extra, path])
            assert code == 0
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

    def test_a_broken_size_map_fails_the_audit(self, capsys, tmp_path, monkeypatch):
        build = reductions.build_stage

        def tampered(tag, source, td=None):
            stage, td = build(tag, source, td)
            return replace(stage, size_fn=reductions.Affine(1, 1)), td

        monkeypatch.setattr(reductions, "build_stage", tampered)
        path = pair_toy_file(tmp_path)
        code, report = run(capsys, ["roundtrip", "--stage", "fnc-to-fn", path])
        assert code == 1
        assert report["verified"] is False
        assert report["input_solutions"] == report["output_solutions"] == 2


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
            ("fnc", "FNC"), ("fn", "FN"), ("f", "F"), ("plain", "plain")
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


_ABSENT = object()


def _document(fields, changes):
    fields.update(changes)
    return json.dumps({f: x for f, x in fields.items() if x is not _ABSENT})


def _instance_doc(**changes):
    """The one-edge instance document with some fields replaced, or
    dropped where given _ABSENT."""
    return _document({"vertices": ["a", "b"], "edges": [["a", "b"]], "k": 1}, changes)


def _target_doc(**changes):
    """The one-edge orientation target, changed as _instance_doc is."""
    return _document({"vertices": ["a", "b"], "edges": [["a", "b", 1]], "r": 1}, changes)


# malformed documents of both kinds and their messages, which both kinds
# share; an orientation edge may repeat only with the same weight
DOCUMENT_MESSAGES = {
    "invalid-json": (
        '{"vertices": [',
        "invalid JSON: Expecting value: line 1 column 15 (char 14)",
    ),
    "list-document": ("[1, 2]", "instance document must be a JSON object"),
    "null-document": ("null", "instance document must be a JSON object"),
    "missing-vertices": (_instance_doc(vertices=_ABSENT), "missing field: vertices"),
    "missing-edges": (_instance_doc(edges=_ABSENT), "missing field: edges"),
    "missing-k": (_instance_doc(k=_ABSENT), "missing field: k"),
    "vertices-not-list": (_instance_doc(vertices=5), "field 'vertices' must be a list"),
    "vertices-as-string": (_instance_doc(vertices="ab"), "field 'vertices' must be a list"),
    "vertex-not-string": (
        _instance_doc(vertices=["a", 5]),
        "vertex 1: expected a vertex name, got 5",
    ),
    "vertex-bad-name": (
        _instance_doc(vertices=["a", "b c"]),
        "vertex 1: bad vertex name: 'b c'",
    ),
    "edges-not-list": (_instance_doc(edges=3), "field 'edges' must be a list"),
    "edge-not-list": (_instance_doc(edges=["ab"]), "edge 0 must be a [u, v] pair"),
    "edge-one-field": (_instance_doc(edges=[["a"]]), "edge 0 must be a [u, v] pair"),
    "edge-three-fields": (
        _instance_doc(edges=[["a", "b", "c"]]),
        "edge 0 must be a [u, v] pair",
    ),
    "edge-vertex-not-string": (
        _instance_doc(edges=[["a", 1]]),
        "edge 0: expected a vertex name, got 1",
    ),
    "edge-vertex-bad-tag": (
        _instance_doc(edges=[["a", "b/zz"]]),
        "edge 0: bad vertex role tag in 'b/zz'",
    ),
    "edge-unknown-vertex": (
        _instance_doc(edges=[["a", "c"]]),
        "edge endpoint c is not a vertex",
    ),
    "k-boolean": (_instance_doc(k=True), "field 'k' must be an integer"),
    "k-float": (_instance_doc(k=1.5), "field 'k' must be an integer"),
    "k-negative": (_instance_doc(k=-1), "k must be a non-negative integer"),
    "forbidden-as-string": (_instance_doc(forbidden="ab"), "field 'forbidden' must be a list"),
    "forbidden-not-string": (
        _instance_doc(forbidden=[3]),
        "forbidden 0: expected a vertex name, got 3",
    ),
    "forbidden-unknown": (
        _instance_doc(forbidden=["c"]),
        "forbidden vertex c is not in the graph",
    ),
    "necessary-as-string": (_instance_doc(necessary="ab"), "field 'necessary' must be a list"),
    "necessary-bad-name": (
        _instance_doc(necessary=["a b"]),
        "necessary 0: bad vertex name: 'a b'",
    ),
    "pairs-as-string": (_instance_doc(pairs="ab"), "field 'pairs' must be a list"),
    "pair-one-field": (_instance_doc(pairs=[["a"]]), "pair 0 must be a [u, v] pair"),
    "pair-vertex-not-string": (
        _instance_doc(pairs=[["a", None]]),
        "pair 0: expected a vertex name, got None",
    ),
    "pair-equal-ends": (_instance_doc(pairs=[["a", "a"]]), "pair a/a has equal endpoints"),
    "mode-unknown": (
        _instance_doc(mode="sometimes"),
        "mode must be one of ('at-most', 'exact')",
    ),
    "both-forbidden-and-necessary": (
        _instance_doc(forbidden=["a"], necessary=["a"]),
        "vertex a is both forbidden and necessary",
    ),
    "misspelled-optional-fields": (
        _instance_doc(k=2, necesary=["a"], forbiden=["a", "b"]),
        "unknown field: forbiden",
    ),
    "mmo-missing-vertices": (_target_doc(vertices=_ABSENT), "missing field: vertices"),
    "mmo-with-k": (_target_doc(k=1), "unknown field: k"),
    "mmo-with-forbidden": (_target_doc(forbidden=["a"]), "unknown field: forbidden"),
    "mmo-missing-edges": (_target_doc(edges=_ABSENT), "missing field: edges"),
    "mmo-vertices-not-list": (_target_doc(vertices=5), "field 'vertices' must be a list"),
    "mmo-vertices-as-string": (_target_doc(vertices="ab"), "field 'vertices' must be a list"),
    "mmo-vertex-not-string": (
        _target_doc(vertices=["a", 5]),
        "vertex 1: expected a vertex name, got 5",
    ),
    "mmo-vertex-bad-name": (
        _target_doc(vertices=["a", "b c"]),
        "vertex 1: bad vertex name: 'b c'",
    ),
    "mmo-edges-not-list": (_target_doc(edges=3), "field 'edges' must be a list"),
    "mmo-edge-not-list": (_target_doc(edges=["ab"]), "edge 0 must be a [u, v, weight] triple"),
    "mmo-edge-two-fields": (
        _target_doc(edges=[["a", "b"]]),
        "edge 0 must be a [u, v, weight] triple",
    ),
    "mmo-edge-vertex-not-string": (
        _target_doc(edges=[[1, "b", 1]]),
        "edge 0: expected a vertex name, got 1",
    ),
    "mmo-edge-vertex-bad-name": (
        _target_doc(edges=[["a", "b c", 1]]),
        "edge 0: bad vertex name: 'b c'",
    ),
    "mmo-edge-unknown-vertex": (
        _target_doc(edges=[["a", "c", 1]]),
        "edge endpoint c is not a vertex",
    ),
    "mmo-weight-boolean": (
        _target_doc(edges=[["a", "b", True]]),
        "edge weight must be a positive integer, got True",
    ),
    "mmo-weight-zero": (
        _target_doc(edges=[["a", "b", 0]]),
        "edge weight must be a positive integer, got 0",
    ),
    "mmo-weight-string": (
        _target_doc(edges=[["a", "b", "1"]]),
        "edge weight must be a positive integer, got '1'",
    ),
    "mmo-r-boolean": (_target_doc(r=True), "field 'r' must be an integer"),
    "mmo-r-zero": (_target_doc(r=0), "target r must be a positive integer"),
    "mmo-vertices-bad-and-edges-not-list": (
        _target_doc(vertices=[5], edges=3),
        "vertex 0: expected a vertex name, got 5",
    ),
    "mmo-weights-differ": (
        _target_doc(edges=[["a", "b", 1], ["b", "a", 5]]),
        "edge a--b is given weights 1 and 5",
    ),
    "mmo-weights-differ-same-order": (
        _target_doc(edges=[["a", "b", 5], ["a", "b", 1]]),
        "edge a--b is given weights 5 and 1",
    ),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_MESSAGES))
def test_malformed_documents_have_their_messages(case):
    text, message = DOCUMENT_MESSAGES[case]
    with pytest.raises(ValueError) as caught:
        cli.parse_instance(text)
    assert str(caught.value) == message


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


@pytest.mark.parametrize("root", ["a b c", "a b"])
def test_necessary_stage_refuses_nodes_off_the_root_tree(capsys, tmp_path, root):
    # nodes 1 and 2 are each other's parent, so make_nice never reaches them
    payload = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
               "k": 2, "necessary": ["a"]}
    path = write(tmp_path, "doc.json", json.dumps(payload))
    td_path = write(tmp_path, "doc.td", "0 - %s\n1 2 b c\n2 1 b c\n" % root)
    code = cli.main(["reduce", "--stage", "fn-to-f", "--td", td_path, path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: some nodes are not reachable from the root\n"


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


class _ClosedPipe(io.TextIOWrapper):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [
    (["gen", "--kind", "plain", "--seed", "7"], 0),
    (["solve", "--goal", "minimum"], 1),
])
def test_a_closed_stdout_ends_the_request_with_its_own_code(
    monkeypatch, capsys, tmp_path, argv, code
):
    if argv[0] == "solve":
        # every vertex forbidden, so the answer is no
        payload = _path_payload("ab", 2, forbidden=["a", "b"])
        argv = argv + [write(tmp_path, "doc.json", json.dumps(payload))]
    with open(tmp_path / "stdout", "wb") as raw:
        stdout = _ClosedPipe(raw)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == code
        # what is still buffered goes nowhere when the interpreter exits
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        monkeypatch.undo()
        stdout.close()
    assert capsys.readouterr().err == ""


def test_a_reader_that_stops_early_gets_no_traceback():
    # a report larger than a pipe's buffer, read for one byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "alliancelib.cli", "gen", "--kind", "plain", "--seed", "7",
         "--count", "1000"],
        env=dict(os.environ, PYTHONPATH=package_root()),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    _out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


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


@pytest.mark.parametrize("command", [["decompose"], ["reduce", "--stage", "fnc-to-fn"]])
def test_dot_write_errors_exit_two(capsys, tmp_path, command):
    path = pair_toy_file(tmp_path)
    missing = str(tmp_path / "missing")
    assert cli.main(command + ["--dot", missing, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write %s" % (os.path.join(missing, "pair-"),))
    assert "Traceback" not in err


def package_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def test_documents_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode, open() defaults to ASCII;
    # exact mode puts both names in the witness, where {b} alone would do
    # for at most 2
    path = tmp_path / "accent.json"
    path.write_bytes(
        '{"vertices": ["\u00e9", "b"], "edges": [["\u00e9", "b"]], "k": 2, "mode": "exact"}'.encode()
    )
    env = dict(
        os.environ, PYTHONPATH=package_root(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"
    )
    reports = []
    for argv in (["solve", str(path)], ["decompose", "--dot", str(tmp_path), str(path)]):
        done = subprocess.run(
            [sys.executable, "-m", "alliancelib.cli"] + argv,
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout))
    assert reports[0]["witness"] == ["b", "\u00e9"]
    assert '"b" -- "\u00e9"' in (tmp_path / "accent-graph.dot").read_text(encoding="utf-8")


# the modules a request must never load: numpy, and the stdlib record
# and introspection machinery that costs every process its start-up
HEAVY = ("numpy", "dataclasses", "inspect")

# imports alliancelib.cli, then runs requests in-process, and prints the
# codes and the alliancelib submodules and HEAVY modules loaded after
# each step
MODULE_PROBE = """
import contextlib, io, json, sys
from alliancelib import cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("alliancelib.") or m in %r)

path = sys.argv[1]
steps, codes = {"import": loaded()}, []
for step, requests in (
    ("solve+verify", (["solve", path], ["verify", "-S", "a", path])),
    ("decompose", (["decompose", path],)),
    ("reduce", (["reduce", "--stage", "f-to-plain", path],)),
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes += [cli.main(argv) for argv in requests]
    steps[step] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
""" % (HEAVY,)


def test_import_leaves_numpy_out(tmp_path):
    # the package has no third-party runtime dependency, and a request
    # loads only the modules its subcommand runs: every other module
    # costs a command-line process its compile time and memory
    path = wheelish_file(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, path],
        env=dict(os.environ, PYTHONPATH=package_root()),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["codes"] == [0, 1, 0, 0]
    chain = {
        "alliancelib.%s" % name for name in ("treewidth", "reductions", "pipeline", "gen", "mmo")
    }
    # nor the fill of edge families, which only the stage builders emit
    for step in ("import", "solve+verify"):
        assert not (chain | {"alliancelib._fill", *HEAVY}) & set(probe["steps"][step]), step
    decompose = set(probe["steps"]["decompose"])
    assert "alliancelib.treewidth" in decompose
    skipped = {"alliancelib.reductions", "alliancelib.pipeline", "alliancelib.gen", *HEAVY}
    assert not skipped & decompose
    reduce = set(probe["steps"]["reduce"])
    assert chain - {"alliancelib.gen"} <= reduce
    assert not {"alliancelib.gen", *HEAVY} & reduce


def test_package_names_resolve_to_the_submodule_objects():
    import alliancelib

    modules = [
        importlib.import_module("alliancelib." + name)
        for name in (
            "_record", "alliance", "graph", "mmo", "pipeline", "reductions", "solver", "treewidth",
        )
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
    + [["reduce", "--stage", tag] for tag in STAGE_TAGS[1:]]
    + [["roundtrip", "--stage", tag] for tag in STAGE_TAGS[1:]],
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


# each draw writes new files: on some file systems rewriting a non-empty
# file costs tens of milliseconds, writing a new one a fraction of one
_DRAWS = itertools.count()


def _fresh(scratch, text, suffix):
    """A new file in scratch holding text."""
    path = scratch / ("%d%s" % (next(_DRAWS), suffix))
    path.write_text(text)
    return path


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
    path = _fresh(scratch, text, ".json")
    _main_exits_two(data.draw(st.sampled_from(_COMMANDS[kind])) + [str(path)])


@settings(max_examples=60, deadline=None)
@given(td=_BAD_TD, chain=st.booleans())
def test_malformed_decompositions_exit_two(scratch, td, chain):
    td_path = _fresh(scratch, td, ".td")
    if chain:
        argv, payload = ["reduce", "--chain", "--stages", "2"], _mmo_payload()
    else:
        argv, payload = ["reduce", "--stage", "fnc-to-fn"], _plain_payload()
    path = _fresh(scratch, json.dumps(payload), ".json")
    _main_exits_two(argv + ["--td", str(td_path), str(path)])


# nesting deeper than the decoder's recursion limit, as the whole
# document and as one extra field of an otherwise valid instance
_DEEP = "[" * 100000 + "]" * 100000
DEEP_DOCUMENTS = {
    "bare": "[" * 100000,
    "field": '{"vertices": ["a"], "edges": [], "k": 1, "extra": %s}' % (_DEEP,),
}
DEEP_COMMANDS = [
    ["verify", "-S", "a"],
    ["solve"],
    ["reduce", "--chain"],
    ["reduce", "--stage", "f-to-plain"],
    ["roundtrip", "--stage", "f-to-plain"],
    ["decompose"],
]


@pytest.mark.parametrize("document", sorted(DEEP_DOCUMENTS))
@pytest.mark.parametrize("command", DEEP_COMMANDS, ids=" ".join)
def test_deeply_nested_documents_exit_two(capsys, tmp_path, command, document):
    path = write(tmp_path, "deep.json", DEEP_DOCUMENTS[document])
    code = cli.main(command + [path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: invalid JSON: ")
    assert "Traceback" not in captured.err


# stages whose ids or arc offsets pass 32 bits: r = 10**12 places
# 4 * 10**12 + 4 vertices, k on one forbidden vertex places 2k + 2 and
# 8k arcs, so k = 3 * 10**8 passes on arcs alone
_TARGET = {"vertices": ["a", "b"], "edges": [["a", "b", 1]], "r": 10**12}
OVERSIZED_STAGES = {
    "mmo-to-fnc": (["reduce", "--stage", "mmo-to-fnc"], _TARGET,
                   "4000000000004 vertices and 8000000000004 arcs"),
    "f-to-plain": (["reduce", "--stage", "f-to-plain"],
                   {"vertices": ["a"], "edges": [], "k": 10**12, "forbidden": ["a"]},
                   "2000000000002 vertices and 8000000000000 arcs"),
    "roundtrip": (["roundtrip", "--stage", "f-to-plain"],
                  {"vertices": ["a"], "edges": [], "k": 10**12, "forbidden": ["a"]},
                  "2000000000002 vertices and 8000000000000 arcs"),
    "arcs-only": (["reduce", "--stage", "f-to-plain"],
                  {"vertices": ["a"], "edges": [], "k": 3 * 10**8, "forbidden": ["a"]},
                  "600000002 vertices and 2400000000 arcs"),
}


def _within_two_gigabytes():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("case", sorted(OVERSIZED_STAGES))
def test_stages_past_32_bit_ids_exit_two(tmp_path, case):
    # a fresh process with a capped address space, so that a build which
    # writes its arrays fails fast instead of taking gigabytes
    argv, payload, counts = OVERSIZED_STAGES[case]
    path = write(tmp_path, "big.json", json.dumps(payload))
    done = subprocess.run(
        [sys.executable, "-m", "alliancelib.cli"] + argv + [path],
        env=dict(os.environ, PYTHONPATH=package_root()),
        capture_output=True,
        timeout=60,
        preexec_fn=_within_two_gigabytes,
    )
    assert (done.returncode, done.stdout) == (2, b""), done.stderr
    assert done.stderr.decode() == "error: graph of %s exceeds 32-bit ids\n" % (counts,)
