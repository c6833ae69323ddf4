"""Stage decompositions of the one-edge chain targets at full size.

The digests pin td_to_lines byte for byte, node numbering and bag
order included. The stage-3 decomposition is also validated against
the stage-3 graph, whose table it shares, without a name being made
or looked up, and building it must leave the cyclic collector next to
nothing new to track.
"""

import gc
import hashlib

import pytest

from alliancelib.graph import Block, VertexTable
from alliancelib.reductions import eliminate_pairs, mmo_to_alliance
from alliancelib.treewidth import heuristic_td, make_nice, td_to_lines, transform_td, validate_td

from helpers import one_edge_target

FNC_TO_FN_R5 = "ac4806188d02691f60ee5db21fd7c4e9008bfccfd67e786bacae3d45a4e26660"
FNC_TO_FN_R5_NICE = "24f7573ebefcf6f3e2dafe53b6e199565d1823d2a602bd8e9860d321153a0a2c"
FN_TO_F_R1 = "a0dae76a779a976bfec076888fd83f35aa0afed6c2816be11d3ec540374425c6"


def digest(td):
    return hashlib.sha256(td_to_lines(td).encode()).hexdigest()


@pytest.fixture(scope="module")
def fn_to_f(stage_three):
    """The fn-to-f decomposition of stage 3, and how many objects the
    collector tracks after building it that it did not before."""
    gc.collect()
    before = len(gc.get_objects())
    td = transform_td(stage_three.third, stage_three.nice)
    gc.collect()
    return td, len(gc.get_objects()) - before


def test_fnc_to_fn_output_and_its_nice_form_are_pinned():
    mmo = one_edge_target(1, 5)
    first = mmo_to_alliance(mmo)
    td = transform_td(first, heuristic_td(mmo.graph))
    td = transform_td(eliminate_pairs(first.result), td)
    assert len(td.nodes()) == 1776
    assert digest(td) == FNC_TO_FN_R5
    assert digest(make_nice(td)) == FNC_TO_FN_R5_NICE


def test_fn_to_f_output_is_pinned_and_valid(stage_three, fn_to_f):
    td, _tracked = fn_to_f
    # one more node above each of the 3 chain anchors that are joins
    assert len(td.nodes()) == 183891
    assert digest(td) == FN_TO_F_R1
    result = stage_three.third.result
    assert not result.pairs  # so the primal graph is the graph itself
    verdict = validate_td(result.graph, td)
    assert verdict.ok, verdict.problems[:3]


def test_fn_to_f_width_bound(stage_three, fn_to_f):
    td, _tracked = fn_to_f
    width, bound = td.width(), stage_three.nice.width() + 13
    assert width <= bound


def test_fn_to_f_leaves_the_collector_nothing_to_track(fn_to_f):
    # bags are tuples of ints, which the collector untracks, and the
    # tree is an array; per-node sets or lists would add about 368,000
    _td, tracked = fn_to_f
    assert tracked < 1000


def test_fn_to_f_output_shares_the_graph_table(stage_three, fn_to_f):
    # bag entries are the table's own ints, not equal copies
    td, _tracked = fn_to_f
    graph = stage_three.third.result.graph
    assert td._order is graph.order and td._index is graph.index
    index, order = graph.index, graph.order
    assert all(u is index[order[u]] for bag in td._bags for u in bag)


def test_validating_over_the_shared_table_makes_and_looks_up_no_names(
    stage_three, fn_to_f, monkeypatch
):
    td, _tracked = fn_to_f
    graph = stage_three.third.result.graph

    def refuse(*args):
        raise AssertionError("validate made or looked up a vertex name")

    # every name lookup goes through find, and every name is made by a
    # table or a block
    for cls, method in (
        (VertexTable, "find"),
        (VertexTable, "__getitem__"),
        (VertexTable, "__iter__"),
        (VertexTable, "names"),
        (Block, "__getitem__"),
        (Block, "__iter__"),
    ):
        monkeypatch.setattr(cls, method, refuse)
    assert validate_td(graph, td).ok
