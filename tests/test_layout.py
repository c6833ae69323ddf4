"""Stage results are laid out by gadget family.

Each stage gives its vertices ids by arithmetic over blocks of names
and emits its edges as int keys. These tests pin what that layout must
preserve: ids in sorted name order, ascending gadget tables, counts
equal to the formulas the CLI projects with, and a clean rejection of
input names that a stage's gadget names would collide with. The
vertex table of a stage output makes a family's names only when asked
for; it must agree with the list, dict and frozenset of its names, and
the stage-3 output must hold next to none of them.
"""

import copy
import gc
import pickle
import random
import sys
import types
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from alliancelib import cli, pipeline, reductions
from alliancelib.alliance import STAGE_TAGS, AllianceInstance, instance_to_json
from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
)
from alliancelib.graph import Graph, VertexId, VertexSet, parse_vertex
from alliancelib.mmo import MmoInstance, mmo_to_json
from alliancelib.reductions import (
    eliminate_forbidden,
    eliminate_necessary_auto,
    eliminate_pairs,
    mmo_to_alliance,
)
from alliancelib.treewidth import heuristic_td, make_nice

from helpers import one_edge_target

BUILDERS = {
    "mmo-to-fnc": mmo_to_alliance,
    "fnc-to-fn": eliminate_pairs,
    "fn-to-f": eliminate_necessary_auto,
    "f-to-plain": eliminate_forbidden,
}


def source_stats(source):
    """The counts a stage record's counts() reads from its source."""
    if isinstance(source, MmoInstance):
        return pipeline._orientation_stats(source)
    return pipeline._instance_stats(source)


def chain_stages(source, start=0):
    """(source, stage) for each chain stage from STAGE_TAGS[start] on
    that the CLI would build under its materialization cap."""
    out = []
    for tag in STAGE_TAGS[start:]:
        predicted = reductions.STAGE_KINDS[tag].counts(source_stats(source))
        if predicted["vertices"] > cli.MATERIALIZE_CAP:
            break
        stage = BUILDERS[tag](source)
        out.append((source, stage))
        source = stage.result
    return out


@pytest.fixture(scope="module")
def corpus():
    """Every stage of the generator corpora and the two-stage outputs
    of one-edge targets."""
    rng = random.Random(707)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(40):
            out.extend(chain_stages(random_pair_toy(rng), 1))
            toy = random_necessary_toy(rng)
            out.extend(chain_stages(toy, 2))
            nice = make_nice(heuristic_td(toy.graph))
            out.append((toy, eliminate_necessary_auto(toy, nice)))
            out.extend(chain_stages(random_forbidden_toy(rng), 3))
            out.extend(chain_stages(random_mmo(rng)))
        for weight, r in ((1, 1), (2, 1), (1, 2), (3, 1)):
            out.extend(chain_stages(one_edge_target(weight, r))[:2])
    return out


def test_corpus_covers_every_stage(corpus):
    tags = {stage.tag for _source, stage in corpus}
    assert tags == {"mmo-to-fnc", "fnc-to-fn", "fn-to-f", "f-to-plain"}


def test_stage_results_are_laid_out_in_sorted_order(corpus):
    for _source, stage in corpus:
        graph = stage.result.graph
        order = graph.order
        assert all(a < b for a, b in zip(order, order[1:])), stage.tag
        assert Graph(order, graph.edges) == graph, stage.tag
        for name in stage.gadgets._fields:
            for value in getattr(stage.gadgets, name).values():
                if isinstance(value, VertexId):
                    continue
                assert all(a < b for a, b in zip(value, value[1:])), name


def test_the_stages_emit_every_key_with_its_lower_id_first(monkeypatch):
    # Graph._from_keys takes keys i * n + j with i < j, alone or in
    # families (ranges), and checks none
    build = Graph._from_keys.__func__
    checked = []

    def strict(cls, order, keys):
        n = len(order)
        for family in keys:
            members = family if isinstance(family, range) else (family,)
            assert all(key % n > key // n for key in members)
        checked.append(n)
        return build(cls, order, keys)

    monkeypatch.setattr(Graph, "_from_keys", classmethod(strict))
    rng = random.Random(808)
    tags = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(15):
            toy = random_necessary_toy(rng)
            stages = chain_stages(random_pair_toy(rng), 1) + chain_stages(toy, 2)
            stages.append((toy, eliminate_necessary_auto(toy, make_nice(heuristic_td(toy.graph)))))
            stages += chain_stages(random_forbidden_toy(rng), 3) + chain_stages(random_mmo(rng))
            tags += [stage.tag for _source, stage in stages]
        for weight, r in ((1, 1), (2, 1), (1, 2), (3, 1)):
            tags += [stage.tag for _source, stage in chain_stages(one_edge_target(weight, r))[:2]]
    assert set(tags) == set(STAGE_TAGS)
    assert len(checked) >= len(tags)


def test_predicted_counts_equal_built_counts(corpus):
    for source, stage in corpus:
        stats = source_stats(source)
        predicted = stage.kind.counts(stats)
        built = pipeline._instance_stats(stage.result)
        assert {key: built[key] for key in predicted} == predicted, stage.tag
        # the size map the builder keeps sends every solution size where
        # the counts send k; an orientation target has no k
        if "k" in stats:
            for x in (0, 1, 2, 7):
                assert stage.kind.counts({**stats, "k": x})["k"] == stage.size_fn(x), stage.tag


def test_stage_three_at_full_size(stage_three):
    """The 368,711-vertex stage 3 of the one-edge w=1 r=1 target, built
    through the post-order ordering the decomposition gives."""
    result = stage_three.third.result
    assert len(result.graph.vertices) == 368711
    assert len(result.graph.edges) == 1103817
    predicted = stage_three.third.kind.counts(source_stats(stage_three.second.result))
    assert len(result.forbidden) == predicted["forbidden"]
    assert result.k == predicted["k"]


def test_stage_three_reaches_the_graph_core_as_families(stage_three, monkeypatch):
    # its fans and chain runs go in as ranges, not as a million ints
    build = Graph._from_keys.__func__
    entries = []

    def spy(cls, order, keys):
        entries.extend(keys)
        return build(cls, order, keys)

    monkeypatch.setattr(Graph, "_from_keys", classmethod(spy))
    eliminate_necessary_auto(stage_three.second.result, stage_three.nice)
    families = [entry for entry in entries if isinstance(entry, range)]
    assert len(entries) == 6650 and len(families) == 2574
    assert sum(map(len, families)) + len(entries) - len(families) == 1104461


# objects whose referents lead out of a data structure into code
_CODE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)


def reachable(roots, skip=()):
    """The objects reachable from roots through data, each once, that
    are not in skip, a set of ids."""
    seen, stack, out = set(skip), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _CODE):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def test_stage_three_makes_its_family_names_on_demand(stage_three):
    """Stage 3 built from stage 2 holds its ids, arrays and blocks, not
    a name per vertex. What it holds beyond its inputs is summed object
    by object (25.3 MB; tracemalloc reads 26.8 MB after the build, but
    traces it 30 times slower), against 102.6 MB traced when every
    name, the index dict and the vertex and forbidden frozensets were
    held. The fixture holds 1,917 VertexIds; it held every name then."""
    second, nice = stage_three.second, stage_three.nice
    third = eliminate_necessary_auto(second.result, nice)
    assert len(third.result.graph.order) == 368711
    inputs = {id(obj) for obj in reachable([second, nice])}
    held = sum(map(sys.getsizeof, reachable([third], inputs)))
    assert held < 40e6, "%.1f MB held" % (held / 1e6)
    names = sum(type(obj) is VertexId for obj in reachable([stage_three]))
    assert names < 20000


def _foreign(names):
    """Names a table of names lacks: off both ends and next to every
    family member, inside a family's sort range but not in it, and
    values that are no names at all."""
    out = ["a", 3, None, (), ("a",), VertexId("zz-not-a-vertex")]
    for x in names[:: max(1, len(names) // 40)]:
        if x.indices:
            (t,) = x.indices[:1]
            out.append(x[:3] + ((t + 1, 0),))
            out.append(x[:3] + ((0,),))
            out.append(x[:3] + ((t, t),))
            out.append(x[:3] + ((len(names) + t,),))
            out.append(x[:3] + (t,))
    known = set(names)
    return [x for x in out if x not in known]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vertex_tables_agree_with_their_materialised_names(corpus, data):
    _source, stage = data.draw(st.sampled_from(corpus))
    graph = stage.result.graph
    order, index, vertices = graph.order, graph.index, graph.vertices
    names = list(order)
    n = len(names)
    assert all(type(x) is VertexId and parse_vertex(str(x)) == x for x in names)
    assert all(a < b for a, b in zip(names, names[1:]))
    assert len(order) == len(index) == len(vertices) == n
    assert order == names and names == order and list(index) == names
    i = data.draw(st.integers(-n, n - 1)) if n else 0
    if n:
        assert order[i] == names[i]
        assert index[names[i]] == order.ids[i % n]
    lo, hi = sorted(data.draw(st.tuples(st.integers(-n - 2, n + 2), st.integers(-n - 2, n + 2))))
    assert order[lo:hi] == names[lo:hi] and order[::3] == names[::3]
    with pytest.raises(IndexError):
        order[n]
    model = dict(zip(names, range(n)))
    assert all(index[x] == model[x] and index.get(x) == model[x] for x in names)
    assert all(x in order and x in index and x in vertices for x in names)
    for x in _foreign(names):
        assert index.get(x) is None and index.get(x, -1) == -1
        assert x not in index and x not in vertices and x not in order
        with pytest.raises(KeyError):
            index[x]
    frozen = frozenset(names)
    assert vertices == frozen and frozen == vertices and not (vertices != frozen)
    assert hash(vertices) == hash(frozen)
    assert type(vertices & frozen) is frozenset and vertices - frozen == frozenset()
    for group in (stage.result.forbidden, stage.result.necessary):
        assert isinstance(group, VertexSet) and group.table is order
        assert group == frozenset(group) and hash(group) == hash(frozenset(group))
        assert list(group) == sorted(group) and all(x in group for x in group)
    for name in stage.gadgets._fields:
        for block in getattr(stage.gadgets, name).values():
            if isinstance(block, VertexId):
                assert block in vertices
                continue
            listed = list(block)
            assert [block[t] for t in range(len(block))] == listed
            assert block == tuple(listed) and block[1:] == tuple(listed[1:])
            assert [index[x] for x in listed] == list(block.ids)
    for back in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph), copy.copy(graph)):
        assert back == graph and back.order == order and back.vertices == vertices
        assert list(back.edges) == list(graph.edges)


def _graph(names, edges):
    p = parse_vertex
    return Graph([p(x) for x in names], [(p(a), p(b)) for a, b in edges])


def collision(tag):
    """A source for the stage in which an input vertex carries the name
    of one of the stage's gadget vertices, and that name."""
    p = parse_vertex
    if tag == "f-to-plain":
        graph = _graph(["f", "f/fl1", "y"], [("f", "y"), ("f/fl1", "y")])
        return AllianceInstance(graph, k=1, forbidden=[p("f")]), "f/fl1"
    if tag == "fn-to-f":
        graph = _graph(["x", "y", "x/a1"], [("x", "y")])
        return AllianceInstance(graph, k=1, necessary=[p("x")]), "x/a1"
    if tag == "fnc-to-fn":
        graph = _graph(["x", "y", "x/y1"], [])
        return AllianceInstance(graph, k=1, pairs=[(p("x"), p("y"))]), "x/y1"
    graph = _graph(["a", "a/h1"], [("a", "a/h1")])
    return MmoInstance(graph, {(p("a"), p("a/h1")): 1}, r=1), "a/h1"


@pytest.mark.parametrize("tag", sorted(BUILDERS))
def test_gadget_name_collision_is_rejected(tag):
    source, name = collision(tag)
    with pytest.raises(ValueError, match="vertex %s collides" % (name,)):
        BUILDERS[tag](source)


@pytest.mark.parametrize("tag", sorted(BUILDERS))
def test_gadget_name_collision_exits_two(tag, tmp_path, capsys):
    source, name = collision(tag)
    if isinstance(source, MmoInstance):
        text = mmo_to_json(source)
    else:
        text = instance_to_json(source)
    path = tmp_path / "source.json"
    path.write_text(text)
    assert cli.main(["reduce", "--stage", tag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex %s collides" % (name,) in captured.err
