"""The frozen value records of the library: fields, defaults,
validation on construction and on replace, equality, hashing, repr,
pickling and copying."""

import copy
import pickle
import sys

import pytest

from alliancelib import replace
from alliancelib._record import FrozenInstanceError, record
from alliancelib.alliance import AllianceInstance, instance_from_json, instance_to_json
from alliancelib.graph import Graph
from alliancelib.mmo import MmoInstance
from alliancelib.reductions import Affine, PairGadgets, ReductionStage, eliminate_pairs
from alliancelib.solver import SolveRequest, SolveResult
from alliancelib.treewidth import TdVerdict

from helpers import constrained_instance, two_vertex_mmo, vs


def pair_stage():
    a, b = vs("a b")
    return eliminate_pairs(AllianceInstance(Graph([a, b], []), k=1, pairs=[(a, b)]))


def test_fields_keep_their_order_and_defaults():
    assert AllianceInstance._fields == ("graph", "k", "forbidden", "necessary", "pairs", "mode")
    result = SolveResult("decide", True)
    assert (result.witness, result.size, result.solutions, result.count) == (None,) * 4
    assert (result.free_count, result.nodes) == (0, 0)
    assert SolveResult("decide", True, None, 3, None, None, 5, 7).nodes == 7
    assert ReductionStage._fields[-1] == "ordering" and pair_stage().ordering is None
    assert AllianceInstance.__init__.__qualname__ == "AllianceInstance.__init__"


def test_an_instance_equals_itself_after_a_json_round_trip():
    inst = constrained_instance()
    back = instance_from_json(instance_to_json(inst))
    assert back is not inst
    assert back == inst and hash(back) == hash(inst)
    assert back != replace(inst, k=2)
    assert inst != tuple(getattr(inst, name) for name in inst._fields)


def test_a_class_keeps_its_own_hash():
    mmo = two_vertex_mmo()
    assert MmoInstance.__hash__.__code__.co_filename.endswith("mmo.py")
    assert hash(mmo) == hash((mmo.graph, tuple(sorted(mmo.weights.items())), mmo.r))
    assert mmo == two_vertex_mmo() and hash(mmo) == hash(two_vertex_mmo())


def test_eq_false_records_compare_and_hash_by_identity():
    stage = pair_stage()
    twin = replace(stage)
    assert all(getattr(twin, name) is getattr(stage, name) for name in stage._fields)
    assert stage == stage and twin != stage
    assert hash(stage) == object.__hash__(stage)
    gadgets = stage.gadgets
    assert isinstance(gadgets, PairGadgets) and replace(gadgets) != gadgets


def test_assigning_or_deleting_a_field_raises():
    inst = constrained_instance()
    with pytest.raises(FrozenInstanceError, match="'k'"):
        inst.k = 4
    with pytest.raises(AttributeError):
        del inst.graph
    with pytest.raises(AttributeError):
        pair_stage().tag = "sideways"
    assert inst.k == 3 and issubclass(FrozenInstanceError, AttributeError)


def test_repr_names_each_field():
    assert repr(Affine(2, -1)) == "Affine(scale=2, shift=-1)"
    assert repr(TdVerdict(False, ("bag 0",))) == "TdVerdict(ok=False, problems=('bag 0',))"
    assert repr(SolveResult("count", True, count=4)) == (
        "SolveResult(goal='count', feasible=True, witness=None, size=None, "
        "solutions=None, count=4, free_count=0, nodes=0)"
    )


def test_a_reduction_stage_pickles_and_copies():
    stage = pair_stage()
    for back in (pickle.loads(pickle.dumps(stage)), copy.copy(stage), copy.deepcopy(stage)):
        assert back.tag == stage.tag and back.kind is stage.kind
        assert back.result == stage.result
        assert back.size_fn == stage.size_fn and back.size_fn(3) == stage.size_fn(3)
        with pytest.raises(FrozenInstanceError):
            back.tag = "sideways"


def test_replace_validates_again():
    inst = constrained_instance()
    assert replace(inst, mode="exact").mode == "exact" and inst.mode == "at-most"
    with pytest.raises(ValueError, match="k must be a non-negative integer"):
        replace(inst, k=-1)
    request = SolveRequest(inst, "decide")
    with pytest.raises(ValueError, match="goal must be one of"):
        replace(request, goal="sideways")
    with pytest.raises(TypeError):
        replace(inst, colour="red")


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
def test_copy_replace_uses_the_record_replace():
    assert copy.replace(Affine(2, 1), shift=5) == Affine(2, 5)


def test_a_record_without_eq_or_post_init():
    @record(eq=False)
    class Pair:
        left: int
        right: int = 0

    pair = Pair(1)
    assert (pair.left, pair.right) == (1, 0) and pair != Pair(1)
    assert repr(pair).endswith(".<locals>.Pair(left=1, right=0)")
    with pytest.raises(TypeError):
        Pair()
