"""Fixtures that several test modules share."""

from types import SimpleNamespace

import pytest

from alliancelib.reductions import eliminate_necessary_auto, eliminate_pairs, mmo_to_alliance
from alliancelib.treewidth import heuristic_td, make_nice, transform_td

from helpers import one_edge_target


@pytest.fixture(scope="session")
def stage_three():
    """The 368,711-vertex stage 3 of the one-edge w=1 r=1 target, built
    through the post-order ordering of the nice stage-2 decomposition:
    second and third are the stages, nice that decomposition."""
    mmo = one_edge_target(1, 1)
    first = mmo_to_alliance(mmo)
    td = transform_td(first, heuristic_td(mmo.graph))
    second = eliminate_pairs(first.result)
    nice = make_nice(transform_td(second, td))
    third = eliminate_necessary_auto(second.result, nice)
    return SimpleNamespace(second=second, nice=nice, third=third)
