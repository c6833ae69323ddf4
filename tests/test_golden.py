"""Observable output pinned byte for byte.

Everything here comes from the one-edge orientation target with weight 1
and r = 1: the graph, instance and decomposition writers on its
mmo-to-fnc and fnc-to-fn outputs, and two CLI reduce reports. The small
outputs are stored whole under golden/; the 427-vertex fnc-to-fn
outputs are pinned by their SHA-256 digests.
"""

import hashlib
import pathlib

import pytest

from alliancelib import cli
from alliancelib.alliance import instance_to_json
from alliancelib.graph import graph_to_dot, graph_to_edgelist
from alliancelib.mmo import mmo_to_json
from alliancelib.reductions import eliminate_pairs, mmo_to_alliance
from alliancelib.treewidth import heuristic_td, td_to_lines, transform_td

from helpers import one_edge_target

GOLDEN = pathlib.Path(__file__).parent / "golden"

DIGESTS = {
    "fnc-to-fn.dot": "40b5dbfef4ce2d36fb11c4f2c0c9335a170a76bd9e8fc7bc51746dc7dab70be0",
    "fnc-to-fn.edgelist": "456728674d11f33a6b2f3e17161ea261e7dcd9857dee97feb78184f44b5e71e8",
    "fnc-to-fn.json": "f9a4b45df7b547804cc2f4c886de404f7857c5844a1a7a2f5d59d20c7ffa2807",
    "fnc-to-fn.td": "a73dc33986dbcdc9cb2177ee977b1da89bae8471abad3a2f9efcb31bd300030d",
}

WRITERS = {
    "edgelist": lambda stage, td: graph_to_edgelist(stage.result.graph),
    "dot": lambda stage, td: graph_to_dot(stage.result.graph),
    "json": lambda stage, td: instance_to_json(stage.result),
    "td": lambda stage, td: td_to_lines(td),
}


def check(name, text):
    data = text.encode()
    if name in DIGESTS:
        assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
    else:
        assert data == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def chain():
    """Each stage with its decomposition, carried from a heuristic one."""
    mmo = one_edge_target(1, 1)
    td = heuristic_td(mmo.graph)
    stages = [mmo_to_alliance(mmo)]
    stages.append(eliminate_pairs(stages[0].result))
    out = {}
    for stage in stages:
        td = transform_td(stage, td)
        out[stage.tag] = (stage, td)
    return out


@pytest.mark.parametrize("tag", ["mmo-to-fnc", "fnc-to-fn"])
@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_output(chain, tag, kind):
    stage, td = chain[tag]
    check("%s.%s" % (tag, kind), WRITERS[kind](stage, td))


@pytest.mark.parametrize(
    "argv, name",
    [
        (["reduce", "--chain", "--stages", "2"], "reduce-chain-2.json"),
        (["reduce", "--stage", "mmo-to-fnc"], "reduce-stage-mmo-to-fnc.json"),
    ],
)
def test_reduce_report(capsys, tmp_path, argv, name):
    path = tmp_path / "target.json"
    path.write_text(mmo_to_json(one_edge_target(1, 1)))
    assert cli.main(argv + [str(path)]) == 0
    check(name, capsys.readouterr().out)
