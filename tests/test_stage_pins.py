"""CLI reduce and roundtrip reports pinned by digest: every stage
alone, with and without a decomposition, the chain at three vertex
caps, so that every mix of built and projected stages is covered, and
the bijection audit of every stage. Each digest covers the exit code,
stdout and stderr of one cli.main call.
"""

import hashlib
import random

import pytest

from alliancelib import cli
from alliancelib.alliance import instance_to_json, primal_graph
from alliancelib.gen import (
    random_forbidden_toy,
    random_mmo,
    random_necessary_toy,
    random_pair_toy,
)
from alliancelib.mmo import mmo_to_json
from alliancelib.treewidth import heuristic_td, td_to_lines

from helpers import one_edge_target


# the one-edge w=1 r=1 target, and what `gen --kind K --seed N` draws
SOURCES = {
    "one-edge": lambda: one_edge_target(1, 1),
    "mmo-1": lambda: random_mmo(random.Random(1)),
    "mmo-7": lambda: random_mmo(random.Random(7)),
    "fnc-7": lambda: random_pair_toy(random.Random(7)),
    "fn-7": lambda: random_necessary_toy(random.Random(7)),
    "f-7": lambda: random_forbidden_toy(random.Random(7)),
}


def _documents(name):
    """The named source's JSON document and a decomposition of its
    (primal) graph."""
    source = SOURCES[name]()
    if name.startswith(("one-edge", "mmo")):
        return mmo_to_json(source), td_to_lines(heuristic_td(source.graph))
    return instance_to_json(source), td_to_lines(heuristic_td(primal_graph(source)))


def report_digest(tmp_path, capsys, argv, name, with_td):
    """SHA-256 over the exit code, stdout and stderr of cli.main(argv)
    run on the named source, with its decomposition under --td."""
    text, td = _documents(name)
    path = tmp_path / ("%s.json" % name)
    path.write_text(text)
    argv = list(argv)
    if with_td:
        td_path = tmp_path / ("%s.td" % name)
        td_path.write_text(td)
        argv += ["--td", str(td_path)]
    capsys.readouterr()
    code = cli.main(argv + [str(path)])
    out, err = capsys.readouterr()
    data = "%d\n%s\n--stderr--\n%s" % (code, out, err)
    return hashlib.sha256(data.encode()).hexdigest()


STAGE_CASES = {
    ("f-to-plain", "f-7", False): "985ed7dca74705162377b29e98143f4ea20fd1f7c7a1d17be8d54795c0cba9c9",
    ("f-to-plain", "f-7", True): "11042e7f28286255128605c6d9405cf20291c273dbccfce6537926cc0435bc64",
    ("fn-to-f", "fn-7", False): "f149b018a162eebac1a23a9eb27654967362a707c33c44b302d1940737245ccc",
    ("fn-to-f", "fn-7", True): "c57c04a505e1d70c110cb77ff76e4e09ae585eb1a08d733079a1b8f6a2ea9901",
    ("fn-to-f", "one-edge", True): "8f50f2180260d0879d52beacaa7029bc213d6c1254beee8a343768580ea7e5ab",
    ("fnc-to-fn", "fnc-7", False): "b7e754098c040133c84e2d4e621d59a4be3d2dcafe21b44f813a400517e6e99d",
    ("fnc-to-fn", "fnc-7", True): "e064117a237e6409818d51b3ca98e3ede72a8ad3ff8af38471d8c0a9457b8482",
    # a stage given the other kind of source exits 2 with a message
    ("fnc-to-fn", "one-edge", False): "15817b12001cd3caf0cc02d67a2cda557f4ea58fd7a54c8375f22132d9be391f",
    ("mmo-to-fnc", "fnc-7", False): "e7ba1f76807d1e61c11b47a95366d22194d4e9672131bdea1871516a4ecafe9f",
    ("mmo-to-fnc", "mmo-1", False): "87b464b95d5b14bb86d854fe1a32e4c9073e99e586d9e0d2eeb673295e4d82cb",
    ("mmo-to-fnc", "mmo-1", True): "3cb174f0f0eaed43af9ec79c7433046b7ae99a6b07310838a9de14fef188cc8b",
    ("mmo-to-fnc", "one-edge", False): "0e25ec71a38205310ae9a8251b87b06081f3d9b1faca4ed9e93b7752b399abd3",
    ("mmo-to-fnc", "one-edge", True): "ee65a93350b4a3a4ca10afe4d25eced5ff551e6ba446272f26ed7a215b63c207",
}

# for each source, vertex cap (None: the CLI default) and --td
CHAIN_CASES = {
    ("mmo-1", 0, False): "af715d5ee8f573cf47c88d511f41850105eebe37bbbe47e581452fa0b5307c3a",
    ("mmo-1", 0, True): "af715d5ee8f573cf47c88d511f41850105eebe37bbbe47e581452fa0b5307c3a",
    ("mmo-1", 30, False): "b0ae683549ee9da3fc315252cbfa59a3efd096df89a91e3543b221c1d69751bf",
    ("mmo-1", 30, True): "5dd32571b661e1379ca4daece08ef58ae0376521a800212b10ad47bd160185c3",
    ("mmo-1", None, False): "4e683031c599d46ae3672a82f116db0af3b1c6d330da630b453baea7a502b757",
    ("mmo-1", None, True): "0c0e9458fd31793a72a92f164ca2a6e26720f884e76e60dc91eeb4c4e915cfcb",
    ("mmo-7", 0, False): "5f67a43608083341654c27c8c7d34fdd2471d6958865a7544e5018c275464d2a",
    ("mmo-7", 0, True): "5f67a43608083341654c27c8c7d34fdd2471d6958865a7544e5018c275464d2a",
    ("mmo-7", 30, False): "074eaf383219ad2e1b80a05a41aaa1bcd055d7939905c89ddbaf73c8d7afadf6",
    ("mmo-7", 30, True): "222233f61a22989a0e0c11ee0bfbf19ac4054aa2c491fb14dbd5b67b6938a334",
    ("mmo-7", None, False): "074eaf383219ad2e1b80a05a41aaa1bcd055d7939905c89ddbaf73c8d7afadf6",
    ("mmo-7", None, True): "222233f61a22989a0e0c11ee0bfbf19ac4054aa2c491fb14dbd5b67b6938a334",
    ("one-edge", 0, False): "c60634812b3e5cc8c13bf2fd51640781e0ec11e0a4eeb4ae0f8065b051b06b2d",
    ("one-edge", 0, True): "c60634812b3e5cc8c13bf2fd51640781e0ec11e0a4eeb4ae0f8065b051b06b2d",
    ("one-edge", 30, False): "cdaf568a5f199fd2a78b43b975d8f93039d5884d55ad505cde178dcdbf2da599",
    ("one-edge", 30, True): "806bb642c1ba84825e80e66a41bd3786ad2ba54732b8080b5067d939faa22d16",
    ("one-edge", None, False): "ecb64b6595480111985f524dfd59f190178a0c172060a99112d4fbf07de9bdeb",
    ("one-edge", None, True): "ce6b0f7ee61d9c36d0d18861dfffc7ab5c5c351076160ea1aa5c1f5160ed2b04",
}


@pytest.mark.parametrize("tag, name, with_td", sorted(STAGE_CASES))
def test_stage_report_is_pinned(tmp_path, capsys, tag, name, with_td):
    argv = ["reduce", "--stage", tag]
    digest = report_digest(tmp_path, capsys, argv, name, with_td)
    assert digest == STAGE_CASES[(tag, name, with_td)]


@pytest.mark.parametrize(
    "name, cap, with_td", sorted(CHAIN_CASES, key=lambda case: (case[0], str(case[1]), case[2]))
)
def test_chain_report_is_pinned(tmp_path, capsys, name, cap, with_td):
    argv = ["reduce", "--chain"]
    if cap is not None:
        argv += ["--max-vertices", str(cap)]
    digest = report_digest(tmp_path, capsys, argv, name, with_td)
    assert digest == CHAIN_CASES[(name, cap, with_td)]


ROUNDTRIP_CASES = {
    ("mmo-to-fnc", "mmo-1"): "86dd9f0babdb0a4e1f432d816f7f04657318148cf3d6f37fd3ad94740ccafad1",
    ("mmo-to-fnc", "mmo-7"): "16fa572712eba959f2f279846369282d928684010ee9dc467b6010a3e2ae7fcf",
    ("fnc-to-fn", "fnc-7"): "5fa1cd402baa1b2d29b29c7aad135892ae43f494503a4f330bd4403cd1f942f3",
    ("fn-to-f", "fn-7"): "914d070b0dd7816d17ffc09d0b025503d2aba18be0f4bc7273bd02fe21381e4b",
    ("f-to-plain", "f-7"): "aeb05fe61933eeeff4e0646dbedbe8e96fd5f292aa99bf7788977364a328cb4a",
    ("mmo-to-fnc", "fnc-7"): "e7ba1f76807d1e61c11b47a95366d22194d4e9672131bdea1871516a4ecafe9f",
    ("fnc-to-fn", "mmo-1"): "15817b12001cd3caf0cc02d67a2cda557f4ea58fd7a54c8375f22132d9be391f",
}


@pytest.mark.parametrize("tag, name", sorted(ROUNDTRIP_CASES))
def test_roundtrip_report_is_pinned(tmp_path, capsys, tag, name):
    argv = ["roundtrip", "--stage", tag]
    digest = report_digest(tmp_path, capsys, argv, name, False)
    assert digest == ROUNDTRIP_CASES[(tag, name)]
