"""The mutant register (tests/mutants.py) still fits the source.

Running the mutants takes minutes, so CI runs `python tests/mutants.py` as its
own step; this only checks, in Tier-1, that each entry can still be applied:
its `old` snippet occurs exactly once in its file and its node ids name test
files that exist.  A refactor that moves a snippet has to carry the register
along.
"""

import pytest

from mutants import MUTANTS, ROOT, SRC


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_applies_once(mutant):
    text = (SRC / "hopfcqt" / mutant["file"]).read_text()
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for node in mutant["tests"]:
        assert (ROOT / node.split("::")[0]).is_file(), node
