"""The mutant catalog in ``mutants.py`` stays in step with the source: each
snippet occurs exactly once in its file, and each node id names a test
file that defines the named tests.  The catalog itself runs outside
tier-1, as ``python tests/mutants.py``."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[Path(m.path).stem for m in mutants.MUTANTS])
def test_catalog_entry_matches_head(mutant):
    text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for node in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        text = (mutants.ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), node
