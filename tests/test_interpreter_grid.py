"""The running interpreter reproduces the committed digest of the seeded
result grid in ``interpreter_grid.py``.  Run under each supported
interpreter, this test shows that they all give the same bits."""

from __future__ import annotations

import interpreter_grid


def test_grid_digest_matches_the_committed_one():
    n, got = interpreter_grid.digest()
    assert n == 5360
    assert got == interpreter_grid.committed()
