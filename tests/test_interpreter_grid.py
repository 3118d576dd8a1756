"""The running interpreter reproduces the committed digest of the seeded
result grid in ``interpreter_grid.py``, which CI also runs directly under
every supported interpreter."""

from __future__ import annotations

import interpreter_grid


def test_grid_digest_matches_the_committed_one():
    n, got = interpreter_grid.digest()
    assert n == 5360
    assert got == interpreter_grid.committed()
