"""The acceptance gate: every criterion at its stated tolerance (exact).

Each criterion prints one pass/fail line; all of them run by default.
"""

import pytest

from preproj.acceptance import CRITERIA


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_acceptance(name, fn):
    ok, details = fn()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {details}")
    assert ok, f"{name}: {details}"
