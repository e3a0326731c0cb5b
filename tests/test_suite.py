"""The paper suite: all twelve reproduction checks pass at seed 0.

This runs suite.run_all(0) at its full size; it is the slowest test of the
tier, about half a minute.
"""

from jorder import suite


def test_run_all_seed_0_passes_every_check():
    out = suite.run_all(0)
    assert [row["id"] for row in out["checks"]] == list(range(1, 13))
    failed = [(row["id"], row["name"], row["details"]) for row in out["checks"] if not row["passed"]]
    assert failed == []
    assert out["all_passed"] is True
