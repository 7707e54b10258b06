"""The smallest exhaustive scope (tests/exhaustive.py) in the tier-1 suite:
n <= 3, at most 2 bars a side, GF(2), each morphism in bar form and
behind a seeded basis change."""

from __future__ import annotations

import exhaustive


def test_every_morphism_of_the_smallest_scope_matches_the_referees():
    report = []
    cases, failed = exhaustive.run(3, 2, 2, report=report.append)
    assert failed == 0, "\n".join(report)
    # 31 + 367 + 2,640 morphisms at n = 1, 2, 3.
    assert cases == 3038
