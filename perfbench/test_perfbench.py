"""Checks of the benchmark itself: exact counters and seeded inputs.

    python3 -m pytest perfbench
"""

import json

from run import EXPECTED, sample
from tracer import counts
from workloads import REF_BOUND, brute_gaps, candidates, check_rows, reference_gaps


def test_traced_counts_repeat_and_rows_match_the_record():
    first, second = (sample("catalog-default", trace=True) for _ in range(2))
    assert counts(first["layers"]) == counts(second["layers"])
    assert first["layers"]["polygonal.sieve_calls"] > 0
    expected = json.loads(EXPECTED.read_text())["catalog-default"]["rows"]
    assert check_rows(expected, first["rows"]) == 0


def test_candidates_follow_the_seed():
    one = [c.parts for c in candidates(1)]
    assert one == [c.parts for c in candidates(1)]
    assert one != [c.parts for c in candidates(2)]
    assert len(set(one)) == len(one)


def test_reference_gaps_match_brute_force():
    for cand in candidates(1)[:5] + candidates(1)[-5:]:
        assert reference_gaps(cand.parts, REF_BOUND) == brute_gaps(cand.parts, REF_BOUND)
