"""Workload definitions, seeded candidate generation and reference checks.

Nothing here imports thetasums: the parent process that generates inputs
and checks outputs stays independent of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    order: int = 0
    bound: int = 0
    kinds: tuple[str, ...] | None = None
    candidates: bool = False


# Why each workload was chosen is recorded in BENCHMARK.json.  A sample
# takes 1-4 s here, so a 25 s run holds 7 or more samples for its median.
WORKLOADS = {
    w.name: w
    for w in (
        # reproduce all: sieve, series and fixed costs all carry weight.
        Workload("catalog-default", order=1000, bound=50000),
        # reproduce all with the sieve dominant and sums shared across entries.
        Workload("catalog-sieve", order=1000, bound=100_000),
        # verify all with Series.mul dominant and the sieve nearly idle.
        Workload(
            "series-verify", order=4000, bound=1000, kinds=("identity", "decomposition")
        ),
        # classification traffic: distinct, mostly failing sums; gap listing dominates.
        Workload("candidate-search", bound=30_000, candidates=True),
    )
}

# -- candidate-search inputs ----------------------------------------------------

# m = 6 is left out: generalized hexagonal numbers are the triangular
# numbers, so c*p6 would repeat the value family of c*p3.
SHAPES = (3, 4, 5, 7, 8)
MAX_COEFF = 8

# Certification cost is dominated by listing gaps, so a seed that happened
# to draw a few more residue-obstructed sums would cost far more than
# another.  Candidates are therefore drawn by quota per gap class: the
# tenths of (CLASS_BOUND/2, CLASS_BOUND] that the brute-force loop leaves
# unrepresented.  A residue obstruction keeps its share of gaps at every
# bound, so the class predicts the gap count at the full bound.  The quotas
# follow the classes' frequencies among random draws; with them 15-20% of
# the candidates are universal (36 of 200 for seed 1).
CLASS_BOUND = 400
QUOTAS = {0: 173, 1: 1, 2: 3, 3: 5, 4: 4, 5: 12, 6: 1, 7: 1}
CANDIDATE_COUNT = sum(QUOTAS.values())
MAX_DRAWS = 200_000

# Every candidate's full gap list at the workload bound is compared with
# reference_gaps.  Reported gaps up to REF_BOUND are compared with the
# brute-force loop on REF_SAMPLE seeded candidates; all candidates are
# compared with it up to CLASS_BOUND.
REF_BOUND = 2000
REF_SAMPLE = 12


@dataclass(frozen=True)
class Candidate:
    parts: tuple[tuple[int, int], ...]  # sorted (coeff, m) pairs
    small_gaps: tuple[int, ...]  # gaps up to CLASS_BOUND

    @property
    def text(self) -> str:
        return "+".join(f"p{m}" if c == 1 else f"{c}*p{m}" for c, m in self.parts)


def term_values(coeff: int, m: int, bound: int) -> set[int]:
    """Values coeff * p_m(x) <= bound over all integers x, by direct iteration."""
    out = set()
    for x0, step in ((0, 1), (-1, -1)):
        x = x0
        while (v := coeff * ((m - 2) * x * x - (m - 4) * x) // 2) <= bound:
            out.add(v)
            x += step
    return out


def brute_gaps(parts, bound: int) -> list[int]:
    """Integers in [0, bound] that no choice of term values sums to."""
    reached = {0}
    for coeff, m in parts:
        values = term_values(coeff, m, bound)
        reached = {r + v for r in reached for v in values if r + v <= bound}
    return [n for n in range(bound + 1) if n not in reached]


def reference_gaps(parts, bound: int) -> list[int]:
    """brute_gaps by a bitmask sumset, fast enough for the workload bound."""
    full = (1 << (bound + 1)) - 1
    reached = 1
    for coeff, m in parts:
        folded = 0
        for v in term_values(coeff, m, bound):
            folded |= reached << v
        reached = folded & full
    unreached = bin(full ^ reached)[:1:-1]  # bit i is character i
    return [match.start() for match in re.finditer("1", unreached)]


def gaps_digest(gaps) -> str:
    return hashlib.sha256(array("q", gaps).tobytes()).hexdigest()[:16]


def gap_class(gaps) -> int:
    half = CLASS_BOUND // 2
    upper = sum(1 for g in gaps if g > half)
    return round(10 * upper / (CLASS_BOUND - half))


def candidates(seed: int) -> list[Candidate]:
    """CANDIDATE_COUNT distinct quaternary sums, in seeded draw order."""
    rng = random.Random(seed)
    left = dict(QUOTAS)
    seen = set()
    out = []
    for _ in range(MAX_DRAWS):
        parts = tuple(
            sorted((rng.randint(1, MAX_COEFF), rng.choice(SHAPES)) for _ in range(4))
        )
        if parts in seen:
            continue
        seen.add(parts)
        gaps = brute_gaps(parts, CLASS_BOUND)
        cls = gap_class(gaps)
        if left.get(cls, 0) > 0:
            left[cls] -= 1
            out.append(Candidate(parts, tuple(gaps)))
            if len(out) == CANDIDATE_COUNT:
                return out
    raise RuntimeError(f"seed {seed}: quotas not filled after {MAX_DRAWS} draws")


def check_candidates(seed: int, cands: list[Candidate], bound: int, results) -> int:
    """Count candidates whose reported gaps disagree with the references.

    results[i] is [gap count up to bound, gaps_digest of all those gaps,
    gaps up to REF_BOUND].
    """
    if len(results) != len(cands):
        return max(len(results), len(cands))
    wrong = set()
    for i, (cand, (count, digest, head)) in enumerate(zip(cands, results)):
        if [g for g in head if g <= CLASS_BOUND] != list(cand.small_gaps):
            wrong.add(i)
        full = reference_gaps(cand.parts, bound)
        if [count, digest] != [len(full), gaps_digest(full)]:
            wrong.add(i)
        if head != [g for g in full if g <= REF_BOUND]:
            wrong.add(i)
    rng = random.Random(f"reference-{seed}")
    for i in rng.sample(range(len(cands)), REF_SAMPLE):
        if list(results[i][2]) != brute_gaps(cands[i].parts, REF_BOUND):
            wrong.add(i)
    return len(wrong)


# -- catalog report gate --------------------------------------------------------

ROW_FIELDS = ("key", "kind", "status", "detail")


def row_hash(row: dict) -> str:
    text = json.dumps([row[f] for f in ROW_FIELDS])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_rows(expected: dict[str, str], got: dict[str, list]) -> int:
    """Rows that are missing, extra, not passing, or differ from the record.

    got maps each key to [row hash, status].
    """
    keys = set(expected) | set(got)
    return sum(1 for k in keys if got.get(k) != [expected.get(k), "pass"])
