"""Golden checker reports: SHA-256 of `AxiomReport.to_dict()` for fixed calls.

`golden_reports.json` maps each checker call, written
`family/n/axiom/subset/seed/trials/tolerance`, to the SHA-256 of
`json.dumps(report.to_dict(), sort_keys=True)` for the report it returned
(`subset` is a mask for interval-scale and zero-on-basis, `-` otherwise).
The game of the additivity, homogeneity and affinity checkers is
`vstar_capacity()` for the vstar-patch family at seed 0 (the capacity it
overrides) and `random_signed_capacity(n, 1000 + seed)` otherwise.

The fixture was recorded once, before checker trials were evaluated in
blocks, by running `PYTHONPATH=src python tests/test_golden_reports.py`
with the per-trial scalar code; refactors must reproduce it byte for byte.
The trial counts cross block boundaries, and a tolerance of 0 falsifies on
any last-bit difference between the two sides, so a reordering of the
arithmetic shows as a changed witness.  The EDGE calls were recorded, with
the per-trial `default_rng([seed, trial])` code, before trial streams were
seeded a block at a time: seed 2**32 - 1 is the largest whose streams take
the array seed hash, and 2**32 the smallest that SeedSequence hashes itself.
The choquet n = 6 EDGE calls, recorded later by the same command, pin both
seeds on rows wider than the jump-ahead route takes (70 words for
linearity).  The SPLIT calls, recorded later by the same command, run at
n = 13, the smallest ground set whose trial blocks (8 rows) are smaller than
the first word chunk (16 rows), so one chunk's rows are evaluated in several
blocks; linearity is bounded at n <= 10 and left out.  An intended change
of output means recording the fixture again by the same command and saying
why in the change log.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from choquet import axioms
from choquet.generate import random_signed_capacity

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

AGGREGATORS = (
    ("choquet", 1), ("choquet", 3), ("choquet", 8),
    ("weighted-mean", 2), ("weighted-mean", 4),
    ("multilinear", 2), ("multilinear", 4),
    ("vstar-patch", 3),
)
SEEDS = (0, 1, 2)
TRIALS = (1, 2, 3, 7, 64, 200)
TOLERANCES = (1e-6, 0.0)

EDGE_AGGREGATORS = (("choquet", 3), ("multilinear", 2), ("choquet", 6))
EDGE_SEEDS = (2**32 - 1, 2**32)
EDGE_TRIALS = (1, 7, 200)

SPLIT_AGGREGATORS = (("choquet", 13), ("multilinear", 13))
SPLIT_SEEDS = (0, 1)
SPLIT_TRIALS = (7, 40)

GAME_CHECKERS = {
    axioms.AXIOM_COMONOTONIC_ADDITIVITY: axioms.check_comonotonic_additivity,
    axioms.AXIOM_POSITIVE_HOMOGENEITY: axioms.check_positive_homogeneity,
    axioms.AXIOM_COMONOTONIC_AFFINITY: axioms.check_comonotonic_affinity,
}
SUBSET_CHECKERS = {
    axioms.AXIOM_INTERVAL_SCALE: axioms.check_interval_scale_covariance,
    axioms.AXIOM_ZERO_ON_BASIS: axioms.check_zero_on_basis,
}


def subsets(n: int) -> list[int]:
    """A singleton, the full set and (from n = 2) a two-element subset."""
    full = (1 << n) - 1
    return sorted({1, full, (0b110 & full) or 1})


def report(family: str, n: int, axiom: str, subset, seed: int, trials: int, tolerance: float):
    agg = axioms.Aggregator(family, n)
    if axiom in GAME_CHECKERS:
        if family == "vstar-patch" and seed == 0:
            game = axioms.vstar_capacity()
        else:
            game = random_signed_capacity(n, 1000 + seed)
        return GAME_CHECKERS[axiom](agg, game, trials, seed, tolerance)
    if axiom in SUBSET_CHECKERS:
        return SUBSET_CHECKERS[axiom](agg, subset, trials, seed, tolerance)
    return axioms.check_linearity_in_capacity(agg, trials, seed, tolerance)


def digests(family: str, n: int, axiom: str, seeds=SEEDS, trial_counts=TRIALS) -> dict[str, str]:
    """Key -> report digest for every call of one checker on one aggregator."""
    out = {}
    for subset in subsets(n) if axiom in SUBSET_CHECKERS else ["-"]:
        for seed in seeds:
            for trials in trial_counts:
                for tolerance in TOLERANCES:
                    r = report(family, n, axiom, subset, seed, trials, tolerance)
                    text = json.dumps(r.to_dict(), sort_keys=True)
                    key = f"{family}/{n}/{axiom}/{subset}/{seed}/{trials}/{tolerance!r}"
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


GROUPS = [(family, n, axiom) for family, n in AGGREGATORS for axiom in axioms.AXIOMS]
EDGE_GROUPS = [(family, n, axiom) for family, n in EDGE_AGGREGATORS for axiom in axioms.AXIOMS]
SPLIT_GROUPS = [
    (family, n, axiom) for family, n in SPLIT_AGGREGATORS for axiom in axioms.AXIOMS
    if axiom != axioms.AXIOM_LINEARITY_IN_CAPACITY
]


@pytest.mark.parametrize("family, n, axiom", GROUPS)
def test_golden_reports(family, n, axiom):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = digests(family, n, axiom)
    expected = {k: golden[k] for k in got}
    assert got == expected


@pytest.mark.parametrize("family, n, axiom", EDGE_GROUPS)
def test_golden_reports_at_the_seed_edge(family, n, axiom):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = digests(family, n, axiom, EDGE_SEEDS, EDGE_TRIALS)
    expected = {k: golden[k] for k in got}
    assert got == expected


@pytest.mark.parametrize("family, n, axiom", SPLIT_GROUPS)
def test_golden_reports_on_split_blocks(family, n, axiom):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = digests(family, n, axiom, SPLIT_SEEDS, SPLIT_TRIALS)
    expected = {k: golden[k] for k in got}
    assert got == expected


def _n_calls(groups, seeds, trial_counts) -> int:
    return sum(
        len(seeds) * len(trial_counts) * len(TOLERANCES)
        * (len(subsets(n)) if axiom in SUBSET_CHECKERS else 1)
        for _, n, axiom in groups
    )


def test_fixture_holds_exactly_these_calls():
    golden = json.loads(GOLDEN_PATH.read_text())
    n_calls = (
        _n_calls(GROUPS, SEEDS, TRIALS) + _n_calls(EDGE_GROUPS, EDGE_SEEDS, EDGE_TRIALS)
        + _n_calls(SPLIT_GROUPS, SPLIT_SEEDS, SPLIT_TRIALS)
    )
    assert len(golden) == n_calls


if __name__ == "__main__":
    recorded = {}
    for group in GROUPS:
        recorded.update(digests(*group))
    for group in EDGE_GROUPS:
        recorded.update(digests(*group, EDGE_SEEDS, EDGE_TRIALS))
    for group in SPLIT_GROUPS:
        recorded.update(digests(*group, SPLIT_SEEDS, SPLIT_TRIALS))
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} reports in {GOLDEN_PATH}", file=sys.stderr)
