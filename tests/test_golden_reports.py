"""Golden checker reports: SHA-256 of `AxiomReport.to_dict()` for fixed calls.

`golden_reports.json` maps each checker call, written
`family/n/axiom/subset/seed/trials/tolerance`, to the SHA-256 of
`json.dumps(report.to_dict(), sort_keys=True)` for the report it returned
(`subset` is a mask for interval-scale and zero-on-basis, `-` otherwise).
The game of the additivity, homogeneity and affinity checkers is
`vstar_capacity()` for the vstar-patch family at seed 0 (the capacity it
overrides) and `random_signed_capacity(n, 1000 + seed)` otherwise.
GROUPS lists the calls: each group runs its checker at every subset, seed,
trial count and tolerance.

The fixture was recorded once, before checker trials were evaluated in
blocks, with the per-trial scalar code; refactors must reproduce it byte
for byte.  The trial counts cross block boundaries, and a tolerance of 0
falsifies on any last-bit difference between the two sides, so a
reordering of the arithmetic shows as a changed witness.  The seed-edge
groups were recorded, with the per-trial `default_rng([seed, trial])` code,
before trial streams were seeded a block at a time: seed 2**32 - 1 is the
largest whose streams take the array seed hash, and 2**32 the smallest that
SeedSequence hashes itself; their choquet n = 6 groups, recorded later, pin
both seeds on rows wider than the jump-ahead route takes (70 words for
linearity).  The split-block groups, recorded later, run at n = 13, the
smallest ground set whose trial blocks (8 rows) are smaller than the first
word chunk (16 rows), so one chunk's rows are evaluated in several blocks;
linearity is bounded at n <= 10 and left out.  The n = 16 basis groups,
recorded later, pin the subset checkers of the two Mobius families where
the unanimity-game route ran every trial as a block of its own.

It also maps each independence suite of SUITES, written
`suite/seed/trials`, to the SHA-256 of `json.dumps(summary.to_dict())`,
unsorted so that the order of a witness's inputs, which `choquet check`
prints, is pinned too.  They were recorded while the suite still ran its
subset checkers one subset at a time.  The suites of 5957, 5958 and 7000
trials, recorded later, run past 5957 = 2**16 // 11 trials: the most rows
of 11 words (the widest row a suite run reads, vstar-patch linearity) that
fit in 2**16 values.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from choquet import axioms
from choquet.generate import random_signed_capacity

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

TOLERANCES = (1e-6, 0.0)


def _groups(aggregators, seeds, trial_counts, axiom_names=axioms.AXIOMS):
    return [(family, n, axiom, seeds, trial_counts)
            for family, n in aggregators for axiom in axiom_names]


# (family, n, axiom, seeds, trial counts) of every group of calls: every
# axiom on eight aggregators, then at the seed edge, then on split blocks,
# then the basis axioms of the Mobius families at n = 16.
GROUPS = (
    _groups([("choquet", 1), ("choquet", 3), ("choquet", 8), ("weighted-mean", 2),
             ("weighted-mean", 4), ("multilinear", 2), ("multilinear", 4), ("vstar-patch", 3)],
            (0, 1, 2), (1, 2, 3, 7, 64, 200))
    + _groups([("choquet", 3), ("multilinear", 2), ("choquet", 6)],
              (2**32 - 1, 2**32), (1, 7, 200))
    + _groups([("choquet", 13), ("multilinear", 13)], (0, 1), (7, 40),
              [a for a in axioms.AXIOMS if a != axioms.AXIOM_LINEARITY_IN_CAPACITY])
    + _groups([("weighted-mean", 16), ("multilinear", 16)], (0, 1), (7, 40), axioms.SUBSET_AXIOMS)
)


# (seeds, trial counts) of the pinned independence suites.
SUITES = ((*range(8), 2**32 + 1), (1, 16, 17, 1000, 1041, 5957, 5958, 7000))


def subsets(n: int) -> list[int]:
    """A singleton, the full set and (from n = 2) a two-element subset."""
    full = (1 << n) - 1
    return sorted({1, full, (0b110 & full) or 1})


def calls(family: str, n: int, axiom: str, seeds, trial_counts):
    """(key, call) for every call of one group, a call being the arguments of report."""
    for subset in subsets(n) if axiom in axioms.SUBSET_AXIOMS else ["-"]:
        for seed, trials, tolerance in itertools.product(seeds, trial_counts, TOLERANCES):
            key = f"{family}/{n}/{axiom}/{subset}/{seed}/{trials}/{tolerance!r}"
            yield key, (family, n, axiom, subset, seed, trials, tolerance)


def report(family: str, n: int, axiom: str, subset, seed: int, trials: int, tolerance: float):
    agg = axioms.Aggregator(family, n)
    if axiom in axioms.SUBSET_AXIOMS:
        given = [subset]
    elif axiom == axioms.AXIOM_LINEARITY_IN_CAPACITY:
        given = []
    elif family == "vstar-patch" and seed == 0:
        given = [axioms.vstar_capacity()]
    else:
        given = [random_signed_capacity(n, 1000 + seed)]
    return axioms.CHECKERS[axiom](agg, *given, trials, seed, tolerance)


def digests(group) -> dict[str, str]:
    """Key -> report digest for every call of one group."""
    out = {}
    for key, call in calls(*group):
        text = json.dumps(report(*call).to_dict(), sort_keys=True)
        out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def suite_digests(seed: int) -> dict[str, str]:
    """Key -> summary digest for the pinned suites of one seed."""
    out = {}
    for trials in SUITES[1]:
        text = json.dumps(axioms.independence_suite(trials, seed).to_dict())
        out[f"suite/{seed}/{trials}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def record() -> dict[str, str]:
    out = {key: digest for group in GROUPS for key, digest in digests(group).items()}
    for seed in SUITES[0]:
        out.update(suite_digests(seed))
    return out


@pytest.mark.parametrize(
    "group", GROUPS, ids=[f"{f}-{n}-{a}-seed{s[0]}" for f, n, a, s, _ in GROUPS])
def test_golden_reports(group):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = digests(group)
    assert got == {k: golden[k] for k in got}


@pytest.mark.parametrize("seed", SUITES[0])
def test_golden_suites(seed):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = suite_digests(seed)
    assert got == {k: golden[k] for k in got}


def test_fixture_holds_exactly_these_calls():
    keys = [key for group in GROUPS for key, _ in calls(*group)]
    keys += [f"suite/{seed}/{trials}" for seed in SUITES[0] for trials in SUITES[1]]
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(keys)


def test_each_fixture_is_laid_out_as_the_recorder_writes_it():
    from record_goldens import FIXTURES, fixture_text

    for module, indent in FIXTURES:
        text = module.GOLDEN_PATH.read_text()
        assert text == fixture_text(json.loads(text), indent), module.GOLDEN_PATH.name
