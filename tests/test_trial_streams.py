"""Per-trial random streams of the checkers.

Trial t of a checker called with seed s draws from the stream of
`np.random.default_rng([s, t])`.  The runner hashes the SeedSequence words
of a whole chunk of trials at once, of the first two chunks together for
seeds below 2**32 (seeds and trials from 2**32 through SeedSequence
itself), computes the raw 64-bit words of narrow rows by jumping ahead
from those words and of wide rows by setting a PCG64 to each seeded state,
and maps the words to `random`, `uniform` and `integers` draws itself.
numpy keeps these streams fixed across releases (NEP 19); if a numpy
upgrade changed them, these tests fail instead of the reports
drifting.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import choquet.axioms as axioms_module
from choquet.axioms import (
    Aggregator,
    check_comonotonic_additivity,
    check_comonotonic_affinity,
    check_interval_scale_covariance,
    check_linearity_in_capacity,
    check_positive_homogeneity,
    check_zero_on_basis,
    independence_suite,
)
from choquet.generate import random_signed_capacity

SEEDS = (0, 1, 13, 2**31, 2**32 - 1)
NARROW = axioms_module._NARROW_WIDTH
TRIALS = np.array(list(range(303)) + [10**6, 2**32 - 1])


def raw_words(seed: int, trials, width: int) -> np.ndarray:
    """The first `width` raw words of default_rng([seed, trial]), one row per trial."""
    return np.array([np.random.default_rng([seed, t]).bit_generator.random_raw(width) for t in trials])


@pytest.mark.parametrize("seed", SEEDS)
def test_both_producers_give_the_default_rng_words(seed):
    seed_words = axioms_module._seed_words(seed, TRIALS)
    assert np.array_equal(seed_words, np.array(
        [np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in TRIALS]).T)
    width = axioms_module._NARROW_WIDTH
    words = axioms_module._jump_words(seed_words, width)
    assert np.array_equal(words, raw_words(seed, TRIALS.tolist(), width))
    words = axioms_module._setter_words(np.random.PCG64(0), seed_words, width + 1)
    assert np.array_equal(words, raw_words(seed, TRIALS.tolist(), width + 1))


@pytest.mark.parametrize("width", [1, 2, 27, NARROW, NARROW + 1, 264])
def test_trial_words_are_default_rng_words_on_both_routes(width):
    # Narrow rows are computed by _jump_words, wide ones by setting a PCG64
    # to each state; seed 2**32 is hashed by SeedSequence, one chunk at a
    # time.  The seed words of the first 1040 trials are hashed at once, and
    # a chunk that ends past them hashes its own.  113 trials come in chunks
    # of 16 and 97 trials.  1041 trials come in chunks of 16, 1024 and 1
    # trials where 1024 rows fit under the cap: the one-row chunk takes no
    # numpy scalar arithmetic, whose overflow warnings the test
    # configuration makes errors.  At width 27 the cap is 303 rows and at
    # 264 it is 248, so a chunk ends inside the first 1040 trials and the
    # next one crosses their end on each route.
    runs = [(1, [1]), (16, [16]), (17, [16, 1]), (113, [16, 97])]
    runs += [(1041, [16, 1024, 1])] if width in (1, 2, NARROW + 1) else []
    runs += [(1300, [16, 303, 303, 303, 303, 72])] if width == 27 else []
    runs += [(1300, [16] + [248] * 5 + [44])] if width == 264 else []
    for trials, sizes in runs:
        for seed in (0, 13, 2**32 - 1, 2**32):
            chunks = list(axioms_module._trial_words(seed, trials, width))
            assert [len(words) for words in chunks] == sizes
            assert np.array_equal(np.concatenate(chunks), raw_words(seed, range(trials), width)), seed


@pytest.mark.parametrize("seed", [0, 13, 2**32 - 1, 2**32, 2**40 + 3])
def test_raw_words_map_to_the_generator_draws(seed):
    """_doubles, _uniform and _bounded_integers on the words of
    _trial_words equal random, uniform and integers on default_rng."""
    trials = np.arange(50)
    words = np.concatenate(list(axioms_module._trial_words(seed, 50, 6)))
    u = axioms_module._doubles(words)
    for m in (1, 2, 3, 7, 1000):
        index = axioms_module._bounded_integers(words[:, 5], m)
        for trial in trials.tolist():
            rng = np.random.default_rng([seed, trial])
            assert np.array_equal(u[trial, :2], rng.random(2))
            uniform = axioms_module._uniform(u[trial, 2:5], 0.1, 3.5)
            assert np.array_equal(uniform, rng.uniform(0.1, 3.5, 3))
            assert index[trial] == rng.integers(m)


def test_seeds_and_trials_from_two_to_the_32_are_hashed_by_seed_sequence():
    trials = np.array([0, 1, 2**32])
    for seed in (0, 2**32, 2**64 + 5):  # seed 0 only for trial 2**32
        words = axioms_module._jump_words(axioms_module._seed_words(seed, trials), 5)
        assert np.array_equal(words, raw_words(seed, trials.tolist(), 5)), seed


def test_negative_seed_is_rejected_as_by_default_rng():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        axioms_module._seed_words(-1, np.arange(3))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        check_positive_homogeneity(Aggregator("choquet", 2), random_signed_capacity(2, 0), 5, -1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        agg = Aggregator("weighted-mean", 2)
        agg._parts.replay(agg, -1)  # width 0


def test_one_row_blocks_share_their_state_computations(monkeypatch):
    # From n = 16 every block of a Mobius family is one trial; the words
    # still come in chunks of 16, 1024, 65536, ... trials.
    calls, blocks = [], []
    jump_words, doubles = axioms_module._jump_words, axioms_module._doubles

    def counted(seed_words, width):
        calls.append(seed_words.shape[1])
        return jump_words(seed_words, width)

    monkeypatch.setattr(axioms_module, "_jump_words", counted)
    monkeypatch.setattr(axioms_module, "_doubles", lambda words: blocks.append(len(words)) or doubles(words))
    report = check_zero_on_basis(Aggregator("multilinear", 16), [1, 2], 100, 0)
    assert not report.falsified and report.samples_run == 100
    assert blocks == [1] * 100
    assert calls == [16, 84]
    calls.clear()
    assert sum(len(words) for words in axioms_module._trial_words(0, 5000, 4)) == 5000
    # 2048 rows of width 4 fill a chunk.
    assert calls == [16, 1024, 2048, 1912]
    # The row cap allows 8 values per narrow word and 1 per wide one.  Past
    # the first 1040 trials the narrowest rows take the largest chunks.
    for width, per_word, rows in ((2, 8, 4096), (3, 8, 2730), (27, 8, 303),
                                  (264, 1, 248), (1034, 1, 63)):
        sizes = [len(words) for words in axioms_module._trial_words(0, 10000, width)]
        assert sum(sizes) == 10000 and max(sizes) == rows
        assert max(sizes) * width * per_word <= axioms_module._BLOCK_VALUES


@pytest.mark.parametrize("width, rows, budget", [
    (1, 8192, 2.3), (2, 4096, 1.6), (9, 910, 1), (27, 303, 1), (NARROW, 170, 1),
    (NARROW + 1, 1337, 1.6), (264, 248, 1.6)])
def test_every_chunk_is_made_within_the_block_budget(width, rows, budget):
    # numpy reports its array memory, ufunc buffers included, to
    # tracemalloc.  The first chunk hashes the seed words of the first 1040
    # trials, a chunk that ends inside them slices them, and every later
    # chunk hashes its own.  Rows of 1 to 8 words hold more per word than
    # the cap allows for, and wide rows hold their seed words as Python
    # ints, so those chunks are made within more than the budget.  One
    # trial first makes the process's one-off allocations of a route.
    list(axioms_module._trial_words(0, 1, width))
    chunks, sizes = axioms_module._trial_words(0, 10000, width), []
    tracemalloc.start()
    try:
        while True:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            words = next(chunks, None)
            if words is None:
                break
            sizes.append(len(words))
            assert tracemalloc.get_traced_memory()[1] - before <= budget * 8 * axioms_module._BLOCK_VALUES, sizes
            del words
    finally:
        tracemalloc.stop()
    assert sum(sizes) == 10000 and max(sizes) == rows


def test_bounded_integers_flags_the_words_lemire_rejects():
    # For m = 3 the rejection threshold (2**32 - 3) % 3 is 1: a word whose
    # low 32 bits times 3 are 0 modulo 2**32 is drawn again.
    words = np.array([0, 1 << 32, 1, 0xFFFFFFFF], dtype=np.uint64)
    assert axioms_module._bounded_integers(words, 3).tolist() == [-1, -1, 0, 2]


def test_zero_on_basis_replays_rejected_draws_on_the_trial_stream(monkeypatch):
    # The weighted-mean family falsifies at trial 1, whose witness names
    # the zeroed element; the choquet family runs every trial.
    calls = [
        (Aggregator(family, 4), subset, 50, seed)
        for family in ("weighted-mean", "choquet") for subset in (0b0110, 0b1111) for seed in range(8)
    ]
    expected = [check_zero_on_basis(*call, tolerance=0.0).to_dict() for call in calls]
    monkeypatch.setattr(axioms_module, "_bounded_integers", lambda words, m: np.full(len(words), -1))
    assert [check_zero_on_basis(*call, tolerance=0.0).to_dict() for call in calls] == expected


def checker_calls():
    """One call of every checker on three families, long enough to cross
    blocks, and two independence suites, whose checker calls share words."""
    calls = [(independence_suite, (200, 0)), (independence_suite, (200, 2**32))]
    for family, n in (("choquet", 3), ("weighted-mean", 2), ("multilinear", 2)):
        agg = Aggregator(family, n)
        v = random_signed_capacity(n, 5)
        for check in (check_comonotonic_additivity, check_positive_homogeneity, check_comonotonic_affinity):
            calls.append((check, (agg, v, 150, 3, 0.0)))
        for check in (check_interval_scale_covariance, check_zero_on_basis):
            calls.append((check, (agg, (1 << n) - 1, 150, 3, 0.0)))
        calls.append((check_linearity_in_capacity, (agg, 60, 3, 0.0)))
    return calls


def test_concurrent_checker_calls_return_the_serial_reports():
    calls = checker_calls()
    serial = [check(*args).to_dict() for check, args in calls]
    results = {}

    def worker(name):
        results[name] = [check(*args).to_dict() for check, args in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(name,)) for name in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for reports in results.values():
        assert reports == serial


def test_suite_cells_are_the_reports_of_its_checker_calls():
    trials, seed = 300, 7
    summary = independence_suite(trials, seed)
    for cell in summary.cells:
        agg = Aggregator(cell.family, axioms_module._FAMILY_PARTS[cell.family].suite_n)
        reports = axioms_module._run_condition(agg, cell.condition, trials, seed)  # outside a suite
        if axioms_module.EXPECTED_FALSIFIED[cell.family] == cell.condition:
            reports.insert(0, agg._parts.replay(agg, seed))
        witness = next((r.witness for r in reports if r.falsified), None)
        assert cell.samples_run == sum(r.samples_run for r in reports)
        assert (cell.witness and cell.witness.to_dict()) == (witness and witness.to_dict())


def test_a_suite_hashes_each_trial_chunk_once(monkeypatch):
    calls = []
    seed_words = axioms_module._seed_words

    def counted(seed, trials):
        calls.append((seed, int(trials[0]), int(trials[-1]) + 1))
        return seed_words(seed, trials)

    monkeypatch.setattr(axioms_module, "_seed_words", counted)
    independence_suite(1000, 3)
    # The seed words of a run's first 1040 trials are hashed at once, and
    # every width of the suite (3 to 11 words) takes its chunks of 16 and
    # 1024 trials from them; the paper replays draw one trial.
    assert sorted(calls) == [(3, 0, 1), (3, 0, 1000)]
    calls.clear()
    check_zero_on_basis(Aggregator("weighted-mean", 2), 1, 1000, 3)  # outside a suite nothing is kept
    check_zero_on_basis(Aggregator("weighted-mean", 2), 1, 1000, 3)
    assert calls == [(3, 0, 1000)] * 2
    calls.clear()
    # Past the first 1040 trials each chunk hashes its own (at 3 words a
    # row the cap of 2730 rows leaves one chunk).
    check_zero_on_basis(Aggregator("weighted-mean", 2), 1, 3000, 3)
    assert calls == [(3, 0, 1040), (3, 1040, 3000)]
    calls.clear()
    # SeedSequence hashes seed 2**32 one trial at a time: the first chunk
    # hashes its own, so that a run falsified there pays for 16 seeds.
    check_zero_on_basis(Aggregator("weighted-mean", 2), 1, 1000, 2**32)
    assert calls == [(2**32, 0, 16), (2**32, 16, 1000)]


def test_the_suite_words_live_for_one_suite_call(monkeypatch):
    stores = []
    shared = axioms_module._suite_shared

    def watched(key, make):
        words = shared(key, make)
        store = axioms_module._SUITE_WORDS.get()
        stores.append((store, len(store)))
        return words

    monkeypatch.setattr(axioms_module, "_suite_shared", watched)
    independence_suite(100, 0)
    assert all(store is stores[0][0] for store, _ in stores) and max(size for _, size in stores) > 1
    assert stores[0][0] == {} and axioms_module._SUITE_WORDS.get() is None

    def fail(*args):
        raise RuntimeError("checker failed")

    stores.clear()
    monkeypatch.setitem(axioms_module.CHECKERS, axioms_module.AXIOM_LINEARITY_IN_CAPACITY, fail)
    with pytest.raises(RuntimeError, match="checker failed"):
        independence_suite(100, 0)
    assert max(size for _, size in stores) > 1  # words were kept before the failure
    assert stores[0][0] == {} and axioms_module._SUITE_WORDS.get() is None


def test_the_suite_words_stay_within_the_block_budget(monkeypatch):
    # 10,000 trials need 40,000 seed words and 30,000 to 60,000 words per
    # width, far past the budget: chunks past it are made and not kept.
    totals, made = [], []
    shared, seed_words = axioms_module._suite_shared, axioms_module._seed_words

    def watched(key, make):
        words = shared(key, make)
        totals.append(sum(stored.size for stored in axioms_module._SUITE_WORDS.get().values()))
        return words

    def counted(seed, trials):
        made.append(int(trials[0]))
        return seed_words(seed, trials)

    monkeypatch.setattr(axioms_module, "_suite_shared", watched)
    monkeypatch.setattr(axioms_module, "_seed_words", counted)
    independence_suite(10000, 1)
    assert axioms_module._BLOCK_VALUES // 2 < max(totals) <= axioms_module._BLOCK_VALUES
    assert len(made) > len(set(made))  # some chunks were hashed again

