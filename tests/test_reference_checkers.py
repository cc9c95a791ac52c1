"""The fast checkers against the per-trial reference (reference_checkers):
the same report, witness and error on every call, bit for bit."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import reference_checkers as reference
from choquet.axioms import CHECKERS, Aggregator
from choquet.errors import NonFiniteResult
from choquet.generate import random_capacity, random_signed_capacity
from choquet.names import (
    AXIOM_INTERVAL_SCALE, AXIOM_LINEARITY_IN_CAPACITY, AXIOM_POSITIVE_HOMOGENEITY, AXIOMS,
    FAMILIES, FAMILY_CHOQUET, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH, FAMILY_WEIGHTED_MEAN,
    SUBSET_AXIOMS,
)
from choquet.setfunction import SignedCapacity

MOBIUS_FAMILIES = (FAMILY_WEIGHTED_MEAN, FAMILY_MULTILINEAR)


def outcome(check, *args):
    """The report as JSON (signed zeros and all), or the error's type and text."""
    try:
        return json.dumps(check(*args).to_dict())
    except NonFiniteResult as error:
        return f"{type(error).__name__}: {error}"


def assert_same_outcome(axiom, *args):
    assert outcome(CHECKERS[axiom], *args) == outcome(reference.CHECKERS[axiom], *args)


@st.composite
def checker_calls(draw):
    """An axiom, an aggregator and its subject (a game, a subset mask or
    nothing), then trials, seed and tolerance.  Games are capacities or
    signed capacities, scaled so that some sides round past the tolerance
    or overflow."""
    axiom = draw(st.sampled_from(AXIOMS))
    family = draw(st.sampled_from(FAMILIES))
    if family == FAMILY_VSTAR_PATCH:
        n = 3
    else:
        n = draw(st.integers(1, 6 if family in MOBIUS_FAMILIES or axiom == AXIOM_LINEARITY_IN_CAPACITY
                             else 13))
    agg = Aggregator(family, n)
    if axiom in SUBSET_AXIOMS:
        subject = (draw(st.integers(1, (1 << n) - 1)),)
    elif axiom == AXIOM_LINEARITY_IN_CAPACITY:
        subject = ()
    else:
        make = draw(st.sampled_from([random_capacity, random_signed_capacity]))
        scale = draw(st.sampled_from([1.0, 1e9, 1e307]))
        subject = (SignedCapacity(n, make(n, draw(st.integers(0, 99))).values * scale),)
    seed = draw(st.one_of(st.integers(0, 2**33), st.sampled_from([2**32 - 1, 2**32, 2**32 + 1])))
    trials = draw(st.integers(1, 300))
    tolerance = draw(st.one_of(st.sampled_from([0, 1e-6]), st.floats(0, 1)))
    return (axiom, agg, *subject, trials, seed, tolerance)


@settings(max_examples=150, deadline=None)
@given(checker_calls())
def test_fast_checkers_equal_the_reference(call):
    assert_same_outcome(*call)


# Runs past trial 1040, where the seed words hashed with the first chunk
# end, on the narrow word route (5 words a trial) and the wide one (70).
@pytest.mark.parametrize("trials", [1041, 1100])
@pytest.mark.parametrize("axiom, agg, subject", [
    (AXIOM_POSITIVE_HOMOGENEITY, Aggregator(FAMILY_CHOQUET, 4), (random_signed_capacity(4, 0),)),
    (AXIOM_LINEARITY_IN_CAPACITY, Aggregator(FAMILY_WEIGHTED_MEAN, 6), ()),
], ids=["narrow", "wide"])
def test_runs_past_the_first_seed_span(axiom, agg, subject, trials):
    assert_same_outcome(axiom, agg, *subject, trials, 7, 1e-6)


@pytest.mark.parametrize("axiom, agg, subject, sides", [
    (AXIOM_INTERVAL_SCALE, Aggregator(FAMILY_MULTILINEAR, 2), (3,), (4.0, 2.0)),
    (AXIOM_LINEARITY_IN_CAPACITY, Aggregator(FAMILY_VSTAR_PATCH, 3), (), (1.0, 0.5)),
], ids=["multilinear-interval-scale", "vstar-patch-linearity"])
def test_trial_0_is_the_paper_witness(axiom, agg, subject, sides):
    report = reference.CHECKERS[axiom](agg, *subject, 1, 0, 1e-6)
    assert (report.witness.lhs, report.witness.rhs) == sides
    assert_same_outcome(axiom, agg, *subject, 1, 0, 1e-6)
