"""Smoke test of the benchmark's contract with the package: every function
the benchmark's tracer wraps exists, and one axiom-verdicts cycle without
the suite (one call of every family and axiom) reproduces the report
digests recorded in bench/golden.json.  The benchmark's own, slower test
is bench/test_bench.py."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import choquet.axioms
import choquet.generate

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from loop import Gate, run_loop  # noqa: E402


@pytest.mark.parametrize("module, attr, span", spans.TARGETS)
def test_every_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_smallest_axiom_verdicts_cycle_passes_its_gate(tmp_path):
    mods = SimpleNamespace(axioms=choquet.axioms, generate=choquet.generate)
    workload = workloads.AxiomVerdicts(families=workloads.AXIOM_FAMILIES, copies=1, suite=False)
    ops = workload.setup(mods, 5, tmp_path)
    _, record = run_loop(ops, cycles=1)
    gate = Gate([record])
    workload.check(gate)
    assert record.attempted == len(workloads.AXIOM_FAMILIES) * len(workloads.AXIOM_NAMES)
    assert not gate.failed, gate.messages
