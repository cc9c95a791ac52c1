"""The benchmark's own test: each workload at its smallest size, the gate
catching deliberately wrong outputs, repeatable traced counts and the
output contract of ``run.py``.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import measure
import run
import workloads as w
from loop import run_loop
from spans import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    sys.path.insert(0, str(run.SRC))
    return run.import_package()


def run_smallest(workload, mods, tmp_path, cycles=1):
    ops = workload.setup(mods, 5, tmp_path)
    _, record = run_loop(ops, cycles=cycles)
    return ops, record


def failures(workload, record):
    return sorted(run.gate(workload, [record]).failed)


def test_eval_points_smallest_passes_and_gate_catches_wrong_values(mods, tmp_path):
    workload = w.EvalPoints(sizes=(4,))
    ops, record = run_smallest(workload, mods, tmp_path, cycles=2)
    assert record.attempted == 2 * len(ops)
    assert failures(workload, record) == []

    chain = next(i for i, op in enumerate(ops) if op.kind == "choquet/n=4")
    record.first[chain] += 1e-3
    assert failures(workload, record) == [(0, chain), (0, len(ops) + chain)]

    record.first[chain] -= 1e-3
    mobius = next(i for i, op in enumerate(ops) if op.kind == "choquet_mobius/n=4")
    record.deviations[len(ops) + mobius] = -record.first[mobius] - 1.0
    assert failures(workload, record) == [(0, len(ops) + mobius)]


def test_axiom_verdicts_smallest_passes_and_gate_catches_a_wrong_report(mods, tmp_path):
    workload = w.AxiomVerdicts(families=(("choquet", 4),), copies=1, suite=False)
    ops, record = run_smallest(workload, mods, tmp_path)
    assert len(ops) == len(w.AXIOM_NAMES)
    assert failures(workload, record) == []

    record.first[2] = w.digest("a report the reference commit never produced")
    assert failures(workload, record) == [(0, 2)]


def test_suite_gate_rejects_a_deviating_matrix(mods, tmp_path):
    workload = w.AxiomVerdicts(families=(), copies=0, suite=True)
    ops, record = run_smallest(workload, mods, tmp_path)
    assert failures(workload, record) == []
    digest, matches = record.first[0]
    assert matches
    record.first[0] = (digest, False)
    assert failures(workload, record) == [(0, 0)]


def test_cli_files_smallest_passes_and_gate_catches_wrong_outputs(mods, tmp_path):
    workload = w.CliFiles(sets={8: 1})
    ops, record = run_smallest(workload, mods, tmp_path)
    assert [op.info["step"] for op in ops] == list(w.CLI_STEPS)
    assert failures(workload, record) == []

    evaluation = w.CLI_STEPS.index("eval")
    code, stdout, extra = record.first[evaluation]
    record.first[evaluation] = (2, stdout, extra)
    assert failures(workload, record) == [(0, evaluation)]

    record.first[evaluation] = (code, stdout, extra)
    invert = w.CLI_STEPS.index("invert")
    digest = record.first[invert][1]
    doc = json.loads(workload.inverses[digest])
    doc["by_subset"]["1"] += 1e-3
    workload.inverses[digest] = json.dumps(doc)
    assert failures(workload, record) == [(0, invert)]


def test_traced_counts_repeat_and_wrappers_are_removed(mods, tmp_path):
    original = mods.integral.choquet
    counts = []
    for _ in range(2):
        tracer = Tracer()
        workload = w.CliFiles(sets={8: 1})
        with tracer:
            ops = workload.setup(mods, 5, tmp_path)
            assert mods.axioms.choquet is not original
            run_loop(ops, cycles=1, tracer=tracer)
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["io.load_calls"] == 4 and counts[0]["io.emit_calls"] == 3
    assert counts[0]["setfunction.mobius_calls"] == 1 and counts[0]["setfunction.zeta_calls"] == 1
    assert counts[0]["cli.main_calls.eval"] == 2
    assert mods.integral.choquet is original and mods.axioms.choquet is original


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["axioms.checker", 0.0, 10.0, -1, 0],
        ["axioms.evaluate_family", 1.0, 4.0, 0, 0],
        ["integral.choquet", 2.0, 3.0, 1, 0],
    ]
    metrics = tracer.layer_metrics()
    assert metrics["axioms.checker_s"][0] == 10.0
    assert metrics["axioms.checker_self_s"][0] == 7.0
    assert metrics["axioms.evaluate_family_self_s"][0] == 2.0


def test_probe_scales_each_stretch_by_the_probes_around_it():
    probe = measure.SpeedProbe()
    reference = measure.PROBE_REFERENCE_S * 1e9
    probe.positions.extend([0, 10, 20, 30, 40, 50])
    probe.times.extend([int(reference)] * 3 + [int(2 * reference)] * 3)
    scaled = probe.scaled([1000] * 50)
    assert scaled[:10] == [1000.0] * 10
    assert scaled[40:] == [500.0] * 10
    assert scaled[30:40] == [500.0] * 10


def last_line(argv, cwd):
    done = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = last_line(["bench/run.py", "--workload", "eval-points", "--seed", "3",
                        "--seconds", "0.05", "--trace", "0"], run.ROOT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_prints_every_per_layer_metric():
    result = last_line(["bench/run.py", "--workload", "cli-files", "--seed", "3",
                        "--seconds", "1", "--trace", "1"], run.ROOT)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval-points", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
