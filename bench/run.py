"""Benchmark of the choquet package.

    python3 bench/run.py --workload eval-points --seed 1 --seconds 30 --trace 0

Runs one workload (``eval-points``, ``axiom-verdicts`` or ``cli-files``,
see ``workloads.py``) from the ``src/`` tree of the checkout it sits in, as
a closed loop with one caller in one process and one BLAS thread, and
checks every output.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: environment, tail percentile and sample count, error
rate, every set-up and cold-start time and per-kind medians.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Every
time in them is scaled to a reference machine speed by ``SpeedProbe`` of
``measure.py``: a fixed piece of work that uses nothing from the package
runs between operations, outside their timing, about every 100 ms, and
each operation's time is multiplied by ``PROBE_REFERENCE_S`` over the
median probe time around it (set-up and cold starts by the probes just
before and after them).  A shared host alternates between fast stretches
and ones up to half as fast, and without the scaling the share of slow
stretches in a run moved the metrics by more than their bounds.  The
unscaled figures and the probe's median are on the details line.

* ``setup_s``: median over seven repeats of importing the package and
  generating the workload's inputs (numpy is imported once, before);
* ``ops_per_s``: operations divided by the time spent inside them;
* ``op_p50_ms`` and ``op_tail_ms``: the median operation time and the
  highest of the 50th, 90th, 99th, 99.9th, ... percentiles with at least
  ten samples beyond it;
* ``peak_rss_mb``: the process's peak resident memory after the loop;
* ``cold_start_s``: median wall time of sequential fresh
  ``python -m choquet eval`` and ``python -m choquet mobius`` runs on an
  n = 4 file, half of them before the loop and half after it.

The error rate, ``failed / attempted``, is in the details and in the last
line's counts rather than among the metrics: it is 0 whenever the program
is right, and a bound relative to a median of 0 would mean nothing.

``--trace 1`` runs a fixed number of cycles untraced (after one untimed
warm-up pass) and then the same cycles under the tracer of ``spans.py``,
and reports the per-layer metrics:
time, self time and calls per layer, the import costs measured in fresh
processes and ``trace.overhead``, the traced loop's extra time as a share
of the untraced one.  ``--seconds`` does not change a traced run, so its
counts repeat exactly for a given seed.

Without a ``src/choquet`` package next to this directory the benchmark
prints no result and exits with code 2.
"""

from __future__ import annotations

import os

from measure import THREAD_VARIABLES

# One process, one thread: keep BLAS from starting a pool of its own.
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import measure  # noqa: E402
from loop import Gate, run_loop  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 7
# Rounds of one eval and one mobius cold start, before and again after the loop.
COLD_START_REPEATS = 4
MODULES = ("integral", "generate", "setfunction", "axioms", "io", "cli")


def import_package() -> SimpleNamespace:
    """Import the package afresh: drop every loaded ``choquet`` module first."""
    for name in [n for n in sys.modules if n == "choquet" or n.startswith("choquet.")]:
        del sys.modules[name]
    importlib.import_module("choquet")
    return SimpleNamespace(**{m: importlib.import_module(f"choquet.{m}") for m in MODULES})


def timing_metrics(durations) -> tuple[dict, dict]:
    ordered = sorted(d / 1e6 for d in durations)
    q = measure.tail_percentile(len(ordered))
    metrics = {
        "ops_per_s": (len(ordered) / (sum(ordered) / 1e3), "1/s"),
        "op_p50_ms": (measure.percentile(ordered, 50.0), "ms"),
        "op_tail_ms": (measure.percentile(ordered, q), "ms"),
    }
    return metrics, {"tail_percentile": q, "samples": len(ordered)}


def kind_medians(ops, durations) -> dict:
    by_kind: dict[str, list[int]] = {}
    for i, d in enumerate(durations):
        by_kind.setdefault(ops[i % len(ops)].kind, []).append(d)
    return {k: {"count": len(v), "p50_ms": statistics.median(v) / 1e6} for k, v in sorted(by_kind.items())}


def gate(workload, runs) -> Gate:
    checked = Gate(runs)
    workload.check(checked)
    return checked


def cold_start_file(mods, workdir: Path) -> Path:
    path = workdir / "cold-start-n4.json"
    mods.io.dump_document(mods.io.set_function_to_document(mods.generate.random_capacity(4, 0)), path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the choquet package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "choquet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'choquet'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    import numpy  # noqa: F401  (imported once, outside the timed set-up)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return measure_workload(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure_workload(workload, args, workdir: Path) -> int:
    details = {"workload": workload.name, "environment": measure.environment(ROOT, args.seed)}
    errors: list[str] = []
    if args.trace:
        from spans import Tracer

        mods = import_package()
        tracer = Tracer()
        with tracer:
            ops = workload.setup(mods, args.seed % 2**64, workdir)
        cycles = workload.TRACE_CYCLES
        # The first pass warms caches and creates the files; it is not timed.
        _, warm_run = run_loop(ops, cycles=cycles)
        begin = time.perf_counter()
        _, untraced_run = run_loop(ops, cycles=cycles)
        untraced = time.perf_counter() - begin
        with tracer:
            begin = time.perf_counter()
            _, traced_run = run_loop(ops, cycles=cycles, tracer=tracer)
            traced = time.perf_counter() - begin
        checked = gate(workload, [warm_run, untraced_run, traced_run])
        metrics = tracer.layer_metrics()
        imports = measure.import_costs(ROOT, SRC)
        metrics["import.numpy_s"] = (imports["numpy"], "s")
        metrics["import.choquet_s"] = (imports["choquet"], "s")
        metrics["import.axioms_self_s"] = (imports["choquet.axioms"], "s")
        metrics["trace.overhead"] = (traced / untraced - 1.0, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        details.update(cycles=cycles, untraced_s=untraced, traced_s=traced)
    else:
        def set_up():
            mods = import_package()
            return mods, workload.setup(mods, args.seed % 2**64, workdir)

        probe = measure.SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            (mods, ops), elapsed = probe.timed(set_up)
            setup_times.append(elapsed)
        capacity = cold_start_file(mods, workdir)
        cold, errors = measure.cold_start(ROOT, SRC, capacity, COLD_START_REPEATS, probe)
        durations, timed_run = run_loop(ops, seconds=args.seconds, probe=probe)
        rss = measure.peak_rss_mb()
        checked = gate(workload, [timed_run])
        more_cold, more_errors = measure.cold_start(ROOT, SRC, capacity, COLD_START_REPEATS, probe)
        cold, errors = cold + more_cold, errors + more_errors
        metrics, tail = timing_metrics(probe.scaled(durations))
        unscaled, _ = timing_metrics(durations)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        metrics["cold_start_s"] = (statistics.median(cold), "s")
        details.update(tail, cycles=timed_run.cycles, setup_s=setup_times, cold_start_s=cold,
                       unscaled={name: value for name, (value, _) in unscaled.items()},
                       probe_ms={"count": len(probe.times), "p50": statistics.median(probe.times) / 1e6},
                       kinds=kind_medians(ops, durations))

    attempted = checked.attempted
    failed = len(checked.failed)
    details.update(error_rate=failed / attempted, failures=checked.messages + errors)
    for message in checked.messages + errors:
        print(f"gate: {message}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
