"""Statistics, environment facts and the measurements made in fresh processes."""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# Highest percentile with at least ten samples beyond it, from this ladder.
TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reported times are scaled to a machine on which one speed probe takes
# this long; it is about the probe's median on a 2-vCPU Xeon sandbox.
PROBE_REFERENCE_S = 0.0055
# A probe runs between operations once this long has passed since the last.
PROBE_INTERVAL_NS = 100_000_000
# A stretch between two probes is scaled by the median of this many probes
# on either side of it.
PROBE_WINDOW = 2


class SpeedProbe:
    """The machine's current speed, read from a fixed piece of work.

    A shared host runs the benchmark fast for some seconds and up to half as
    fast for others, and how much of a run falls into slow stretches
    changes from run to run.  The probe does the same interpreter and small
    numpy work every time (arithmetic, sorting, seeding generators, small
    array operations, which is what the package spends its time on) and
    uses nothing from the package, so its time moves with the machine only.
    Timed between operations, it gives each stretch of the run a local
    speed; ``scale`` turns that into the factor that converts a time
    measured in the stretch into one on the reference machine.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.positions = array("q")  # operations finished before each probe
        self.times = array("q")  # probe durations (ns)
        self.last = -PROBE_INTERVAL_NS

    def work(self) -> float:
        total = 0
        for i in range(20000):
            total += i * i
        for i in range(200):
            total += sorted(((i * 7919) % 101, 3, i % 5, 8, (i * 31) % 17))[2]
        np = self.np
        grid = np.arange(8.0)
        acc = float(total)
        for t in range(100):
            x = np.random.default_rng([12345, t]).uniform(-1.0, 1.0, 8)
            order = np.argsort(-x, kind="stable")
            acc += float(np.interp(0.3, np.sort(x), grid)) + float(x[order] @ x)
        return acc

    def probe_ns(self) -> int:
        """Time one probe.  The collector stays off during it, so garbage
        the operations left behind is not collected on the probe's clock."""
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter_ns()
        self.work()
        end = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.last = end
        return end - begin

    def between(self, position: int, force: bool = False) -> None:
        """Probe before operation ``position`` if one is due."""
        if force or time.perf_counter_ns() - self.last >= PROBE_INTERVAL_NS:
            self.times.append(self.probe_ns())
            self.positions.append(position)

    def timed(self, call):
        """Run ``call`` between two probes; return its result and its
        duration (s) scaled to the reference machine by their mean."""
        before = self.probe_ns()
        begin = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - begin
        after = self.probe_ns()
        return result, elapsed * PROBE_REFERENCE_S * 2e9 / (before + after)

    def scale(self, position: int) -> float:
        """Factor for a time measured at operation ``position``: the
        reference probe time over the median of the probes around it."""
        j = bisect.bisect_right(self.positions, position)
        nearby = self.times[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW]
        return PROBE_REFERENCE_S * 1e9 / statistics.median(nearby)

    def scaled(self, durations) -> list[float]:
        """Each duration scaled by the probes around its operation."""
        out: list[float] = []
        start = 0
        for stop in [*self.positions, len(durations)]:
            if stop > start:
                factor = self.scale(start)
                out.extend(d * factor for d in durations[start:stop])
                start = stop
        return out


def percentile(ordered: list, q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def _run(argv: list[str], root: Path, src: Path, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=root, env=child_env(src), capture_output=True,
                          text=True, timeout=timeout)


def cold_start(root: Path, src: Path, capacity: Path, repeats: int,
               probe: SpeedProbe) -> tuple[list[float], list[str]]:
    """Wall times of sequential fresh ``python -m choquet`` eval and mobius
    runs, each scaled by the probes just before and after it."""
    commands = (
        ["eval", "--capacity", str(capacity), "--point", "0.5,-1.25,2,3"],
        ["mobius", "--capacity", str(capacity)],
    )
    times, errors = [], []
    for _ in range(repeats):
        for command in commands:
            done, elapsed = probe.timed(lambda: _run([sys.executable, "-m", "choquet", *command], root, src))
            times.append(elapsed)
            if done.returncode != 0 or not done.stdout:
                errors.append(f"cold start {command[0]}: exit {done.returncode}: {done.stderr.strip()}")
    return times, errors


def import_costs(root: Path, src: Path, repeats: int = 3) -> dict:
    """Medians from ``python -X importtime -c 'import choquet'`` in fresh
    processes run one at a time: numpy's cumulative time, the package's
    cumulative time (numpy included) and the self time of choquet.axioms."""
    samples: dict[str, list[float]] = {"numpy": [], "choquet": [], "choquet.axioms": []}
    for _ in range(repeats):
        done = _run([sys.executable, "-X", "importtime", "-c", "import choquet"], root, src)
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "choquet.axioms":
                samples[name].append(int(parts[0]) / 1e6)
            elif name in samples:
                samples[name].append(int(parts[1]) / 1e6)
    return {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy < 1.25 has no dict mode; the fact is informational
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
