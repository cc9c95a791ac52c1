"""The closed loop that runs a workload's operations, and the gate's record.

One caller runs whole cycles of operations back to back; ``post`` hooks
and the gate run outside the timed region.  Every cycle must reproduce the
outputs of cycle one, so the loop keeps cycle one and the differences only.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Op:
    """One operation: ``call`` is timed, ``post`` turns its result into the
    recorded output outside the timed region."""

    kind: str
    call: Callable[[], object]
    post: Optional[Callable[[object], object]] = None
    info: dict = field(default_factory=dict)


class OpError:
    """Recorded in place of an output when an operation raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.message!r})"


class Run:
    """What a loop leaves for the gate: the outputs of cycle one and every
    later output that differs from them.  Keeping only these holds the
    loop's own memory to one cycle, however many cycles run."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.cycles = 0
        self.first: list = [None] * len(ops)
        self.deviations: dict[int, object] = {}

    @property
    def attempted(self) -> int:
        return self.cycles * len(self.ops)


def run_loop(ops: list[Op], seconds=None, cycles=None, tracer=None, probe=None):
    """Run whole cycles of ops until ``seconds`` have passed or ``cycles``
    are done.  Returns per-operation durations (ns) and the Run record.
    A ``probe`` (``measure.SpeedProbe``) runs between operations, outside
    their timing, whenever one is due, and once more after the last."""
    clock = time.perf_counter_ns
    durations = array("q")
    record = Run(ops)
    first, deviations = record.first, record.deviations
    started = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(durations)
            if probe is not None:
                probe.between(len(durations))
            begin = clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                durations.append(clock() - begin)
                result = OpError(exc)
            else:
                durations.append(clock() - begin)
                if op.post is not None:
                    result = op.post(result)
            if record.cycles == 0:
                first[index] = result
            elif isinstance(result, OpError) or result != first[index]:
                deviations[len(durations) - 1] = result
        record.cycles += 1
        if cycles is not None:
            if record.cycles >= cycles:
                break
        elif time.perf_counter() - started >= seconds:
            break
    if probe is not None:
        probe.between(len(durations), force=True)
    return durations, record


class Gate:
    """Failed executions of one or more runs of the same ops."""

    def __init__(self, runs: list[Run]):
        self.runs = runs
        self.ops = runs[0].ops
        self.failed: set[tuple[int, int]] = set()
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(run.attempted for run in self.runs)

    def fail(self, run: int, execution: int, message: str) -> None:
        if (run, execution) not in self.failed:
            self.failed.add((run, execution))
            if len(self.messages) < 20:
                kind = self.ops[execution % len(self.ops)].kind
                self.messages.append(f"{kind} (execution {execution}): {message}")

    def fail_all(self, index: int, message: str) -> None:
        for r, run in enumerate(self.runs):
            for execution in range(index, run.attempted, len(self.ops)):
                self.fail(r, execution, message)

    def first_outputs(self):
        """Fail every execution that raised or did not reproduce cycle one,
        then yield (op index, op, output) for the workload's own checks."""
        reference = self.runs[0].first
        for r, run in enumerate(self.runs):
            for execution, output in run.deviations.items():
                detail = output.message if isinstance(output, OpError) else f"{output!r}"
                self.fail(r, execution, f"{detail} differs from cycle one")
            for index, output in enumerate(run.first):
                if output != reference[index]:
                    self.fail(r, index, f"{output!r} differs from the first run")
        for index, op in enumerate(self.ops):
            output = reference[index]
            if isinstance(output, OpError):
                self.fail_all(index, output.message)
            else:
                yield index, op, output
