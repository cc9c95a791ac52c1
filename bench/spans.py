"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the ``choquet`` modules from outside
the package and records one span per call: its name, start, end, the span
that was open when it began (its parent) and the operation it belongs to.
A function is wrapped under every name it is bound to, because ``axioms``
and ``cli`` bind ``choquet``, ``mobius_transform`` and friends through
``from .x import y``; patching only the defining module would miss those
calls.  Construction of ``SetFunction``, ``SignedCapacity`` and
``Capacity`` (validation included) is captured by wrapping the one
``__init__`` the three classes share.

Self time of a span is its duration minus the time covered by its direct
children.  Spans stay in memory and are aggregated once the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name) of every wrapped function.
TARGETS = (
    ("choquet.io", "load_set_function", "io.load"),
    ("choquet.io", "load_mobius", "io.load"),
    ("choquet.io", "set_function_to_document", "io.emit"),
    ("choquet.io", "mobius_to_document", "io.emit"),
    ("choquet.io", "format_document", "io.emit"),
    ("choquet.setfunction", "mobius_transform", "setfunction.mobius"),
    ("choquet.setfunction", "zeta_transform", "setfunction.zeta"),
    ("choquet.setfunction", "unanimity_game", "setfunction.unanimity"),
    ("choquet.integral", "choquet", "integral.choquet"),
    ("choquet.integral", "choquet_mobius", "integral.choquet_mobius"),
    ("choquet.integral", "lovasz_extension", "integral.lovasz"),
    ("choquet.generate", "random_capacity", "generate.random_capacity"),
    ("choquet.generate", "random_signed_capacity", "generate.random_signed_capacity"),
    ("choquet.axioms", "evaluate_family", "axioms.evaluate_family"),
    ("choquet.axioms", "check_comonotonic_additivity", "axioms.checker"),
    ("choquet.axioms", "check_positive_homogeneity", "axioms.checker"),
    ("choquet.axioms", "check_comonotonic_affinity", "axioms.checker"),
    ("choquet.axioms", "check_interval_scale_covariance", "axioms.checker"),
    ("choquet.axioms", "check_zero_on_basis", "axioms.checker"),
    ("choquet.axioms", "check_linearity_in_capacity", "axioms.checker"),
    ("choquet.axioms", "independence_suite", "axioms.suite"),
    ("choquet.cli", "main", "cli.main"),
)

CLI_COMMANDS = ("eval", "mobius", "random-capacity")

# Layers reported with a total time, a self time and a call count.
TIMED_LAYERS = (
    "io.load",
    "io.emit",
    "setfunction.construct",
    "setfunction.mobius",
    "setfunction.zeta",
    "integral.choquet",
    "integral.choquet_mobius",
    "integral.lovasz",
    "generate.random_capacity",
    "generate.random_signed_capacity",
    "axioms.evaluate_family",
    "axioms.checker",
    "axioms.suite",
)


class Tracer:
    """Records spans around calls into the ``choquet`` modules.

    ``install`` patches every binding of the target functions in the loaded
    ``choquet`` modules; ``uninstall`` restores the originals.  ``op`` sets
    the identifier shared by the spans of one benchmark operation.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.op = -1
        self.bytes_read = 0
        self.bytes_written = 0
        self.documents = 0
        self.samples = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _after_load(self, span, args, result):
        self.bytes_read += os.path.getsize(args[0])

    def _after_format(self, span, args, result):
        self.documents += 1
        self.bytes_written += len(result.encode())

    def _after_checker(self, span, args, result):
        self.samples += result.samples_run

    def _after_main(self, span, args, result):
        argv = args[0] if args else []
        span[0] = f"cli.main.{argv[0]}" if argv else "cli.main"

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "choquet" or k.startswith("choquet.")]
        hooks = {
            "load_set_function": self._after_load,
            "load_mobius": self._after_load,
            "format_document": self._after_format,
            "main": self._after_main,
        }
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            after = self._after_checker if name == "axioms.checker" else hooks.get(attr)
            wrapper = self._wrap(name, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        set_function = sys.modules["choquet.setfunction"].SetFunction
        init = set_function.__init__
        set_function.__init__ = self._wrap("setfunction.construct", init)
        self._restore.append((set_function, "__init__", init))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self) -> dict:
        """Totals, self times and counts per layer, computed from the spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1

        metrics: dict[str, tuple[float, str]] = {}
        for layer in TIMED_LAYERS:
            metrics[f"{layer}_s"] = (total.get(layer, 0.0), "s")
            metrics[f"{layer}_self_s"] = (own.get(layer, 0.0), "s")
            metrics[f"{layer}_calls"] = (calls.get(layer, 0), "count")
        # One emit is a document built and formatted: count the formatting.
        metrics["io.emit_calls"] = (self.documents, "count")
        metrics["io.bytes_read"] = (self.bytes_read, "bytes")
        metrics["io.bytes_written"] = (self.bytes_written, "bytes")
        metrics["setfunction.unanimity_calls"] = (calls.get("setfunction.unanimity", 0), "count")
        metrics["axioms.samples"] = (self.samples, "count")
        evals = calls.get("axioms.evaluate_family", 0)
        metrics["axioms.evals_per_sample"] = (evals / self.samples if self.samples else 0.0, "ratio")
        for command in CLI_COMMANDS:
            name = f"cli.main.{command}"
            metrics[f"cli.main_s.{command}"] = (total.get(name, 0.0), "s")
            metrics[f"cli.main_self_s.{command}"] = (own.get(name, 0.0), "s")
            metrics[f"cli.main_calls.{command}"] = (calls.get(name, 0), "count")
        return metrics
