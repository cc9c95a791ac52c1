"""The benchmark's three workloads and their correctness gates.

Each workload is a closed loop with one caller: ``setup`` turns the
workload seed into one cycle of operations, the harness runs whole cycles
back to back, and ``check`` judges every recorded output afterwards, so
the gate (oracles included) never runs inside a timed region.  Every
operation looks its entry point up on the module object when it is called,
so the tracer's wrappers see the same calls the timed runs make.

Why these three: each puts most of its time in a different layer.

* ``eval-points``: single integral evaluations; time goes to ``integral``
  (sorting, the chain sum, the Mobius min-form) with the transform done
  once per capacity in setup.
* ``axiom-verdicts``: checker and suite calls; time goes to ``axioms``,
  which re-enters ``integral`` and ``setfunction`` on every sample without
  amortising anything.
* ``cli-files``: in-process CLI calls on files at n = 8, 12 and 16; time
  goes to JSON load/emit in ``io`` and to ``setfunction`` construction and
  transforms.

Outputs whose expected value comes from a reference commit (checker
reports, CLI stdout and files) are compared with digests in
``golden.json``, recorded there by ``record_golden.py`` for pool entries
``0 .. POOL - 1``; the workload seed picks and orders the entries a run
uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
from pathlib import Path
from typing import Callable

import numpy as np

from loop import Gate, Op

POOL = 32
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def digest(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# eval-points
# ---------------------------------------------------------------------------

class EvalPoints:
    """One integral evaluation per operation at n in {4, 8, 12, 16, 20}.

    Per n and cycle: 400 ``choquet`` and 100 ``lovasz_extension`` calls on
    distinct points, and ``choquet_mobius`` calls capped at 50, 25, 10, 4
    and 3 for n = 4, 8, 12, 16 and 20 (9 %, 5 %, 2 %, 0.8 % and 0.6 % of
    that n's operations), because the min-form route costs O(2**n) per point.
    """

    name = "eval-points"
    SIZES = (4, 8, 12, 16, 20)
    CHOQUET = 400
    LOVASZ = 100
    MOBIUS = {4: 50, 8: 25, 12: 10, 16: 4, 20: 3}
    # Chain-route points cross-checked against the Mobius route, per n.
    CROSS_CHECKED = {4: 500, 8: 500, 12: 500, 16: 16, 20: 4}
    ORACLE_POINTS = 64
    # Traced runs repeat a fixed number of cycles so their counts repeat.
    TRACE_CYCLES = 16

    def __init__(self, sizes=SIZES):
        self.sizes = tuple(sizes)

    def setup(self, mods, seed: int, workdir: Path) -> list[Op]:
        integral = mods.integral
        self.mods = mods
        self.inputs = {}
        ops = []
        for n in self.sizes:
            rng = np.random.default_rng([seed, n])
            if n < 20:
                v = mods.generate.random_capacity(n, rng)
            else:
                v = mods.generate.random_signed_capacity(n, rng)
            m = mods.setfunction.mobius_transform(v)
            # Two-decimal coordinates in [-5, 5], so ties occur at larger n.
            points = [
                tuple(row) for row in (rng.integers(-500, 501, (self.CHOQUET + self.LOVASZ, n)) / 100).tolist()
            ]
            self.inputs[n] = (v, m, points)
            for k, x in enumerate(points):
                if k < self.CHOQUET:
                    ops.append(Op(f"choquet/n={n}", lambda v=v, x=x: integral.choquet(v, x).value,
                                  info={"n": n, "point": k}))
                else:
                    ops.append(Op(f"lovasz/n={n}", lambda v=v, x=x: integral.lovasz_extension(v, x).value,
                                  info={"n": n, "point": k}))
            for k in range(self.MOBIUS[n]):
                x = points[k]
                ops.append(Op(f"choquet_mobius/n={n}", lambda m=m, x=x: integral.choquet_mobius(m, x).value,
                              info={"n": n, "point": k}))
        # One interleaving for every seed: each kind's calls are spread evenly
        # over the cycle, so memory is allocated in the same order whatever
        # the inputs and the peak resident size does not change with them.
        by_kind: dict[str, list[Op]] = {}
        for op in ops:
            by_kind.setdefault(op.kind, []).append(op)
        spread = sorted(
            ((j + 0.5) / len(group), k, op)
            for k, group in enumerate(by_kind.values())
            for j, op in enumerate(group)
        )
        return [op for _, _, op in spread]

    def check(self, gate: Gate) -> None:
        integral = self.mods.integral
        from choquet import oracle

        chain: dict = {}
        mobius: dict = {}
        for index, op, value in gate.first_outputs():
            n, k = op.info["n"], op.info["point"]
            v, m, points = self.inputs[n]
            x = points[k]
            if op.kind.startswith("choquet_mobius"):
                if (n, k) not in chain:
                    chain[n, k] = integral.choquet(v, x).value
                if not close(value, chain[n, k]):
                    gate.fail_all(index, f"Mobius route {value!r} vs chain route {chain[n, k]!r}")
                continue
            if k < self.CROSS_CHECKED[n]:
                if (n, k) not in mobius:
                    mobius[n, k] = integral.choquet_mobius(m, x).value
                if not close(value, mobius[n, k]):
                    gate.fail_all(index, f"chain route {value!r} vs Mobius route {mobius[n, k]!r}")
            if n == 4 and k < self.ORACLE_POINTS:
                exact = oracle.choquet_all_permutations(v, x)
                if not all(close(value, e) for e in exact):
                    gate.fail_all(index, f"{value!r} vs oracle {sorted(exact)!r}")


# ---------------------------------------------------------------------------
# axiom-verdicts
# ---------------------------------------------------------------------------

AXIOM_FAMILIES = (("choquet", 4), ("choquet", 8), ("weighted-mean", 4), ("multilinear", 4))
AXIOM_NAMES = (
    "comonotonic-additivity",
    "positive-homogeneity",
    "comonotonic-affinity",
    "interval-scale",
    "zero-on-basis",
    "linearity-in-capacity",
)
# Trials give every checker call about the same number of evaluations, so
# satisfied checks cost alike whatever the axiom; linearity evaluates the
# game and all 2**n - 1 unanimity games per trial.
EVALUATIONS_PER_CALL = 600
EVALUATIONS_PER_TRIAL = {
    "comonotonic-additivity": 3,
    "positive-homogeneity": 2,
    "comonotonic-affinity": 3,
    "interval-scale": 2,
    "zero-on-basis": 1,
}
SUITE_TRIALS = 1000


def checker_call(mods, family: str, n: int, axiom: str, p: int) -> Callable[[], object]:
    """The checker call of pool entry p; its inputs depend on p alone."""
    axioms = mods.axioms
    agg = axioms.Aggregator(family, n)
    trials = max(1, EVALUATIONS_PER_CALL // EVALUATIONS_PER_TRIAL.get(axiom, 1 << n))
    if axiom in ("interval-scale", "zero-on-basis"):
        # At least two elements: on singletons the weighted-mean and
        # multilinear families satisfy these conditions, and a verdict that
        # changed with the seed would move the operation's cost class too.
        subsets = [mask for mask in range(1, 1 << n) if mask.bit_count() >= 2]
        subset = subsets[(p * 7919) % len(subsets)]
        name = "check_interval_scale_covariance" if axiom == "interval-scale" else "check_zero_on_basis"
        return lambda: getattr(axioms, name)(agg, subset, trials, p)
    if axiom == "linearity-in-capacity":
        return lambda: axioms.check_linearity_in_capacity(agg, trials, p)
    v = mods.generate.random_signed_capacity(n, 1000 + p)
    name = "check_" + axiom.replace("-", "_")
    return lambda: getattr(axioms, name)(agg, v, trials, p)


def suite_call(mods, p: int) -> Callable[[], object]:
    return lambda: mods.axioms.independence_suite(SUITE_TRIALS, p)


def report_digest(report) -> str:
    return digest(json.dumps(report.to_dict(), sort_keys=True))


class AxiomVerdicts:
    """One checker or suite call per operation.

    A cycle holds one ``independence_suite(1000, seed)`` call and two calls
    of each of the 24 checkers: all six axioms for the ``choquet`` family at
    n = 4 and 8 and for ``weighted-mean`` and ``multilinear`` at n = 4, each
    with trials for about 600 evaluations.  Satisfied checks run every
    trial; falsified ones stop at the first witness.
    """

    name = "axiom-verdicts"
    COPIES = 2
    TRACE_CYCLES = 1

    def __init__(self, families=AXIOM_FAMILIES, copies=COPIES, suite=True):
        self.families = tuple(families)
        self.copies = copies
        self.suite = suite

    def setup(self, mods, seed: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        ops = []
        for family, n in self.families:
            for axiom in AXIOM_NAMES:
                for p in rng.choice(POOL, self.copies, replace=False).tolist():
                    ops.append(Op(f"{family}/n={n}/{axiom}", checker_call(mods, family, n, axiom, p),
                                  post=report_digest, info={"key": f"{family}/{n}/{axiom}/{p}"}))
        if self.suite:
            p = int(rng.integers(POOL))
            ops.append(Op("independence-suite", suite_call(mods, p), post=self._suite_output,
                          info={"key": f"suite/{p}"}))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    @staticmethod
    def _suite_output(summary):
        return report_digest(summary), summary.matches_expected

    def check(self, gate: Gate) -> None:
        golden = load_golden()["axiom-verdicts"]
        for index, op, output in gate.first_outputs():
            key = op.info["key"]
            if op.kind == "independence-suite":
                output, matches = output
                if not matches:
                    gate.fail_all(index, "independence matrix deviates from the expected pattern")
            if output != golden.get(key):
                gate.fail_all(index, f"report digest {output} differs from the recorded {golden.get(key)}")


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

CLI_STEPS = ("random-capacity", "mobius", "invert", "eval", "lovasz")


def cli_point(n: int, p: int) -> str:
    coords = np.random.default_rng([p, n, 7]).integers(-500, 501, n) / 100
    return ",".join(f"{c:.2f}" for c in coords)


def cli_argvs(n: int, p: int, workdir: Path) -> dict[str, list[str]]:
    """The five CLI invocations of pool entry p at size n, in run order."""
    cap = str(workdir / f"n{n}-p{p}-capacity.json")
    mob = str(workdir / f"n{n}-p{p}-mobius.json")
    point = cli_point(n, p)
    return {
        "random-capacity": ["random-capacity", "--n", str(n), "--kind", "monotone",
                            "--seed", str(p), "--out", cap],
        "mobius": ["mobius", "--capacity", cap, "--out", mob],
        "invert": ["mobius", "--invert", "--capacity", mob],
        # "=" keeps argparse from reading a leading minus sign as an option.
        "eval": ["eval", "--capacity", cap, f"--point={point}"],
        "lovasz": ["eval", "--lovasz", "--capacity", cap, f"--point={point}"],
    }


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_output(argv: list[str], result) -> tuple:
    """Exit code, stdout digest and, for --out commands, the file's digest."""
    code, stdout = result
    if "--out" in argv:
        return code, digest(stdout), digest(Path(argv[argv.index("--out") + 1]).read_bytes())
    return code, digest(stdout), None


class CliFiles:
    """One in-process ``cli.main`` call per operation on files at n = 8, 12, 16.

    A set is the five calls on one pool entry: ``random-capacity --out``
    and ``mobius --out`` write, ``mobius --invert``, ``eval`` and
    ``eval --lovasz`` read.  A cycle holds one set at n = 16, eight at
    n = 12 and six at n = 8 (75 calls), so the median falls among the
    n = 12 reads and the n = 16 calls take most of the time.
    """

    name = "cli-files"
    SETS = {16: 1, 12: 8, 8: 6}
    # Mobius files cross-checked against the naive O(3**n) transform, per n.
    NAIVE_CHECKED = {8: 6, 12: 2}
    TRACE_CYCLES = 1

    def __init__(self, sets=None):
        self.sets = dict(sets or self.SETS)

    def setup(self, mods, seed: int, workdir: Path) -> list[Op]:
        self.mods = mods
        self.inverses: dict[str, str] = {}
        rng = np.random.default_rng([seed, 3])
        ops = []
        for n, count in self.sets.items():
            for p in rng.choice(POOL, count, replace=False).tolist():
                argvs = cli_argvs(n, p, workdir)
                capacity = argvs["random-capacity"][-1]
                for step in CLI_STEPS:
                    argv = argvs[step]
                    ops.append(Op(f"{step}/n={n}", lambda argv=argv: run_cli(mods.cli, argv),
                                  post=self._keep_inverse if step == "invert" else
                                  lambda result, argv=argv: cli_output(argv, result),
                                  info={"n": n, "p": p, "step": step, "argv": argv,
                                        "capacity": capacity}))
        # Sets run in a seeded order; the five calls of a set stay in order.
        sets = [ops[i:i + len(CLI_STEPS)] for i in range(0, len(ops), len(CLI_STEPS))]
        return [op for i in rng.permutation(len(sets)) for op in sets[i]]

    def _keep_inverse(self, result) -> tuple:
        """Keep one copy of each distinct inverse-transform text for the
        round-trip check; the recorded output holds only its digest."""
        output = cli_output([], result)
        self.inverses.setdefault(output[1], result[1])
        return output

    def check(self, gate: Gate) -> None:
        from choquet import oracle

        golden = load_golden()["cli-files"]
        naive_left = dict(self.NAIVE_CHECKED)
        for index, op, (code, stdout, extra) in gate.first_outputs():
            n, p, step, argv = op.info["n"], op.info["p"], op.info["step"], op.info["argv"]
            if code != 0:
                gate.fail_all(index, f"exit code {code}")
            expected = golden.get(f"{n}/{p}/{step}")
            got = [stdout, extra] if "--out" in argv else [stdout]
            if got != expected:
                gate.fail_all(index, f"digests {got} differ from the recorded {expected}")
            if step == "invert":
                capacity = json.loads(Path(op.info["capacity"]).read_text())
                inverted = json.loads(self.inverses[stdout])
                a, b = capacity["by_subset"], inverted["by_subset"]
                if a.keys() != b.keys() or not all(close(a[k], b[k]) for k in a):
                    gate.fail_all(index, "mobius --invert does not reproduce the capacity")
            if step == "mobius" and naive_left.get(n, 0) > 0:
                naive_left[n] -= 1
                f = self.mods.io.load_set_function(op.info["capacity"])
                fast = json.loads(Path(argv[-1]).read_text())["by_subset"]
                reference = oracle.mobius_naive(f).coefficients
                if not all(close(c, r) for c, r in zip(fast.values(), reference)):
                    gate.fail_all(index, "fast Mobius transform differs from the naive one")


WORKLOADS = {w.name: w for w in (EvalPoints, AxiomVerdicts, CliFiles)}
