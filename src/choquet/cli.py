"""Command-line front-end.

Commands: eval, mobius, check, independence-suite, random-capacity, and the
ad-hoc oracle subcommand.  Values go to stdout, diagnostics to stderr, and
every invocation is deterministic given its full flag set (seed included).

Exit codes:
    0  success / axiom satisfied / matrix as expected
    1  axiom falsified / independence matrix deviates
    2  unparseable input, a file that cannot be read or written, unknown
       name, invalid parameter, or overflow
    3  point length does not match the ground set
    4  the capacity file is not a game (empty set value nonzero)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import axioms, io, oracle
from .errors import ChoquetError, DimensionMismatch, FileFormatError, NotAGame
from .generate import random_capacity, random_normalized_capacity, random_signed_capacity
from .integral import choquet, lovasz_extension
from .setfunction import (
    mask_from_elements,
    mobius_transform,
    validate_signed_capacity,
    zeta_transform,
)

KIND_SIGNED = "signed"
KIND_MONOTONE = "monotone"
KIND_NORMALIZED = "normalized-monotone"
SUBSET_AXIOMS = (axioms.AXIOM_INTERVAL_SCALE, axioms.AXIOM_ZERO_ON_BASIS)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(doc: dict, out: Optional[str]) -> None:
    if out:
        io.dump_document(doc, out)
    else:
        sys.stdout.write(io.format_document(doc))


def _parse_int_list(flag: str, text: str) -> list[int]:
    elements = []
    for part in text.split(","):
        try:
            elements.append(int(part))
        except ValueError:
            raise FileFormatError(f"{flag} {text!r}: {part!r} is not an integer") from None
    return elements


def cmd_eval(args) -> int:
    f = io.load_set_function(args.capacity)
    point = io.parse_point(args.point)
    if args.lovasz:
        result = lovasz_extension(f, point)
    else:
        result = choquet(f, point)
    permutation = list(result.permutation_used.order)
    if args.format == "json":
        _emit({"value": result.value, "permutation": permutation}, None)
    else:
        print(repr(result.value))
        print("permutation: " + ",".join(str(p) for p in permutation))
    return 0


def cmd_mobius(args) -> int:
    if args.invert:
        m = io.load_mobius(args.capacity)
        doc = io.set_function_to_document(zeta_transform(m))
    else:
        f = io.load_set_function(args.capacity)
        doc = io.mobius_to_document(mobius_transform(f))
    _emit(doc, args.out)
    return 0


def _resolve_check_n(args, capacity, elements) -> int:
    if capacity is not None:
        return capacity.n
    if args.n is not None:
        return args.n
    if elements:
        return max(max(elements), 1)  # an element below 1 is reported with the mask
    raise FileFormatError("one of --capacity, --n or --subset is required to fix the ground set")


def cmd_check(args) -> int:
    if args.subset and args.axiom not in SUBSET_AXIOMS:
        raise FileFormatError(
            f"--subset applies only to the {' and '.join(SUBSET_AXIOMS)} axioms, "
            f"not to {args.axiom}"
        )
    capacity = None
    if args.capacity:
        capacity = validate_signed_capacity(io.load_set_function(args.capacity))
        if args.n is not None and args.n != capacity.n:
            raise FileFormatError(
                f"--n {args.n} conflicts with the capacity file (n = {capacity.n})"
            )
    elements = _parse_int_list("--subset", args.subset) if args.subset else None
    n = _resolve_check_n(args, capacity, elements)
    agg = axioms.Aggregator(args.family, n)

    if args.axiom in SUBSET_AXIOMS:
        if elements is None:
            raise FileFormatError(f"axiom {args.axiom} requires --subset")
        try:
            game_args = [mask_from_elements(elements, n)]
        except ValueError as exc:
            raise FileFormatError(f"--subset {args.subset!r}: {exc}") from None
    elif args.axiom == axioms.AXIOM_LINEARITY_IN_CAPACITY:
        game_args = []
    else:
        game_args = [capacity if capacity is not None else random_signed_capacity(n, args.seed)]
    report = axioms.CHECKERS[args.axiom](agg, *game_args, args.trials, args.seed, args.tolerance)

    if args.format == "json":
        _emit(report.to_dict(), None)
    else:
        print(f"axiom: {report.axiom}")
        print(f"verdict: {report.verdict}")
        print(f"samples_run: {report.samples_run}")
        print(f"seed: {report.seed}")
        print(f"tolerance: {report.tolerance!r}")
        if report.witness is None:
            print("witness: none")
        else:
            print("witness:")
            print(f"  lhs: {report.witness.lhs!r}")
            print(f"  rhs: {report.witness.rhs!r}")
            print(f"  discrepancy: {report.witness.discrepancy!r}")
            print(f"  inputs: {json.dumps(report.witness.inputs)}")
    return 1 if report.falsified else 0


def cmd_independence_suite(args) -> int:
    summary = axioms.independence_suite(args.trials, args.seed, args.paper_witnesses_only)
    if args.format == "json":
        _emit(summary.to_dict(), None)
    else:
        print(summary.format_text())
    if summary.matches_expected:
        return 0
    for cell in summary.deviations():
        print(
            f"deviation: family {cell.family}, condition {cell.condition}, "
            f"falsified={cell.falsified}",
            file=sys.stderr,
        )
    return 1


def cmd_random_capacity(args) -> int:
    generator = {
        KIND_SIGNED: random_signed_capacity,
        KIND_MONOTONE: random_capacity,
        KIND_NORMALIZED: random_normalized_capacity,
    }[args.kind]
    _emit(io.set_function_to_document(generator(args.n, args.seed)), args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_command == "mobius":
        f = io.load_set_function(args.capacity)
        _emit(io.mobius_to_document(oracle.mobius_naive(f)), args.out)
        return 0
    if args.oracle_command == "choquet-perms":
        v = validate_signed_capacity(io.load_set_function(args.capacity))
        values = sorted(oracle.choquet_all_permutations(v, io.parse_point(args.point)))
        if args.format == "json":
            _emit({"values": values, "count": len(values)}, None)
        else:
            for value in values:
                print(repr(value))
            print(f"distinct: {len(values)}")
        return 0
    # affine-check
    f = io.load_set_function(args.capacity)
    order = _parse_int_list("--order", args.order)
    ok = oracle.lovasz_affine_check(f, order, args.trials, args.seed)
    print("affine: " + ("true" if ok else "false"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choquet",
        description="Signed Choquet integrals, Lovasz extensions, Mobius transforms "
        "and axiom checks for set functions on finite ground sets.",
    )
    # metavar hides the ad-hoc oracle subcommand from the listing
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{eval,mobius,check,independence-suite,random-capacity}",
    )

    def add_common(p):
        p.add_argument("--trials", type=_positive_int, default=axioms.DEFAULT_TRIALS,
                       help="number of sampled trials (default 1000)")
        p.add_argument("--seed", type=int, default=axioms.DEFAULT_SEED,
                       help="RNG seed; all sampling is deterministic given it (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = sub.add_parser("eval", help="evaluate the integral of a point")
    p.add_argument("--capacity", required=True, help="set-function JSON file")
    p.add_argument("--point", required=True, help="comma-separated coordinates, e.g. 4,0,2")
    p.add_argument("--lovasz", action="store_true",
                   help="evaluate the Lovasz extension (allows a nonzero empty-set value)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mobius", help="write the Mobius transform of a set-function file")
    p.add_argument("--capacity", required=True, help="set-function JSON file")
    p.add_argument("--invert", action="store_true",
                   help="apply the inverse (zeta) transform instead")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("check", help="run one axiom checker")
    p.add_argument("--axiom", required=True, choices=axioms.AXIOMS)
    p.add_argument("--capacity", help="game to check (random if omitted; see --n)")
    p.add_argument("--n", type=_positive_int, help="ground-set size when no capacity file is given")
    p.add_argument("--subset", help="basis subset for interval-scale / zero-on-basis, e.g. 1,2")
    p.add_argument("--family", choices=axioms.FAMILIES, default=axioms.FAMILY_CHOQUET,
                   help="aggregation family to check (default choquet)")
    p.add_argument("--tolerance", type=float, default=axioms.FALSIFY_TOLERANCE,
                   help="falsification threshold override (default 1e-6)")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("independence-suite",
                       help="run the 3x3 family/condition independence matrix")
    p.add_argument("--paper-witnesses-only", action="store_true",
                   help="replay only the fixed witnesses, no random sampling")
    add_common(p)
    p.set_defaults(func=cmd_independence_suite)

    p = sub.add_parser("random-capacity", help="generate a random set-function file")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--kind", required=True, choices=(KIND_SIGNED, KIND_MONOTONE, KIND_NORMALIZED))
    p.add_argument("--seed", type=int, default=axioms.DEFAULT_SEED)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_random_capacity)

    p = sub.add_parser("oracle")  # ad-hoc brute-force reference runs
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("mobius", help="naive double-loop Mobius transform")
    q.add_argument("--capacity", required=True)
    q.add_argument("--out")
    q = osub.add_parser("choquet-perms", help="integral under every valid sorting permutation")
    q.add_argument("--capacity", required=True)
    q.add_argument("--point", required=True)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q = osub.add_parser("affine-check", help="sampled affineness of the extension on one cone")
    q.add_argument("--capacity", required=True)
    q.add_argument("--order", required=True, help="permutation as comma-separated elements")
    q.add_argument("--trials", type=_positive_int, default=100)
    q.add_argument("--seed", type=int, default=axioms.DEFAULT_SEED)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: point dimension: {exc}", file=sys.stderr)
        return 3
    except NotAGame as exc:
        hint = " (use --lovasz for general set functions)" if args.command == "eval" else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 4
    except (ChoquetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
