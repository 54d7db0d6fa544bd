"""Command line front end.

Exit codes: 0 success, 1 verification mismatch, 2 validation error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .closure import ClosureSpec, closure
from .counting import (
    BRUTE_CAP_BITS,
    LATTICE_CAP,
    closed_masks,
    count_brute,
    count_layers,
    count_next_closure,
    iter_closed_sets,  # noqa: F401  unused here, but bench/tracing.py wraps this binding
    lattice,
    reference_sequence,
    sequence,
)
from .errors import CapExceeded
from .intervals import IntervalSet, _interval_texts, _iter_bits, universe_size
from .posets import SUBFUNCTOR_CAP, chain_equivalence_check, ideals, incidence_algebra, load_poset, subfunctor_count

_ALGORITHMS = ("layers", "next-closure", "brute")
_ALGORITHM_HELP = (
    "layers: transfer over layers of intervals (default); next-closure: enumerate every closed set in lectic order; "
    "brute: sweep every subset (n <= 6)"
)
_VERIFY_HELP = "cross-check against the subset sweep (against next-closure for --algorithm brute); n <= 6"
_POSET_CHECKS = ("ideals", "subfunctors", "incidence")


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _report_skipped_verification(scope: str, n: int) -> None:
    print(
        f"verification skipped{scope}: the subset sweep at n={n} needs {universe_size(n)} bits, "
        f"cap is {BRUTE_CAP_BITS}",
        file=sys.stderr,
    )


def _cross_check(algorithm: str, n: int, spec: ClosureSpec) -> tuple[str, int]:
    """The cross-check count for ``algorithm``, with the name of the algorithm giving it.

    The subset sweep checks the layer transfer and the enumeration; the
    sweep itself is checked against the enumeration.
    """
    if algorithm == "brute":
        return "next-closure", count_next_closure(n, spec)
    return "brute", count_brute(n, spec)


def cmd_count(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    if args.algorithm == "brute":
        count = count_brute(n, spec)
    elif args.algorithm == "next-closure":
        count = count_next_closure(n, spec)
    else:
        count = count_layers(n, spec)
    if args.verify and universe_size(n) > BRUTE_CAP_BITS:
        _report_skipped_verification("", n)
    elif args.verify:
        other, reference = _cross_check(args.algorithm, n, spec)
        if reference != count:
            print(f"verification failed: {count} from {args.algorithm}, {reference} from {other}", file=sys.stderr)
            return 1
    print(count)
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n_max = _positive("--n-max", args.n_max)
    if args.compare and args.format not in ("table", "csv"):
        raise ValueError(f"--compare needs --format table or csv; {args.format} output carries no references")
    report = sequence(spec, n_max, args.algorithm)
    if args.verify:
        for n, count in report.terms:
            if universe_size(n) > BRUTE_CAP_BITS:
                _report_skipped_verification(f" for n >= {n}", n)
                break
            other, reference = _cross_check(args.algorithm, n, spec)
            if reference != count:
                print(
                    f"verification failed at n={n}: {count} from {args.algorithm}, {reference} from {other}",
                    file=sys.stderr,
                )
                return 1
    if args.format == "csv":
        sys.stdout.write(report.to_csv(reference=args.compare))
    elif args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    elif args.format == "oeis":
        sys.stdout.write(report.to_bfile())
    else:
        for n, count in report.terms:
            line = f"{n:>3} {count}"
            if args.compare:
                ref = reference_sequence(spec, n)
                if ref is not None:
                    line += f"  ref={ref} {'ok' if ref == count else 'MISMATCH'}"
            print(line)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    masks = closed_masks(n, spec)
    if args.format == "json":
        sets = [list(_iter_bits(m)) for m in masks]
        print(json.dumps({"n": n, "ops": str(spec), "sets": sets}, sort_keys=True))
    else:
        texts = _interval_texts(n)
        for m in masks:
            print(";".join(texts[i] for i in _iter_bits(m)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    s = IntervalSet.from_literal(n, args.set)
    closed = closure(s, spec)
    missing = closed - s
    if missing.mask == 0:
        print("closed")
    else:
        print("not closed")
        print(f"missing: {missing.to_literal()}")
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    max_members = _positive("--max-members", args.max_members)
    fam = lattice(n, spec, max_members=max_members)
    if args.format == "json":
        print(json.dumps(fam.to_json_dict(), sort_keys=True))
    else:
        sys.stdout.write(fam.to_dot())
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    p = load_poset(args.file)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in _POSET_CHECKS + ("chain",):
            raise ValueError(f"unknown check {c!r}; available: {', '.join(_POSET_CHECKS + ('chain',))}")
    print(f"elements = {len(p)}")
    if "ideals" in checks:
        print(f"ideals = {len(ideals(p))}")
    if "subfunctors" in checks:
        supports = sum(1 << down.bit_count() for down in p.down)
        if supports > SUBFUNCTOR_CAP:
            raise CapExceeded(f"the subfunctor report sweeps {supports} supports, cap is {SUBFUNCTOR_CAP}")
        below = [len(ideals(p.restrict(down))) for down in p.down]
        all_match = True
        for x, down_ideals in zip(p.elements, below):
            count = subfunctor_count(p, x)
            match = count == down_ideals
            all_match &= match
            print(f"subfunctors[{x}] = {count} (ideals_below = {down_ideals}, match = {str(match).lower()})")
        print(f"subfunctors_match = {str(all_match).lower()}")
    if "incidence" in checks:
        print(f"incidence_dimension = {incidence_algebra(p).dimension}")
    if "chain" in checks:
        if not p.is_chain():
            raise ValueError("the chain check needs a totally ordered input poset")
        print(f"chain_equivalence = {str(chain_equivalence_check(len(p))).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcat",
        description=(
            "Count and enumerate families of intervals closed under chosen operations: "
            "Q quotients, S subobjects, C cokernels, K kernels, E extensions."
        ),
        epilog=(
            "Named families: QSE Serre subcategories (powers of two), CKE thick "
            "subcategories and QE torsion classes and QS (all Catalan), Q pretorsion "
            "classes ((n+1)!), '' plain additive (2^(n(n+1)/2))."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ops(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ops", default="", help="operation flags over QSCKE ('' or 'none' for plain additive)")

    c = sub.add_parser("count", help="count the closed sets for one ambient size")
    c.add_argument("--n", type=int, required=True, help="ambient size")
    add_ops(c)
    c.add_argument("--algorithm", choices=_ALGORITHMS, default="layers", help=_ALGORITHM_HELP)
    c.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    c.set_defaults(func=cmd_count)

    s = sub.add_parser("sequence", help="counts for n = 1..n_max")
    add_ops(s)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--format", choices=("table", "csv", "json", "oeis"), default="table")
    s.add_argument("--algorithm", choices=_ALGORITHMS, default="layers", help=_ALGORITHM_HELP)
    s.add_argument(
        "--compare", action="store_true", help="append closed-form reference values where known (table and csv only)"
    )
    s.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    s.set_defaults(func=cmd_sequence)

    l = sub.add_parser("list", help="print every closed set in lectic order")
    l.add_argument("--n", type=int, required=True)
    add_ops(l)
    l.add_argument("--format", choices=("text", "json"), default="text")
    l.set_defaults(func=cmd_list)

    k = sub.add_parser("check", help="test a set for closedness, reporting what is missing")
    k.add_argument("--n", type=int, required=True)
    add_ops(k)
    k.add_argument("--set", required=True, help="semicolon-separated intervals, e.g. '1,1;2,2'")
    k.set_defaults(func=cmd_check)

    h = sub.add_parser("lattice", help="export the lattice of closed sets")
    h.add_argument("--n", type=int, required=True)
    add_ops(h)
    h.add_argument("--format", choices=("dot", "json"), default="dot")
    h.add_argument("--max-members", type=int, default=LATTICE_CAP)
    h.set_defaults(func=cmd_lattice)

    q = sub.add_parser("poset", help="count ideals and subfunctors of a poset file")
    q.add_argument("--file", required=True)
    q.add_argument(
        "--checks",
        default=",".join(_POSET_CHECKS),
        help=(
            f"comma-separated subset of: {', '.join(_POSET_CHECKS + ('chain',))}; "
            "chain (not in the default) needs a totally ordered poset"
        ),
    )
    q.set_defaults(func=cmd_poset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
