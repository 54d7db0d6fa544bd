"""Command line front end.

Exit codes: 0 success, 1 verification mismatch, 2 validation error,
3 resource cap exceeded, 141 standard output closed by its reader (as a
shell reports a process that SIGPIPE stopped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .closure import ClosureSpec, closure
from .counting import (
    LATTICE_CAP,
    closed_groups,
    count_brute,
    count_layers,
    count_next_closure,
    iter_closed_sets,  # noqa: F401  unused here, but bench/tracing.py wraps this binding
    lattice,
    reference_sequence,
    sequence,
)
from .errors import CapExceeded
from .intervals import IntervalSet, _interval_texts, _iter_bits, _layer_masks, all_intervals, universe_size
from .posets import SUBFUNCTOR_CAP, ideals, incidence_dimension, load_poset, subfunctor_count

_ALGORITHMS = ("layers", "next-closure", "brute")
_ALGORITHM_HELP = (
    "layers: transfer over layers of intervals (default); next-closure: enumerate every closed set in lectic order; "
    "brute: sweep every subset (n <= 6)"
)
_VERIFY_HELP = "cross-check against the subset sweep (against next-closure for --algorithm brute); n <= 6"
_POSET_CHECKS = ("ideals", "subfunctors", "incidence", "chain")  # the default is every check but chain
_LIST_BATCH = 4096  # least sets per write of ``list``, whole groups


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _verify(algorithm: str, spec: ClosureSpec, terms: Iterable[tuple[int, int]], row: bool) -> int:
    """Cross-check each (n, count) of ``terms``: 1 at the first mismatch, else 0.

    The subset sweep checks the layer transfer and the enumeration; the
    sweep itself is checked against the enumeration.  Past its bit cap the
    sweep raises ``CapExceeded``, and the check ends with one line saying
    it was skipped, as every larger n is past the cap too.  ``row`` names
    n in the lines, as the rows of ``sequence`` need.
    """
    for n, count in terms:
        try:
            if algorithm == "brute":
                other, reference = "next-closure", count_next_closure(n, spec)
            else:
                other, reference = "brute", count_brute(n, spec)
        except CapExceeded as exc:
            print(f"verification skipped{f' for n >= {n}' if row else ''}: {exc}", file=sys.stderr)
            return 0
        if reference != count:
            where = f" at n={n}" if row else ""
            print(f"verification failed{where}: {count} from {algorithm}, {reference} from {other}", file=sys.stderr)
            return 1
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    if args.algorithm == "brute":
        count = count_brute(n, spec)
    elif args.algorithm == "next-closure":
        count = count_next_closure(n, spec)
    else:
        count = count_layers(n, spec)
    if args.verify and _verify(args.algorithm, spec, [(n, count)], row=False):
        return 1
    print(count)
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    """Write the counts of n = 1..n_max as a table, csv, JSON or an OEIS b-file.

    ``--compare`` adds the closed form of each term where one is known: a
    ``ref=`` note on a table line, and the reference and match columns of
    csv, empty where there is none.
    """
    spec = ClosureSpec.parse(args.ops)
    n_max = _positive("--n-max", args.n_max)
    if args.compare and args.format not in ("table", "csv"):
        raise ValueError(f"--compare needs --format table or csv; {args.format} output carries no references")
    terms = list(enumerate(sequence(spec, n_max, args.algorithm), start=1))
    if args.verify and _verify(args.algorithm, spec, terms, row=True):
        return 1
    if args.format == "json":
        doc = {"ops": str(spec), "algorithm": args.algorithm, "terms": [{"n": n, "count": c} for n, c in terms]}
        lines = [json.dumps(doc, sort_keys=True)]
    elif args.format == "oeis":
        lines = [f"{n} {count}" for n, count in terms]
    elif args.format == "csv":
        lines = ["n,count,reference,match" if args.compare else "n,count"]
        for n, count in terms:
            if args.compare:
                ref = reference_sequence(spec, n)
                lines.append(f"{n},{count},," if ref is None else f"{n},{count},{ref},{str(ref == count).lower()}")
            else:
                lines.append(f"{n},{count}")
    else:
        lines = []
        for n, count in terms:
            ref = reference_sequence(spec, n) if args.compare else None
            note = "" if ref is None else f"  ref={ref} {'ok' if ref == count else 'MISMATCH'}"
            lines.append(f"{n:>3} {count}{note}")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


class _LayerTexts(dict):
    """The text of each subset of a layer, keyed by its mask in place, filled on first use.

    Subsets of different layers have disjoint masks, so one table serves
    every layer, with fewer than 2^(n+1) texts: every spec lists at least
    2^n sets (QSCKE, the largest rule set, has 2^n).
    """

    def __init__(self, names: tuple[str, ...], sep: str) -> None:
        super().__init__()
        self.names = names
        self.sep = sep

    def __missing__(self, layer: int) -> str:
        text = self[layer] = self.sep.join([self.names[i] for i in _iter_bits(layer)])
        return text


def cmd_list(args: argparse.Namespace) -> int:
    """Print the closed sets as they are walked, whole groups and at least ``_LIST_BATCH`` sets to a write.

    Both formats are ``head + join.join(texts) + tail``: lines of interval
    texts for text, and for JSON the ``sets`` array of index lists, each
    set's indices joined by ``", "`` and the sets by ``"], ["``.  The walk
    hands out the sets of one last-level parent x as one group, the
    x | top, whose first top is the empty layer.  Every set of a group
    starts with the text of x, the prefix, so the group's text is the
    prefix followed by one join, by ``join + prefix + sep``, of the texts
    of its tops, the empty layer's "" first.  The walk hands out one
    ``tops`` tuple per level and family, so those texts are kept per tuple.
    Layer texts come from one ``_LayerTexts`` table, and the text of the
    layers of x below its last is joined again only when they change: the
    walk is depth first, so sibling groups share it.
    """
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    if args.format == "json":
        names, sep = tuple(map(str, range(universe_size(n)))), ", "
        head, join, tail = f'{{"n": {n}, "ops": {json.dumps(str(spec))}, "sets": [[', "], [", "]]}\n"
    else:
        names, sep = _interval_texts(n), ";"
        head, join, tail = "", "\n", "\n"
    texts = _LayerTexts(names, sep)
    lows = _layer_masks(n - 2)
    below = sum(lows)
    seen = -1
    # top_texts[tops]: the texts of the top layers of a group; texts[0], the empty layer, is ""
    top_texts: dict[tuple[int, ...], list[str]] = {}
    out = sys.stdout
    out.write(head)
    lead = ""
    batch: list[str] = []
    count = 0
    for x, tops in closed_groups(n, spec):
        if x & below != seen:
            seen = x & below
            base = sep.join([text for low in lows if (text := texts[x & low])])
        last = texts[x & ~below]
        prefix = f"{base}{sep}{last}" if base and last else base or last
        items = top_texts.get(tops)
        if items is None:
            items = top_texts[tops] = [texts[top] for top in tops]
        batch.append(prefix + (f"{join}{prefix}{sep}" if prefix else join).join(items))
        count += len(tops)
        if count >= _LIST_BATCH:
            out.write(lead + join.join(batch))
            lead = join
            batch = []
            count = 0
    if batch:
        out.write(lead + join.join(batch))
    out.write(tail)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    s = IntervalSet.from_literal(n, args.set)
    missing = closure(s, spec).mask & ~s.mask
    if missing == 0:
        print("closed")
    else:
        print("not closed")
        print(f"missing: {IntervalSet(n, missing).to_literal()}")
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    """Write the lattice as DOT or JSON, the member texts from one ``_LayerTexts`` table.

    DOT labels join interval names by ``","`` and JSON members join indices
    by ``", "``; the JSON is written by hand in ``sort_keys`` order, as
    ``json.dumps(..., sort_keys=True)`` would print it.
    """
    spec = ClosureSpec.parse(args.ops)
    n = _positive("--n", args.n)
    max_members = _positive("--max-members", args.max_members)
    fam = lattice(n, spec, max_members=max_members)
    if args.format == "json":
        names, sep = tuple(map(str, range(universe_size(n)))), ", "
    else:
        names, sep = tuple(map(str, all_intervals(n))), ","
    texts = _LayerTexts(names, sep)
    lows = _layer_masks(n)
    members = [sep.join([text for low in lows if (text := texts[m & low])]) for m in fam.members]
    if args.format == "json":
        covers = "], [".join([f"{j}, {c}" for j, c in fam.covers])
        sys.stdout.write(
            f'{{"covers": [[{covers}]], "members": [[{"], [".join(members)}]], '
            f'"n": {n}, "ops": {json.dumps(str(spec))}}}\n'
        )
    else:
        nodes = "".join([f'  n{i} [label="{{{text}}}"];\n' for i, text in enumerate(members)])
        edges = "".join([f"  n{j} -> n{c};\n" for j, c in fam.covers])
        sys.stdout.write(f"digraph closed_sets {{\n  rankdir=BT;\n{nodes}{edges}}}\n")
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    p = load_poset(args.file)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in _POSET_CHECKS:
            raise ValueError(f"unknown check {c!r}; available: {', '.join(_POSET_CHECKS)}")
    if "chain" in checks and not p.is_chain():
        raise ValueError("the chain check needs a totally ordered input poset")
    print(f"elements = {len(p)}")
    if "ideals" in checks:
        print(f"ideals = {len(ideals(p))}")
    if "subfunctors" in checks:
        supports = sum(1 << down.bit_count() for down in p.down)
        if supports > SUBFUNCTOR_CAP:
            raise CapExceeded(f"the subfunctor report sweeps {supports} supports, cap is {SUBFUNCTOR_CAP}")
        below = [len(ideals(p, down)) for down in p.down]
        all_match = True
        for x, down_ideals in zip(p.elements, below):
            count = subfunctor_count(p, x)
            match = count == down_ideals
            all_match &= match
            print(f"subfunctors[{x}] = {count} (ideals_below = {down_ideals}, match = {str(match).lower()})")
        print(f"subfunctors_match = {str(all_match).lower()}")
    if "incidence" in checks:
        print(f"incidence_dimension = {incidence_dimension(p)}")
    if "chain" in checks:
        from .oracle import chain_equivalence_check  # here, not at the top: no other command loads the oracle

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
        default=",".join(_POSET_CHECKS[:-1]),
        help=(
            f"comma-separated subset of: {', '.join(_POSET_CHECKS)}; "
            "chain (not in the default) needs a totally ordered poset"
        ),
    )
    q.set_defaults(func=cmd_poset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as SIGPIPE would, and point stdout at
        # devnull so that the interpreter's final flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
