"""The four workloads: their inputs, the timed operations, and the checks.

Each workload plans one round of operations from the seed.  ``run`` is the
only code that is timed; ``digest`` turns an output into a small summary
outside the timer, and ``check`` compares the summaries of a round with
references from ``refs`` (closed forms, duality, a second algorithm, rules
read off the GF(2) oracle).  Program calls made by ``check`` are never
timed.

The seed changes which inputs a round sees but not how much work it is:
the rows, sizes and map counts are fixed, the seed picks the output
formats and the sets queried (and, in ``run.py``, the order of the
operations in every round).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from functools import cache
from itertools import combinations_with_replacement

import intervalcat.cli as cli
import intervalcat.oracle as oracle
from intervalcat.closure import ClosureSpec, build_table
from intervalcat.counting import count_brute, count_next_closure, iter_closed_sets
from intervalcat.intervals import Interval

import refs


class OpFailed(Exception):
    pass


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: intervalcat {' '.join(argv)}")
    return out.getvalue()


def call_cli(argv: list[str]) -> str:
    """One CLI invocation with fresh rule tables, as a shell user pays for it."""
    build_table.cache_clear()
    return cli_output(argv)


class Enumerate:
    """Next-Closure rows through ``intervalcat sequence`` and one ``list``."""

    # (ops, n_max): the rows with no closed form up to where they take about
    # a second, and closed-form rows of similar size.
    ROWS = (("C", 6), ("K", 6), ("CK", 7), ("E", 6), ("QE", 8), ("Q", 7), ("QSE", 10))
    LIST = ("E", 7)
    FORMATS = ("json", "csv", "oeis", "table")

    def plan(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        ops = [("sequence", o, n, rng.choice(self.FORMATS)) for o, n in self.ROWS]
        ops.append(("list", *self.LIST, "json"))
        return ops

    def run(self, op):
        kind, ops, n, fmt = op
        if kind == "sequence":
            return call_cli(["sequence", "--ops", ops, "--n-max", str(n), "--format", fmt])
        return call_cli(["list", "--ops", ops, "--n", str(n), "--format", fmt])

    def digest(self, op, text):
        kind, ops, n, fmt = op
        if kind == "list":
            sets = json.loads(text)["sets"]
            perm = refs.dual_permutation(n)
            masks = {sum(1 << k for k in s) for s in sets}
            self_dual = all(refs.dual_mask(m, perm) in masks for m in masks)
            full = (1 << len(perm)) - 1
            return {"listed": len(sets), "distinct": len(masks), "self_dual": self_dual,
                    "ends": 0 in masks and full in masks}
        if fmt == "json":
            return [t["count"] for t in json.loads(text)["terms"]]
        if fmt == "csv":
            return [int(line.split(",")[1]) for line in text.splitlines()[1:]]
        return [int(line.split()[1]) for line in text.splitlines()]

    def items(self, op, summary) -> int:
        return summary["listed"] if op[0] == "list" else sum(summary)

    def check(self, plan, summaries) -> list[str]:
        errors = []
        rows = {op[1]: s for op, s in zip(plan, summaries) if op[0] == "sequence"}
        for ops, row in rows.items():
            for n, count in enumerate(row, start=1):
                ref = refs.closed_form_row(ops, n)
                if ref is not None and ref != count:
                    errors.append(f"{ops} n={n}: {count}, closed form {ref}")
                if n <= 6 and count != _sweep(n, ops):
                    errors.append(f"{ops} n={n}: {count}, subset sweep {_sweep(n, ops)}")
        if rows["C"] != rows["K"]:
            errors.append(f"C row {rows['C']} differs from its dual K row {rows['K']}")
        for op, s in zip(plan, summaries):
            if op[0] != "list":
                continue
            if not (s["self_dual"] and s["ends"] and s["distinct"] == s["listed"] > 0):
                errors.append(f"list {op[1]} n={op[2]}: {s}")
        return errors


@cache
def _sweep(n: int, ops: str) -> int:
    """The program's subset sweep, an algorithm apart from Next-Closure."""
    return count_brute(n, ClosureSpec.parse(ops))


@cache
def _next_closure(n: int, ops: str) -> int:
    return count_next_closure(n, ClosureSpec.parse(ops))


def _literal(n: int, mask: int) -> str:
    return ";".join(f"{a},{b}" for k, (a, b) in enumerate(refs.intervals(n)) if mask >> k & 1)


def _parse_check(n: int, text: str) -> int:
    """Mask of the missing intervals reported by ``intervalcat check``."""
    lines = text.splitlines()
    if lines == ["closed"]:
        return 0
    if lines[0] != "not closed" or not lines[1].startswith("missing: "):
        raise ValueError(f"unexpected check output {text!r}")
    pairs = re.findall(r"(\d+),(\d+)", lines[1])
    return refs.mask_of(n, [(int(a), int(b)) for a, b in pairs])


class Tables:
    """Counts with small families but large rule tables, plus ``check`` queries."""

    # n = 11 keeps a round near 4 s, so that a run holds several rounds.
    COUNTS = (("QSCKE", 11), ("QSCE", 11), ("QSKE", 11))
    CHECKS = (("CK", 11), ("CKE", 11))

    def plan(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        ops = [("count", o, n, None) for o, n in self.COUNTS]
        for o, n in self.CHECKS:
            size = len(refs.intervals(n))
            ops.append(("check", o, n, sum(1 << k for k in rng.sample(range(size), rng.randint(2, 5)))))
        return ops

    def run(self, op):
        kind, ops, n, mask = op
        if kind == "count":
            return call_cli(["count", "--n", str(n), "--ops", ops])
        return call_cli(["check", "--n", str(n), "--ops", ops, "--set", _literal(n, mask)])

    def digest(self, op, text):
        return int(text) if op[0] == "count" else _parse_check(op[2], text)

    def items(self, op, summary) -> int:
        return summary if op[0] == "count" else 1

    def check(self, plan, summaries) -> list[str]:
        errors = []
        for (kind, ops, n, mask), s in zip(plan, summaries):
            if kind == "count":
                if s != 2**n:
                    errors.append(f"count {ops} n={n}: {s}, expected 2^{n}")
                continue
            if s & mask:
                errors.append(f"check {ops} n={n}: reports present intervals as missing")
            closed = mask | s
            if _query(ops, n, closed) != 0:
                errors.append(f"check {ops} n={n}: set plus its missing intervals is not closed")
            perm = refs.dual_permutation(n)
            dual = refs.dual_mask(mask, perm)
            if dual | _query(ops, n, dual) != refs.dual_mask(closed, perm):
                errors.append(f"check {ops} n={n}: closure of the dual is not the dual of the closure")
        return errors


def _query(ops: str, n: int, mask: int) -> int:
    """Missing intervals by ``intervalcat check``, for the checks: tables stay cached."""
    return _parse_check(n, cli_output(["check", "--n", str(n), "--ops", ops, "--set", _literal(n, mask)]))


class Verify:
    """The subset sweep through ``count --algorithm brute`` and lattice export."""

    SWEEPS = ("C", "K", "CK", "E", "QE", "Q", "QSE", "CKE")
    SWEEP_N = 6
    LATTICES = (("QE", 7), ("CKE", 7), ("QSE", 10), ("C", 5))

    def plan(self, seed: int) -> list[tuple]:
        ops = [("brute", o, self.SWEEP_N) for o in self.SWEEPS]
        return ops + [("lattice", o, n) for o, n in self.LATTICES]

    def run(self, op):
        kind, ops, n = op
        if kind == "brute":
            return call_cli(["count", "--n", str(n), "--ops", ops, "--algorithm", "brute"])
        return call_cli(["lattice", "--n", str(n), "--ops", ops, "--format", "json", "--max-members", "8192"])

    def digest(self, op, text):
        if op[0] == "brute":
            return int(text)
        fam = json.loads(text)
        masks = [sum(1 << k for k in m) for m in fam["members"]]
        strict = all(masks[lo] & ~masks[hi] == 0 and masks[lo] != masks[hi] for lo, hi in fam["covers"])
        return {"members": len(masks), "distinct": len(set(masks)), "covers": len(fam["covers"]),
                "strict": strict}

    def items(self, op, summary) -> int:
        return summary if op[0] == "brute" else summary["members"]

    def check(self, plan, summaries) -> list[str]:
        errors = []
        for (kind, ops, n), s in zip(plan, summaries):
            ref = refs.closed_form_row(ops, n)
            if ref is None:
                ref = _next_closure(n, ops)
            got = s if kind == "brute" else s["members"]
            if got != ref:
                errors.append(f"{kind} {ops} n={n}: {got} closed sets, expected {ref}")
            if kind == "lattice":
                covers = refs.cover_count(ops, n)
                if covers is not None and s["covers"] != covers:
                    errors.append(f"lattice {ops} n={n}: {s['covers']} covers, expected {covers}")
                if not (s["strict"] and s["distinct"] == s["members"]):
                    errors.append(f"lattice {ops} n={n}: {s}")
        return errors


class Certify:
    """Horn rules read off every small GF(2) map at n = 4."""

    N = 4
    MAX_SUMMANDS = 3

    def plan(self, seed: int) -> list[tuple]:
        n = self.N
        ivs = [Interval(a, b) for a, b in refs.intervals(n)]
        mods = {x: oracle.module_of(x, n) for x in ivs}
        nonzero = {(x, y) for x in ivs for y in ivs if oracle.hom_space_dim(mods[x], mods[y])}
        ops = []
        for one in ivs:
            for m in range(1, self.MAX_SUMMANDS + 1):
                for many in combinations_with_replacement(ivs, m):
                    # cokernels of one -> many, kernels of many -> one
                    for kind, srcs, tgts in (("C", (one,), many), ("K", many, (one,))):
                        pairs = [(i, j) for i, x in enumerate(srcs) for j, y in enumerate(tgts)
                                 if (x, y) in nonzero]
                        premise = refs.mask_of(n, [(x.a, x.b) for x in srcs + tgts])
                        for pattern in range(1 << len(pairs)):
                            coeffs = {p: 1 for bit, p in enumerate(pairs) if pattern >> bit & 1}
                            ops.append((kind, list(srcs), list(tgts), coeffs, premise))
        return ops

    def run(self, op):
        kind, srcs, tgts, coeffs, _ = op
        f = oracle.morphism_between_sums(self.N, srcs, tgts, coeffs)
        return oracle.barcode(oracle.cokernel_rep(f) if kind == "C" else oracle.kernel_rep(f))

    def digest(self, op, bars) -> int:
        return refs.mask_of(self.N, [(x.a, x.b) for x in bars]) & ~op[4]

    def items(self, op, summary) -> int:
        return 1

    def useful(self, summaries) -> int:
        return sum(1 for s in summaries if s)

    def check(self, plan, summaries) -> list[str]:
        rules = {"C": {}, "K": {}}
        for op, conclusion in zip(plan, summaries):
            if conclusion:
                side = rules[op[0]]
                side[op[4]] = side.get(op[4], 0) | conclusion
        size = len(refs.intervals(self.N))
        errors = []
        for ops, sides in (("C", ("C",)), ("CK", ("C", "K"))):
            oracle_family = refs.closed_masks(size, *(rules[s] for s in sides))
            engine = {s.mask for s in iter_closed_sets(self.N, ClosureSpec.parse(ops))}
            if oracle_family != engine:
                errors.append(f"{ops} n={self.N}: {len(engine)} enumerated sets, "
                              f"{len(oracle_family)} closed under oracle-read rules")
        schroeder = refs.large_schroeder(self.N)[self.N]
        if len(oracle_family) != schroeder:
            errors.append(f"CK n={self.N}: {len(oracle_family)} members, Schröder number {schroeder}")
        return errors


WORKLOADS = {"enumerate": Enumerate, "tables": Tables, "verify": Verify, "certify": Certify}
