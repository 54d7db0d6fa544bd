"""Closure operations on interval sets: rule generation and saturation.

A selection of the five operations Q (quotients), S (subobjects),
C (cokernels), K (kernels), E (extensions) induces a finite set of Horn
rules on intervals: whenever all premises of a rule belong to a set, its
conclusions must too.  A set is closed under an operation when applying
it to maps between finite direct sums of members only produces sums of
members.  Checking one or two indecomposables per rule is enough:
quotients and subobjects of sums reduce to single summands, extensions to
extensions of one interval by another, and cokernels and kernels as
follows.

- Several sources reduce to one.  For a map X1 + X2 -> Y,
  coker(X1 + X2 -> Y) = coker(X2 -> coker(X1 -> Y)), the second map being
  X2 -> Y followed by the projection; by induction on the number of source
  summands, closure under cokernels of maps from a single interval into
  sums of members gives closure under all cokernels.
- One source x = [a, b] reduces to strictly nested targets.  A target
  summand on which the map vanishes splits off the cokernel unchanged.
  Every other target y = [c, d] has a <= c <= b <= d, and two of them admit
  a map y_i -> y_j exactly when c_i <= c_j and d_i <= d_j.  The composite
  x -> y_i -> y_j is then the component x -> y_j (up to a nonzero scalar),
  so the shear automorphism of the target that subtracts it clears that
  component and leaves the cokernel unchanged.  What survives is a chain
  c_1 < ... < c_k <= b <= d_k < ... < d_1, and k such targets need
  n >= 2k - 1: at most two for n <= 4, at most three for n <= 6.  The
  cokernel of such a chain is [b+1, d_k] (zero when b = d_k) plus the
  [c_{j+1}, d_j] for j < k, each a summand of the cokernel of
  x -> y_j + y_{j+1}.
- Kernels follow by duality: ker(X -> Y1 + Y2) = ker(ker(X -> Y1) -> Y2)
  reduces several targets to one, and the order-reversing involution turns
  the nested-target argument into a nested-source one.

Generation follows these reductions.  Two-target cokernel and two-source
kernel rules are emitted only for strictly nested pairs: a non-nested pair
reduces by a shear to the single-target (single-source) rule.  There are
no C rules under Q, as a cokernel of a map into a sum is a quotient of
that sum and quotients of sums reduce to single summands, and dually no K
rules under S.  Q with K implies S, since a subobject X' of X is the
kernel of X -> X/X' and X/X' is a quotient of X; dually C with S implies
Q, since X/X' is the cokernel of X' -> X.  So S is added to Q with K and Q
to C with S before C is dropped under Q and K under S.  The flags left are
the essential flags F; C or K is in F only when neither Q nor S is.  A rule
that F derives from other rules is skipped:

- R1. Two-target cokernel rules only when F = {C}.  For x = [a, b] into
  y1 = [c1, d1] strictly containing y2 = [c2, d2] the cokernel is
  coker(x -> y2) plus [c2, d1], and [c2, d1] is coker(ker(x -> y2) -> y1)
  with ker(x -> y2) = [a, c2-1] (K), or a middle summand of the extension
  of coker(x -> y1) = [b+1, d1] by y2 (E).  Dually, two-source kernel
  rules only when F = {K}, with C or E in place of K or E.
- R2. One-source kernel rules y = [c, d] -> x = [a, b] with d < b only
  without E.  Their kernel [c, a-1] is that of y -> [a, d], and [a, d] is
  the second middle summand of the extension of x by y.
- R3. Dually, one-target cokernel rules x = [a, b] -> y = [c, d] with
  a < c only without E: [b+1, d] is coker([c, b] -> y), and [c, b] is the
  second middle summand of the extension of y by x.
- R4. Extensions with two middle summands only without Q and S.  With
  lower term [a, b] and upper term [a', b'] the middle is
  [a, b'] + [a', b].  [a', b] is a quotient of the lower term (Q) or a
  subobject of the upper (S); [a, b'] is the one middle summand of the
  extension of [b+1, b'], a quotient of the upper term, by the lower (Q),
  or of the upper term by [a, a'-1], a subobject of the lower (S).

Every derivation ends in rules that are never skipped: Q and S rules,
extensions with one middle summand, and one-target cokernel (one-source
kernel) rules with equal starts (ends).  R2 and R3 use a two-summand
extension, and R1 uses one-target cokernel, one-source kernel and
extension rules, each generated or derived by R2 to R4.  Each of them
applies only with C or K in F, so with neither Q nor S, where R4
generates the two-summand extensions.  No skipped rule is derived from
itself.

Generation walks the endpoint ranges where rules exist, for x = [a, b] in
index order, and builds no Interval: [c, d] is bit d(d-1)/2 + c - 1.  Q
concludes [c, b] for a < c <= b, one run of layer b; S concludes [a, d]
for d < b.  E takes the upper terms [a', b'] with a < a' <= b + 1 and
b < b' to [a, b'], plus [a', b] when a' <= b and R4 allows it.  C takes
the targets [c, d] with a <= c <= b <= d in index order, c = a only under
R3, to [b+1, d], and under R1 each with every [c', d'] with a <= c' < c
and d < d', to [c, d'] as well; K is the dual.  A test checks the list,
order included, against one read off the endpoint formulas pair by pair.

These bounds are what the acceptance suite's oracle certificate relies on:
for n <= 5 it compares the C and CK closed families with those of Horn
rules read off the GF(2) oracle for every map with one source and at most
three targets (and, for kernels, at most three sources and one target).

Rules are (premise mask, conclusion mask) pairs over canonical interval
indices from generation to table; instances with equal premises are
merged into one rule.  The closure of a set is the least fixed point of
the rule system, computed by sweeping the rule list over a bitmask until
a sweep adds nothing (``RuleTable.closure``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .intervals import IntervalSet, universe_size
from .intervals import (  # noqa: F401  unused here, but bench/tracing.py wraps these bindings
    all_intervals,
    cokernel_pair,
    cokernel_single,
    ext_middle,
    hom_dim,
    kernel_pair,
    kernel_single,
    quotients,
    subobjects,
)

FLAG_ORDER = "QSCKE"
_DUAL_FLAG = {"Q": "S", "S": "Q", "C": "K", "K": "C", "E": "E"}


@dataclass(frozen=True)
class ClosureSpec:
    """A subset of the operation flags {Q, S, C, K, E}."""

    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        bad = set(self.flags) - set(FLAG_ORDER)
        if bad:
            raise ValueError(f"unknown operation flags {sorted(bad)}; allowed: {FLAG_ORDER}")

    @classmethod
    def parse(cls, text: str) -> "ClosureSpec":
        """Case-insensitive, order-insensitive; '' or 'none' is the empty spec."""
        text = text.strip()
        if text.lower() in ("", "none"):
            return cls(frozenset())
        flags = set()
        for ch in text:
            up = ch.upper()
            if up not in FLAG_ORDER:
                raise ValueError(f"invalid operation {ch!r}: allowed alphabet is {FLAG_ORDER}")
            flags.add(up)
        return cls(frozenset(flags))

    def dual(self) -> "ClosureSpec":
        """Swap Q with S and C with K; E is self-dual."""
        return ClosureSpec(frozenset(_DUAL_FLAG[f] for f in self.flags))

    def __str__(self) -> str:
        return "".join(f for f in FLAG_ORDER if f in self.flags)

    def __repr__(self) -> str:
        return f"ClosureSpec({str(self)!r})"


def _essential_flags(spec: ClosureSpec) -> frozenset:
    """The spec's flags, normalised without changing any closed set.

    S is added under Q with K and Q under C with S; then C is dropped under
    Q and K under S.  A subobject X' of X is the kernel of X -> X/X', and
    X/X' is a quotient of X, so closure under Q and K implies closure under
    S; dually, X/X' is the cokernel of X' -> X, so C with S implies Q.
    Quotient closure implies cokernel closure and subobject closure implies
    kernel closure.  Afterwards C or K is left only when neither Q nor S is.
    """
    flags = set(spec.flags)
    if {"Q", "K"} <= flags:
        flags.add("S")
    if {"C", "S"} <= flags:
        flags.add("Q")
    if "Q" in flags:
        flags.discard("C")
    if "S" in flags:
        flags.discard("K")
    return frozenset(flags)


def rule_instances(n: int, spec: ClosureSpec) -> list[tuple[int, int]]:
    """A finite rule set whose closure operator is that of (n, spec).

    Only the instances the module docstring's reductions leave are
    generated, by walking the endpoint ranges where each rule exists.
    Conclusions never meet premises, and instances with equal premises are
    merged, whatever their operations.
    """
    universe_size(n)
    flags = _essential_flags(spec)
    merged: dict[int, int] = {}

    def add(prem: int, conc: int) -> None:
        merged[prem] = merged.get(prem, 0) | conc

    # Interval [a, b] has canonical index b(b-1)/2 + a - 1, so row[b] + a.
    row = [b * (b - 1) // 2 - 1 for b in range(n + 2)]
    xs = [(a, b, 1 << row[b] + a) for b in range(1, n + 1) for a in range(1, b + 1)]
    if "Q" in flags:
        for a, b, x in xs:
            if a < b:
                add(x, ((1 << b - a) - 1) << row[b] + a + 1)
    if "S" in flags:
        for a, b, x in xs:
            if a < b:
                add(x, sum(1 << row[d] + a for d in range(a, b)))
    if "E" in flags:
        split_middles = flags.isdisjoint("QS")  # R4
        for a, b, lower in xs:
            for bp in range(b + 1, n + 1):
                y = 1 << row[bp] + a
                if split_middles:
                    for ap in range(a + 1, b + 1):
                        add(lower | 1 << row[bp] + ap, y | 1 << row[b] + ap)
                add(lower | 1 << row[bp] + b + 1, y)
    if "C" in flags:
        any_start = "E" not in flags  # R3
        pairs = flags == {"C"}  # R1
        for a, b, x in xs:
            for d in range(b, n + 1):
                coker = 1 << row[d] + b + 1 if d > b else 0
                for c in range(a, b + 1 if any_start else a + 1):
                    y1 = x | 1 << row[d] + c
                    if coker:
                        add(y1, coker)
                    if pairs:
                        for d2 in range(d + 1, n + 1):
                            for c2 in range(a, c):
                                add(y1 | 1 << row[d2] + c2, 1 << row[d2] + c | coker)
    if "K" in flags:
        any_end = "E" not in flags  # R2
        pairs = flags == {"K"}  # R1
        for a, b, x in xs:
            for d in range(a if any_end else b, b + 1):
                for c in range(1, a + 1):
                    y1 = x | 1 << row[d] + c
                    ker = 1 << row[a - 1] + c if c < a else 0
                    if ker:
                        add(y1, ker)
                    if pairs:
                        for d2 in range(d + 1, b + 1):
                            for c2 in range(1, c):
                                add(y1 | 1 << row[d2] + c2, 1 << row[d] + c2 | ker)
    return list(merged.items())


class RuleTable:
    """Every rule of ``rule_instances``, as (premise mask, conclusion mask) pairs."""

    __slots__ = ("n", "_rules")

    def __init__(self, n: int, spec: ClosureSpec):
        self.n = n
        self._rules = rule_instances(n, spec)

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    def closure(self, mask: int, forbidden: int = 0) -> Optional[int]:
        """Least fixed point containing mask; None as soon as it adds an element of forbidden.

        Sweeps over every rule until a sweep adds nothing.  Each sweep but
        the last adds an element, so there are at most |universe| + 1.
        """
        result = mask
        grown = True
        while grown:
            grown = False
            for p, c in self._rules:
                if p & result == p:
                    new = c & ~result
                    if new:
                        if new & forbidden:
                            return None
                        result |= new
                        grown = True
        return result

    def is_closed(self, mask: int) -> bool:
        for p, c in self._rules:
            if p & mask == p and c & ~mask:
                return False
        return True

    def rules(self) -> Iterator[tuple[int, int]]:
        """The rules as (premise mask, conclusion mask); the two are disjoint."""
        return iter(self._rules)


@lru_cache(maxsize=None)
def build_table(n: int, spec: ClosureSpec) -> RuleTable:
    return RuleTable(n, spec)


def closure(s: IntervalSet, spec: ClosureSpec) -> IntervalSet:
    """Least superset of s closed under every rule of the spec."""
    table = build_table(s.n, spec)
    return IntervalSet(s.n, table.closure(s.mask))
