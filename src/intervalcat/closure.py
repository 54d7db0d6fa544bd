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

The generated rules follow these reductions:

- Two-target cokernel and two-source kernel rules are emitted only for
  strictly nested pairs: a non-nested pair reduces by a shear to the
  single-target (single-source) rule.
- No C rules when Q is chosen: a cokernel of a map into a sum is a
  quotient of that sum, and quotients of sums reduce to single summands.
- No K rules when S is chosen, by the dual argument.

These bounds are what the acceptance suite's oracle certificate relies on:
for n <= 4 it compares the C and CK closed families with those of Horn
rules read off the GF(2) oracle for every map with one source and at most
three targets (and, for kernels, at most three sources and one target).

Rules are (premise mask, conclusion mask) pairs over canonical interval
indices from generation to table.  They are generated sorted by premise
size, premise indices and operation, and that order is the order in which
the table prunes them: a rule is kept with only the conclusions that the
rules before it do not already force.  Whether they force them is an
implication test, the membership test for implied dependencies (Beeri and
Bernstein, 1979): the premises are saturated only until every conclusion
is covered, and only a rule that keeps some conclusion costs a full
closure.  The closure of a set is the least fixed point of the rule
system, computed by worklist saturation over bitmasks; ``RuleTable.extend``
saturates a closed base plus new elements, pushing only the new ones, and
is the one saturation loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .intervals import (
    Interval,
    IntervalSet,
    _iter_bits,
    all_intervals,
    cokernel_pair,
    cokernel_single,
    ext_middle,
    hom_dim,
    kernel_pair,
    kernel_single,
    quotients,
    subobjects,
    universe_size,
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

    @classmethod
    def all_specs(cls) -> tuple["ClosureSpec", ...]:
        """All 32 flag subsets, shortest first."""
        out = []
        for mask in range(1 << len(FLAG_ORDER)):
            flags = frozenset(f for i, f in enumerate(FLAG_ORDER) if (mask >> i) & 1)
            out.append(cls(flags))
        return tuple(sorted(out, key=lambda s: (len(s.flags), str(s))))

    def dual(self) -> "ClosureSpec":
        """Swap Q with S and C with K; E is self-dual."""
        return ClosureSpec(frozenset(_DUAL_FLAG[f] for f in self.flags))

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags

    def __str__(self) -> str:
        return "".join(f for f in FLAG_ORDER if f in self.flags)

    def __repr__(self) -> str:
        return f"ClosureSpec({str(self)!r})"


def _essential_flags(spec: ClosureSpec) -> frozenset:
    """The spec's flags without C under Q and without K under S.

    Quotient closure implies cokernel closure and subobject closure implies
    kernel closure, so dropping these flags changes no closed set.
    """
    flags = set(spec.flags)
    if "Q" in flags:
        flags.discard("C")
    if "S" in flags:
        flags.discard("K")
    return frozenset(flags)


def _strictly_nested(u: Interval, v: Interval) -> bool:
    return (u.a < v.a and v.b < u.b) or (v.a < u.a and u.b < v.b)


def rule_instances(n: int, spec: ClosureSpec) -> list[tuple[int, int]]:
    """A finite rule set whose closure operator is that of (n, spec).

    Each rule is a (premise mask, conclusion mask) pair over canonical
    interval indices.  Only the instances the module docstring's reductions
    leave are generated.  Conclusions that already appear among the premises
    are dropped, as are zero objects; instances left with no conclusions are
    omitted.  Instances of one operation with equal premises are merged, and
    the rules are sorted by premise size, then premise indices, then
    operation: the order in which ``RuleTable`` prunes them.
    """
    ivs = all_intervals(n)
    flags = _essential_flags(spec)
    merged: dict[tuple[str, int], int] = {}

    def add(tag: str, prem: int, conclusions: Iterable[Interval]) -> None:
        conc = 0
        for y in conclusions:
            conc |= 1 << y.index
        conc &= ~prem
        if conc:
            merged[tag, prem] = merged.get((tag, prem), 0) | conc

    if "Q" in flags:
        for i, x in enumerate(ivs):
            add("Q", 1 << i, quotients(x))
    if "S" in flags:
        for i, x in enumerate(ivs):
            add("S", 1 << i, subobjects(x))
    if "E" in flags:
        for i, lower in enumerate(ivs):
            for j, upper in enumerate(ivs):
                middle = ext_middle(upper, lower)
                if middle is None:
                    continue
                y, yp = middle
                add("E", 1 << i | 1 << j, [y] if yp is None else [y, yp])
    if "C" in flags:
        for i, x in enumerate(ivs):
            targets = [(1 << j, y) for j, y in enumerate(ivs) if hom_dim(x, y)]
            for k, (b1, y1) in enumerate(targets):
                add("C", 1 << i | b1, cokernel_single(x, y1))
                for b2, y2 in targets[k + 1:]:
                    if _strictly_nested(y1, y2):
                        add("C", 1 << i | b1 | b2, cokernel_pair(x, y1, y2))
    if "K" in flags:
        for i, x in enumerate(ivs):
            sources = [(1 << j, y) for j, y in enumerate(ivs) if hom_dim(y, x)]
            for k, (b1, y1) in enumerate(sources):
                add("K", b1 | 1 << i, kernel_single(y1, x))
                for b2, y2 in sources[k + 1:]:
                    if _strictly_nested(y1, y2):
                        add("K", b1 | b2 | 1 << i, kernel_pair(y1, y2, x))
    # (tag, premise) is unique, so the conclusion never decides the order.
    order = sorted(merged, key=lambda key: (key[1].bit_count(), tuple(_iter_bits(key[1])), key[0]))
    return [(prem, merged[tag, prem]) for tag, prem in order]


class RuleTable:
    """The rules of ``rule_instances``, pruned, with a premise-indexed worklist.

    Building the table takes the rules in the order ``rule_instances``
    gives, saturates each rule's premises against the rules kept so far and
    drops conclusions that are already forced; this prunes the table without
    changing the closure operator, and which rules survive depends on that
    order.  The saturation stops as soon as every conclusion is forced: the
    rule is then dropped whole, and a rule with a conclusion left over was
    saturated to the full closure, so the kept conclusions are exactly those
    outside the closure of the premises.
    """

    __slots__ = ("n", "spec", "size", "_prem", "_conc", "_by_elem")

    def __init__(self, n: int, spec: ClosureSpec):
        self.n = n
        self.spec = spec
        self.size = universe_size(n)
        self._prem: list[int] = []
        self._conc: list[int] = []
        self._by_elem: list[list[int]] = [[] for _ in range(self.size)]
        for pmask, cmask in rule_instances(n, spec):
            forced = self.extend(0, pmask, until=cmask)
            new = cmask & ~forced
            if not new:
                continue
            idx = len(self._prem)
            self._prem.append(pmask)
            self._conc.append(new)
            bits = pmask
            while bits:
                low = bits & -bits
                self._by_elem[low.bit_length() - 1].append(idx)
                bits ^= low

    @property
    def rule_count(self) -> int:
        return len(self._prem)

    def closure(self, mask: int, forbidden: int = 0) -> Optional[int]:
        """Least fixed point containing mask; None as soon as it meets forbidden."""
        return self.extend(0, mask, forbidden)

    def extend(self, base: int, add: int, forbidden: int = 0, until: int = -1) -> Optional[int]:
        """Closure of base | add for a closed base; None as soon as it meets forbidden.

        Only the elements of ``add`` and the ones they force are pushed: a
        rule whose premises all lie in the closed base already has its
        conclusions there.  The early exit makes the lectic validity test of
        the enumeration cheap: most candidates die on their first forbidden
        element.

        ``until`` is the goal of an implication test: the saturation returns
        as soon as the result contains all of it.  A result returned early
        that way lies inside the closure but is not a closure; when the
        closure does not contain ``until``, the closure is returned.  The
        default -1 never triggers.
        """
        result = base | add
        if not self._prem or result & until == until:
            return result
        by_elem = self._by_elem
        prem = self._prem
        conc = self._conc
        stack = []
        bits = add
        while bits:
            low = bits & -bits
            stack.append(low.bit_length() - 1)
            bits ^= low
        while stack:
            i = stack.pop()
            for r in by_elem[i]:
                p = prem[r]
                if p & result == p:
                    new = conc[r] & ~result
                    if new:
                        if new & forbidden:
                            return None
                        result |= new
                        if result & until == until:
                            return result
                        bits = new
                        while bits:
                            low = bits & -bits
                            stack.append(low.bit_length() - 1)
                            bits ^= low
        return result

    def is_closed(self, mask: int) -> bool:
        for p, c in zip(self._prem, self._conc):
            if p & mask == p and c & ~mask:
                return False
        return True

    def rules(self) -> Iterator[tuple[int, int]]:
        """The kept rules as (premise mask, conclusion mask); the two are disjoint."""
        return zip(self._prem, self._conc)


@lru_cache(maxsize=None)
def build_table(n: int, spec: ClosureSpec) -> RuleTable:
    return RuleTable(n, spec)


def closure(s: IntervalSet, spec: ClosureSpec) -> IntervalSet:
    """Least superset of s closed under every rule of the spec."""
    table = build_table(s.n, spec)
    return IntervalSet(s.n, table.closure(s.mask))


def is_closed(s: IntervalSet, spec: ClosureSpec) -> bool:
    """Whether every rule with premises inside s has its conclusions inside s."""
    table = build_table(s.n, spec)
    return table.is_closed(s.mask)
