"""Finite posets, ideal lattices, incidence algebras and coherence checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .errors import CapExceeded
from .intervals import Interval
from .oracle import barcode, canonical_morphism, cokernel_rep, module_of

IDEAL_CAP = 1 << 20
# The distributivity sweep visits every pair of ideals: 2^14 ideals take
# about 40 s (2-core VM, CPython 3.11), and each doubling quadruples that.
DISTRIBUTIVE_CAP = 1 << 14
# The compact-meet check compares every pair of ideals of each lower set:
# 2^11 ideals take about 2.5 s (2-core VM, CPython 3.11), so 2^12 about 10 s.
COMPACT_MEET_CAP = 1 << 12


class FinitePoset:
    """A validated finite partial order.

    ``down[i]`` is the bitmask of elements below or equal to element i, so
    reflexivity and transitivity are baked in; antisymmetry is checked at
    construction and violations are reported with an explicit cycle.
    """

    __slots__ = ("elements", "down", "_index", "_up")

    def __init__(self, elements: Sequence[Hashable], down: Sequence[int]):
        self.elements = tuple(elements)
        self.down = tuple(down)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element labels")
        if len(self.down) != len(self.elements):
            raise ValueError("down masks inconsistent with elements")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._up: Optional[tuple[int, ...]] = None

    @classmethod
    def from_relations(
        cls,
        elements: Iterable[Hashable],
        relations: Iterable[tuple[Hashable, Hashable]],
    ) -> "FinitePoset":
        """Build from generating pairs (x, y) meaning x <= y.

        The reflexive-transitive closure is computed; a cycle through
        distinct elements is rejected with the offending labels.
        """
        elems = list(elements)
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError("duplicate element labels")
        pairs = []
        for x, y in relations:
            for lbl in (x, y):
                if lbl not in index:
                    index[lbl] = len(elems)
                    elems.append(lbl)
            pairs.append((index[x], index[y]))
        m = len(elems)
        down = [1 << i for i in range(m)]
        succ = [0] * m
        for x, y in pairs:
            down[y] |= 1 << x
            succ[x] |= 1 << y
        for k in range(m):
            bit = 1 << k
            for i in range(m):
                if down[i] & bit:
                    down[i] |= down[k]
        for i in range(m):
            for j in range(m):
                if i != j and (down[j] >> i) & 1 and (down[i] >> j) & 1:
                    cycle = _find_cycle(succ, i, j, elems)
                    raise ValueError(f"not a partial order, cycle: {cycle}")
        return cls(elems, down)

    @classmethod
    def chain(cls, k: int) -> "FinitePoset":
        """The total order 1 < 2 < ... < k."""
        return cls(range(1, k + 1), [(1 << (i + 1)) - 1 for i in range(k)])

    @classmethod
    def antichain(cls, k: int) -> "FinitePoset":
        return cls(range(1, k + 1), [1 << i for i in range(k)])

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements)"

    def index(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown element {label!r}") from None

    def leq(self, x: Hashable, y: Hashable) -> bool:
        return (self.down[self.index(y)] >> self.index(x)) & 1 == 1

    @property
    def up(self) -> tuple[int, ...]:
        if self._up is None:
            masks = [0] * len(self)
            for j, dm in enumerate(self.down):
                bits = dm
                while bits:
                    low = bits & -bits
                    masks[low.bit_length() - 1] |= 1 << j
                    bits ^= low
            self._up = tuple(masks)
        return self._up

    def linear_extension(self) -> list[int]:
        """Element indices ordered so that every element follows its lower set."""
        return sorted(range(len(self)), key=lambda i: (self.down[i].bit_count(), i))

    def restrict(self, mask: int) -> "FinitePoset":
        """Induced subposet on the elements selected by the bitmask."""
        keep = [i for i in range(len(self)) if (mask >> i) & 1]
        pos = {i: p for p, i in enumerate(keep)}
        down = []
        for i in keep:
            dm = self.down[i] & mask
            new = 0
            bits = dm
            while bits:
                low = bits & -bits
                new |= 1 << pos[low.bit_length() - 1]
                bits ^= low
            down.append(new)
        return FinitePoset([self.elements[i] for i in keep], down)

    def is_chain(self) -> bool:
        return all(
            (self.down[j] >> i) & 1 or (self.down[i] >> j) & 1
            for i in range(len(self))
            for j in range(i + 1, len(self))
        )


def _find_cycle(succ: Sequence[int], i: int, j: int, elems: Sequence[Hashable]) -> str:
    """Path i ->* j ->* i through the generating relation, as a label chain."""

    def path(src: int, dst: int) -> list[int]:
        prev = {src: src}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            if cur == dst:
                out = [dst]
                while out[-1] != src:
                    out.append(prev[out[-1]])
                return out[::-1]
            bits = succ[cur]
            while bits:
                low = bits & -bits
                nxt = low.bit_length() - 1
                bits ^= low
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        return [src, dst]

    forward = path(i, j)
    back = path(j, i)
    labels = [str(elems[k]) for k in forward + back[1:]]
    return " <= ".join(labels)


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of a poset, as element bitmasks; join is union and meet is intersection."""

    poset: FinitePoset
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)


def ideals(p: FinitePoset, cap: int = IDEAL_CAP) -> IdealLattice:
    """Enumerate all downward closed subsets.

    Processes elements along a linear extension: an ideal either omits the
    new element or contains it together with its strict lower set.
    """
    masks = [0]
    for i in p.linear_extension():
        need = p.down[i] & ~(1 << i)
        grown = [m | (1 << i) for m in masks if m & need == need]
        masks.extend(grown)
        if len(masks) > cap:
            raise CapExceeded(f"more than {cap} ideals")
    masks.sort(key=lambda m: (m.bit_count(), m))
    return IdealLattice(p, tuple(masks))


def is_distributive(lattice) -> bool:
    """Distributivity x ^ (y v z) == (x ^ y) v (x ^ z) of a finite lattice.

    For an ideal lattice, meets and joins are set operations, so the law is
    inherited from set algebra once closure under union and intersection is
    verified (the triple sweep is still run on small instances).  A
    FinitePoset is treated as a lattice via greatest lower / least upper
    bounds and swept in full; it is rejected if some pair has no meet or
    join.  An ideal lattice of more than ``DISTRIBUTIVE_CAP`` ideals raises
    CapExceeded.
    """
    if isinstance(lattice, IdealLattice):
        if len(lattice.masks) > DISTRIBUTIVE_CAP:
            raise CapExceeded(
                f"{len(lattice.masks)} ideals; the distributivity sweep is capped at {DISTRIBUTIVE_CAP}"
            )
        universe = set(lattice.masks)
        for a in lattice.masks:
            for b in lattice.masks:
                if (a | b) not in universe or (a & b) not in universe:
                    return False
        if len(lattice.masks) <= 64:
            for x in lattice.masks:
                for y in lattice.masks:
                    for z in lattice.masks:
                        if x & (y | z) != (x & y) | (x & z):
                            return False
        return True
    if isinstance(lattice, FinitePoset):
        meet = _bound_table(lattice, lattice.down)
        join = _bound_table(lattice, lattice.up)
        m = len(lattice)
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                        return False
        return True
    raise TypeError(f"cannot interpret {type(lattice).__name__} as a finite lattice")


def _bound_table(p: FinitePoset, toward: Sequence[int]) -> list[list[int]]:
    """Meet table when called with the down masks; join table with the up masks.

    The bound of i and j is the unique common element whose toward-set
    contains every common element; zero or several such elements means the
    poset is not a lattice.
    """
    m = len(p)
    table = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            common = toward[i] & toward[j]
            best = []
            bits = common
            while bits:
                low = bits & -bits
                k = low.bit_length() - 1
                bits ^= low
                if common & ~toward[k] == 0:
                    best.append(k)
            if len(best) != 1:
                raise ValueError(f"not a lattice: elements {p.elements[i]!r}, {p.elements[j]!r}")
            table[i][j] = best[0]
    return table


def subfunctor_count(p: FinitePoset, x: Hashable) -> int:
    """Number of subfunctors of the representable functor at x.

    Enumerates every 0/1 support assignment on the lower set of x and keeps
    the ones the restriction maps respect: a supported element forces all
    elements below it.  This deliberately avoids the ideal enumeration so the
    two counts can be compared as independent computations.
    """
    down_x = p.down[p.index(x)]
    elems = [i for i in range(len(p)) if (down_x >> i) & 1]
    if len(elems) > 22:
        raise CapExceeded(f"lower set of {x!r} has {len(elems)} elements")
    pos = {i: k for k, i in enumerate(elems)}
    local_down = [sum(1 << pos[j] for j in elems if (p.down[i] >> j) & 1) for i in elems]
    count = 0
    for s in range(1 << len(elems)):
        ok = True
        bits = s
        while bits:
            low = bits & -bits
            k = low.bit_length() - 1
            bits ^= low
            if local_down[k] & ~s:
                ok = False
                break
        if ok:
            count += 1
    return count


class IncidenceAlgebra:
    """The GF(2) algebra on comparable pairs, multiplied by path composition.

    Basis element k is the pair (x_k, y_k) with x_k <= y_k, read as the
    unique map x_k -> y_k; the product of (y, z) with (x, y') is (x, z) when
    y' == y and zero otherwise.
    """

    __slots__ = ("poset", "basis", "_lookup")

    def __init__(self, poset: FinitePoset, basis: Sequence[tuple[int, int]]):
        self.poset = poset
        self.basis = tuple(basis)
        self._lookup = {pair: k for k, pair in enumerate(self.basis)}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_labels(self) -> tuple[tuple[Hashable, Hashable], ...]:
        return tuple(
            (self.poset.elements[i], self.poset.elements[j]) for i, j in self.basis
        )

    def multiply(self, a: int, b: int) -> Optional[int]:
        """Index of basis[a] * basis[b], or None when the product is zero."""
        (xa, ya) = self.basis[a]
        (xb, yb) = self.basis[b]
        if xa != yb:
            return None
        return self._lookup[(xb, ya)]

    def multiply_sets(self, left: frozenset, right: frozenset) -> frozenset:
        """Product of two GF(2) combinations given as sets of basis indices."""
        acc: set[int] = set()
        for a in left:
            for b in right:
                k = self.multiply(a, b)
                if k is not None:
                    acc ^= {k}
        return frozenset(acc)

    def identity(self) -> frozenset:
        return frozenset(self._lookup[(i, i)] for i in range(len(self.poset)))

    def is_associative(self) -> bool:
        dim = self.dimension
        for a in range(dim):
            for b in range(dim):
                ab = self.multiply(a, b)
                for c in range(dim):
                    bc = self.multiply(b, c)
                    left = None if ab is None else self.multiply(ab, c)
                    right = None if bc is None else self.multiply(a, bc)
                    if left != right:
                        return False
        return True

    def has_identity(self) -> bool:
        one = self.identity()
        for k in range(self.dimension):
            e = frozenset([k])
            if self.multiply_sets(one, e) != e or self.multiply_sets(e, one) != e:
                return False
        return True


def incidence_algebra(p: FinitePoset) -> IncidenceAlgebra:
    basis = []
    for j in range(len(p)):
        bits = p.down[j]
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            basis.append((i, j))
    basis.sort()
    return IncidenceAlgebra(p, basis)


def chain_equivalence_check(n: int) -> bool:
    """Check that quotients of consecutive representables are the intervals.

    For the chain on n elements the representable at b is the interval
    module [1, b]; for every [a, b] the cokernel of [1, a-1] -> [1, b]
    (zero source when a == 1) must have barcode {[a, b]}.
    """
    for b in range(1, n + 1):
        target = module_of(Interval(1, b), n)
        for a in range(1, b + 1):
            if a == 1:
                got = barcode(target)
            else:
                f = canonical_morphism(Interval(1, a - 1), Interval(1, b), n)
                got = barcode(cokernel_rep(f))
            if got != (Interval(a, b),):
                return False
    return True


def compact_meet_check(p: FinitePoset) -> bool:
    """Meets of compact ideals of every lower set are compact.

    In the ideal lattice of a finite poset an ideal is compact exactly when
    it is a finite union of principal ideals, which every ideal is; the
    check therefore amounts to the ideal family being closed under pairwise
    intersection, and must come out true.  A lower set of more than
    ``COMPACT_MEET_CAP`` ideals raises CapExceeded.
    """
    for x in range(len(p)):
        sub = p.restrict(p.down[x])
        try:
            lat = ideals(sub, cap=COMPACT_MEET_CAP)
        except CapExceeded:
            raise CapExceeded(
                f"lower set of {p.elements[x]!r} has more than {COMPACT_MEET_CAP} ideals; "
                "the compact-meet sweep is capped there"
            ) from None
        universe = set(lat.masks)
        compact = []
        for m in lat.masks:
            union = 0
            bits = m
            while bits:
                low = bits & -bits
                union |= sub.down[low.bit_length() - 1]
                bits ^= low
            if union == m:
                compact.append(m)
        for a in compact:
            for b in compact:
                meet = a & b
                if meet not in universe:
                    return False
                union = 0
                bits = meet
                while bits:
                    low = bits & -bits
                    union |= sub.down[low.bit_length() - 1]
                    bits ^= low
                if union != meet:
                    return False
    return True


def coherent_check(p: FinitePoset) -> bool:
    """Every cospan y <= x >= y' is dominated by finitely many common lower bounds.

    The witnesses are taken to be the maximal common lower bounds of y and
    y'; on a finite poset every common lower bound lies under one of them,
    so the check must come out true.
    """
    m = len(p)
    up = p.up
    for i in range(m):
        for j in range(i, m):
            if not up[i] & up[j]:
                continue
            common = p.down[i] & p.down[j]
            if not common:
                continue
            maximal = []
            bits = common
            while bits:
                low = bits & -bits
                k = low.bit_length() - 1
                bits ^= low
                if up[k] & common == low:
                    maximal.append(k)
            bits = common
            while bits:
                low = bits & -bits
                z = low.bit_length() - 1
                bits ^= low
                if not any((p.down[mx] >> z) & 1 for mx in maximal):
                    return False
    return True


def parse_poset(text: str) -> FinitePoset:
    """Parse the line-oriented poset format.

    Each non-comment line is either a bare element label or a relation
    "x <= y"; elements appearing only in relations are declared implicitly
    and the reflexive-transitive closure is taken.
    """
    elements: list[str] = []
    seen = set()
    relations = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" in line:
            left, _, right = line.partition("<=")
            x, y = left.strip(), right.strip()
            if not x or not y:
                raise ValueError(f"malformed relation line: {raw!r}")
            relations.append((x, y))
        else:
            if line in seen:
                raise ValueError(f"duplicate element {line!r}")
            seen.add(line)
            elements.append(line)
    return FinitePoset.from_relations(elements, relations)


def load_poset(path) -> FinitePoset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poset(fh.read())
