"""Finite posets: validation, ideals, subfunctor counts and incidence dimensions.

Every report here can come out differently from one finite poset to
another.  The paper's criterion for an abelian universal category, meets of
compact ideals are compact, holds on every finite poset (every ideal is a
finite union of principal ones), so it has no finite check here; nor has
distributivity, since ideals form a ring of sets.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import CapExceeded
from .intervals import Interval
from .oracle import barcode, canonical_morphism, cokernel_rep, module_of

IDEAL_CAP = 1 << 20
SUBFUNCTOR_CAP = 1 << 22


class FinitePoset:
    """A validated finite partial order.

    ``down[i]`` is the bitmask of elements below or equal to element i, so
    reflexivity and transitivity are baked in.  The constructor trusts its
    masks; ``from_relations`` takes the closure of generating pairs and
    rejects a cycle with an explicit diagnostic.
    """

    __slots__ = ("elements", "down", "_index")

    def __init__(self, elements: Sequence[Hashable], down: Sequence[int]):
        self.elements = tuple(elements)
        self.down = tuple(down)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element labels")
        if len(self.down) != len(self.elements):
            raise ValueError("down masks inconsistent with elements")
        self._index = {e: i for i, e in enumerate(self.elements)}

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

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements)"

    def index(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown element {label!r}") from None

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


def ideals(p: FinitePoset) -> tuple[int, ...]:
    """All downward closed subsets as element bitmasks, by size then value.

    Processes elements along a linear extension: an ideal either omits the
    new element or contains it together with its strict lower set.  More
    than ``IDEAL_CAP`` ideals raise CapExceeded.
    """
    masks = [0]
    for i in p.linear_extension():
        need = p.down[i] & ~(1 << i)
        grown = [m | (1 << i) for m in masks if m & need == need]
        masks.extend(grown)
        if len(masks) > IDEAL_CAP:
            raise CapExceeded(f"more than {IDEAL_CAP} ideals")
    masks.sort(key=lambda m: (m.bit_count(), m))
    return tuple(masks)


def subfunctor_count(p: FinitePoset, x: Hashable) -> int:
    """Number of subfunctors of the representable functor at x.

    Enumerates every 0/1 support assignment on the lower set of x and keeps
    the ones the restriction maps respect: a supported element forces all
    elements below it.  This deliberately avoids the ideal enumeration so the
    two counts can be compared as independent computations.
    """
    down_x = p.down[p.index(x)]
    elems = [i for i in range(len(p)) if (down_x >> i) & 1]
    if 1 << len(elems) > SUBFUNCTOR_CAP:
        raise CapExceeded(f"lower set of {x!r} has 2^{len(elems)} supports, cap is {SUBFUNCTOR_CAP}")
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


def incidence_dimension(p: FinitePoset) -> int:
    """Dimension of the incidence algebra: one basis element per comparable pair x <= y."""
    return sum(d.bit_count() for d in p.down)


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


def parse_poset(text: str) -> FinitePoset:
    """Parse the line-oriented poset format.

    Each non-comment line is either a bare element label or a relation
    "x <= y" with exactly one "<="; elements appearing only in relations are
    declared implicitly and the reflexive-transitive closure is taken.
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
            if not x or not y or "<=" in right:
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
