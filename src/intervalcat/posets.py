"""Finite posets: validation, ideals, subfunctor counts and incidence dimensions.

Pure order theory on ``down`` masks.  Every report here can come out
differently from one finite poset to another.  The paper's criterion for
an abelian universal category, meets of compact ideals are compact, holds
on every finite poset (every ideal is a finite union of principal ones), so
it has no finite check here; nor has distributivity, since ideals form a
ring of sets.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from .errors import CapExceeded

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
        distinct elements is rejected with a shortest closed path of given
        pairs through the first element on a cycle.
        """
        elems = list(elements)
        index = {e: i for i, e in enumerate(elems)}
        pairs = []
        for x, y in relations:
            for lbl in (x, y):
                if lbl not in index:
                    index[lbl] = len(elems)
                    elems.append(lbl)
            pairs.append((index[x], index[y]))
        m = len(elems)
        down = [1 << i for i in range(m)]
        for x, y in pairs:
            down[y] |= 1 << x
        for k in range(m):
            bit = 1 << k
            for i in range(m):
                if down[i] & bit:
                    down[i] |= down[k]
        for i in range(m):
            # i lies on a cycle when another element of its lower set has it below too
            if any(j != i and (down[i] >> j) & 1 and (down[j] >> i) & 1 for j in range(m)):
                raise ValueError(f"not a partial order, cycle: {_cycle_through(i, pairs, elems)}")
        return cls(elems, down)

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

    def is_chain(self) -> bool:
        return all(
            (self.down[j] >> i) & 1 or (self.down[i] >> j) & 1
            for i in range(len(self))
            for j in range(i + 1, len(self))
        )


def _cycle_through(i: int, pairs: Sequence[tuple[int, int]], elems: Sequence[Hashable]) -> str:
    """A shortest closed path i <= ... <= i along the generating pairs, as a label chain."""
    prev: dict[int, int] = {}
    queue = [i]
    for cur in queue:
        for x, y in pairs:
            if x == cur and y != cur and y not in prev:
                prev[y] = cur
                queue.append(y)
        if i in prev:
            break
    path = [i, prev[i]]
    while path[-1] != i:
        path.append(prev[path[-1]])
    return " <= ".join(str(elems[k]) for k in reversed(path))


def ideals(p: FinitePoset, within: Optional[int] = None) -> tuple[int, ...]:
    """All downward closed subsets of ``within`` as element bitmasks, in discovery order.

    ``within`` must be down-closed, and defaults to every element; its
    ideals are those of the sub-poset on it, so ``ideals(p, p.down[i])``
    are the ideals below element i.  Processes the elements of ``within``
    along a linear extension: an ideal either omits the new element or
    contains it together with its strict lower set.  The ideals come in
    the order they are found: the empty one first, then, for each element
    of the extension in turn, the ideals that add it to those found so
    far.  More than ``IDEAL_CAP`` ideals raise CapExceeded.
    """
    if within is None:
        within = (1 << len(p)) - 1
    masks = [0]
    for i in p.linear_extension():
        if not (within >> i) & 1:
            continue
        need = p.down[i] & ~(1 << i)
        grown = [m | (1 << i) for m in masks if m & need == need]
        masks.extend(grown)
        if len(masks) > IDEAL_CAP:
            raise CapExceeded(f"more than {IDEAL_CAP} ideals")
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
