"""Shared generators for randomised tests."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import numpy as np

from intervalcat.closure import FLAG_ORDER, ClosureSpec
from intervalcat.intervals import (
    Interval,
    IntervalSet,
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
from intervalcat.gf2 import F2Matrix, mul_rows, rank_of_rows
from intervalcat.oracle import Representation, barcode, hom_space_dim, module_of, morphism_between_sums
from intervalcat.posets import FinitePoset


def all_specs() -> tuple[ClosureSpec, ...]:
    """All 32 flag subsets, shortest first."""
    specs = []
    for mask in range(1 << len(FLAG_ORDER)):
        specs.append(ClosureSpec(frozenset(f for i, f in enumerate(FLAG_ORDER) if mask >> i & 1)))
    return tuple(sorted(specs, key=lambda s: (len(s.flags), str(s))))


def random_interval(rng: random.Random, n: int) -> Interval:
    b = rng.randint(1, n)
    return Interval(rng.randint(1, b), b)


def random_set(rng: random.Random, n: int) -> IntervalSet:
    return IntervalSet(n, rng.getrandbits(universe_size(n)))


def random_poset(rng: random.Random, size: int, edge_prob: float = 0.3) -> FinitePoset:
    """Random DAG on `size` labelled points, closed to a partial order."""
    labels = [f"p{i}" for i in range(size)]
    relations = [
        (labels[i], labels[j])
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < edge_prob
    ]
    return FinitePoset.from_relations(labels, relations)


def random_sum_members(rng: random.Random, pool: list[Interval], max_count: int) -> list[Interval]:
    k = rng.randint(1, max_count)
    return [rng.choice(pool) for _ in range(k)]


def random_morphism_coeffs(rng: random.Random, sources, targets):
    coeffs = {}
    for i, s in enumerate(sources):
        for j, t in enumerate(targets):
            if hom_dim(s, t) and rng.random() < 0.6:
                coeffs[(i, j)] = 1
    return coeffs


def random_representation(rng: random.Random, n: int, max_dim: int) -> Representation:
    """A representation with random dimensions and arbitrary random arrow maps."""
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    maps = tuple(
        F2Matrix(dims[k], dims[k + 1], [rng.getrandbits(dims[k + 1]) for _ in range(dims[k])])
        for k in range(n - 1)
    )
    return Representation(n, tuple(dims), maps)


def bars_from_ranks(n: int, rank) -> tuple[Interval, ...]:
    """Bars whose multiplicities follow from composite ranks by inclusion-exclusion.

    ``rank(a, b)`` is the rank of the composite from vertex b to vertex a,
    1 <= a <= b <= n.  The multiplicity of [a, b] is the number of bars
    containing [a, b] minus those sticking out on either side.
    """
    r = [[0] * (n + 2) for _ in range(n + 1)]
    for b in range(1, n + 1):
        for a in range(1, b + 1):
            r[a][b] = rank(a, b)
    out = []
    for b in range(1, n + 1):
        for a in range(1, b + 1):
            mult = r[a][b] - r[a - 1][b] - r[a][b + 1] + r[a - 1][b + 1]
            assert mult >= 0, (a, b, mult)
            out.extend([Interval(a, b)] * mult)
    return tuple(out)


def barcode_by_ranks(rep: Representation) -> tuple[Interval, ...]:
    """The barcode from the rank of every composite, each eliminated on its own.

    Independent of the one-pass reduction of ``oracle.barcode``: composites
    are multiplied out along the arrows, and a composite of rank 0 stays 0
    further down.
    """
    n = rep.n
    rank = [[0] * (n + 1) for _ in range(n + 1)]
    for b in range(1, n + 1):
        width = rep.dims[b - 1]
        cur = [1 << i for i in range(width)]
        rank[b][b] = width
        for a in range(b - 1, 0, -1):
            if not rank[a + 1][b]:
                break
            cur = mul_rows(rep.maps[a - 1].rows, cur)
            rank[a][b] = rank_of_rows(cur, width)
    return bars_from_ranks(n, lambda a, b: rank[a][b])


def kernel_bars_by_ranks(f) -> tuple[Interval, ...]:
    """Barcode of ker f from ranks alone.

    The composite of the kernel from b to a is the source composite S_ab
    restricted to ker f_b, of rank rank([f_b; S_ab]) - rank(f_b).
    """
    s, blocks = f.source, f.blocks

    def rank(a: int, b: int) -> int:
        fb = blocks[b - 1]
        stacked = fb.rows + s.composite(a, b).rows
        return rank_of_rows(stacked, fb.ncols) - fb.rank()

    return bars_from_ranks(f.n, rank)


def cokernel_bars_by_ranks(f) -> tuple[Interval, ...]:
    """Barcode of coker f from ranks alone.

    The composite of the cokernel from b to a is the target composite T_ab
    followed by the quotient by im f_a, of rank rank([T_ab | f_a]) - rank(f_a).
    """
    t, blocks = f.target, f.blocks

    def rank(a: int, b: int) -> int:
        fa, width = blocks[a - 1], t.dims[b - 1]
        side = [row | fa_row << width for row, fa_row in zip(t.composite(a, b).rows, fa.rows)]
        return rank_of_rows(side, width + fa.ncols) - fa.rank()

    return bars_from_ranks(f.n, rank)


def full_rule_instances(n: int, spec: ClosureSpec) -> list[tuple[int, int]]:
    """Every one- and two-summand rule instance of the spec, unreduced.

    The reference for the engine's generator: every target pair (source
    pair for kernels), nested or not, and the C and K blocks whatever Q and
    S are.  Rules are (premise mask, conclusion mask) pairs, as the
    engine's are; instances with the same premises are merged.
    """
    ivs = all_intervals(n)
    merged: dict[int, int] = {}

    def add(premises, conclusions) -> None:
        prem = IntervalSet.of(n, premises).mask
        conc = IntervalSet.of(n, conclusions).mask & ~prem
        if conc:
            merged[prem] = merged.get(prem, 0) | conc

    for x in ivs:
        if "Q" in spec.flags:
            add([x], quotients(x))
        if "S" in spec.flags:
            add([x], subobjects(x))
        if "E" in spec.flags:
            for upper in ivs:
                middle = ext_middle(upper, x)
                if middle is not None:
                    y, yp = middle
                    add([x, upper], [y] if yp is None else [y, yp])
        if "C" in spec.flags:
            targets = [y for y in ivs if hom_dim(x, y)]
            for i, y1 in enumerate(targets):
                add([x, y1], cokernel_single(x, y1))
                for y2 in targets[i:]:
                    add([x, y1, y2], cokernel_pair(x, y1, y2))
        if "K" in spec.flags:
            sources = [y for y in ivs if hom_dim(y, x)]
            for i, y1 in enumerate(sources):
                add([y1, x], kernel_single(y1, x))
                for y2 in sources[i:]:
                    add([y1, y2, x], kernel_pair(y1, y2, x))
    return list(merged.items())


def oracle_horn_rules(n: int, rep_of, max_sources: int, max_targets: int) -> dict[int, int]:
    """Horn rules read off the oracle alone, as {premise mask: conclusion mask}.

    Every GF(2) map between a sum of at most ``max_sources`` and a sum of at
    most ``max_targets`` intervals (repeated summands allowed, every
    coefficient pattern on the nonzero hom spaces) is built explicitly;
    ``rep_of`` (``cokernel_rep`` or ``kernel_rep``) turns it into a
    representation whose barcode is the rule's conclusion.  The premise is
    the set of summands involved.  No endpoint formula is used.
    """
    ivs = all_intervals(n)
    mods = {x: module_of(x, n) for x in ivs}
    nonzero = {(x, y) for x in ivs for y in ivs if hom_space_dim(mods[x], mods[y])}
    rules: dict[int, int] = {}
    for k in range(1, max_sources + 1):
        for srcs in combinations_with_replacement(ivs, k):
            for m in range(1, max_targets + 1):
                for tgts in combinations_with_replacement(ivs, m):
                    pairs = [
                        (i, j)
                        for i, x in enumerate(srcs)
                        for j, y in enumerate(tgts)
                        if (x, y) in nonzero
                    ]
                    premise = IntervalSet.of(n, srcs + tgts).mask
                    for pattern in range(1 << len(pairs)):
                        coeffs = {p: 1 for bit, p in enumerate(pairs) if pattern >> bit & 1}
                        f = morphism_between_sums(n, list(srcs), list(tgts), coeffs)
                        new = IntervalSet.of(n, barcode(rep_of(f))).mask & ~premise
                        if new:
                            rules[premise] = rules.get(premise, 0) | new
    return rules


def closed_masks(n: int, *rule_sets: dict[int, int]) -> set[int]:
    """Masks of every subset of the n-universe closed under all given rules.

    A plain sweep over all 2^(n(n+1)/2) subsets, independent of the closure
    engine and of Next-Closure.
    """
    masks = np.arange(1 << universe_size(n), dtype=np.int64)
    ok = np.ones(masks.shape, dtype=bool)
    for rules in rule_sets:
        for premise, conclusion in rules.items():
            ok &= ((masks & premise) != premise) | ((masks & conclusion) == conclusion)
    return {int(m) for m in masks[ok]}


def hasse_covers(masks: list[int]) -> tuple[tuple[int, int], ...]:
    """Sorted (lower, upper) index pairs of the cover relation of inclusion.

    A plain pairwise transitive reduction: i is covered by j when mask i is
    a proper subset of mask j and no third mask lies strictly between.
    """

    def below(a: int, b: int) -> bool:
        return a != b and a & ~b == 0

    return tuple(
        (i, j)
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if below(a, b) and not any(below(a, c) and below(c, b) for c in masks)
    )
