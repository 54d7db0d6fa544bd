"""Counting and enumerating closed interval sets.

Three counting paths are kept, each where it serves best.

- The layer transfer (``count_layers``) is the engine of ``count`` and
  ``sequence``.  Layer k is the k intervals [a, k]; their canonical indices
  k(k-1)/2 .. k(k+1)/2 - 1 do not depend on n, so the closed sets of level
  k+1 are the sets X | L with X closed at level k and L in the family
  F(X), the layers for which X | L is closed.  Sets with equal families
  are merged into one state.  One run gives every term up to n_max, from
  the one rule table of n_max: a rule instance depends only on the
  endpoints of its intervals, and every rule concludes only intervals
  within the level of its largest premise endpoint, so that table closes a
  set of the first k levels exactly as the table of k would.
- Enumeration (``_lectic_masks``) walks the same layers depth first and
  merges nothing: a set closed on its first k layers has as children the
  X | L for L in F(X), and the leaves at depth n are the closed sets, in
  lectic order when each family is visited in bit-reversed order of L.  It
  is the engine of ``list`` and ``lattice`` and the second algorithm that
  the layer transfer is compared with; the CLI keeps the name
  ``next-closure`` for it because its stream is that of Next-Closure.  The
  two share the rule table and the family kernel below, which the tests
  check against a rule-by-rule closedness test, but not the merge.
- The subset sweep (the cross-check of both, usable while the universe fits
  a bit cap) holds one boolean per subset, 2^size bytes, and strikes out
  every subset that breaks a rule through strided views of that array; it
  makes no closure calls.

Each family is read off bitsets, with no closure (``_layer_kernel``).  A
family is an int with one bit per subset L of layer k+1.  For closed X at
level k, a rule with all premises in the first k levels concludes there
and holds in X | L whatever L is, so X | L is closed at level k+1 exactly
when it keeps every rule whose premises meet layer k+1 and nothing above
it.  Such a rule has old premises po and conclusions co below the layer,
and over the subsets L two bitsets: ``up``, the L holding its layer
premises, and ``viol``, the L in ``up`` lacking one of its layer
conclusions.  It excludes no L when po is not in X, all of ``up`` when po
is in X but co is not, and ``viol`` when both are; F(X) is the complement
of what the rules exclude.  Rules with equal old parts are merged, and the
bitsets of a level are built, when a run reaches it, from the masks of the
subsets holding each element of the layer.  The sets grown from one state
(or, in the enumeration, from one parent) agree with it below the layer
just added, so the rules that this part decides are settled once per state
(``_settle``) and only the others are tested for each grown set.

The merge of the layer transfer is exact when equal families imply equal
next families: then, by induction on the level, the number of closed sets
with each family is the sum over states of multiplicity times the number of
layers leading to it.  No proof of that condition is known here.  The test
suite checks it on every closed set, not only on representatives, for all
non-empty specs through level 6, which makes the counts for n <= 6 exact; it
says nothing about larger n.  There the counts are backed by enumeration
where it was run (the tests run it for C and K at n = 7 and for E and CK
at n = 8), by closed forms, and for C against K by the dual spec's run,
which merges differently (1,430 states against 6,336 at n = 8).  The
empty spec has no rules, so its family is every subset of the layer and a
single state carries every set.

Hasse covers of a closed family are found with bitmaps over member indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator, Optional

import numpy as np

from .closure import ClosureSpec, RuleTable, _essential_flags, build_table
from .errors import CapExceeded
from .intervals import IntervalSet, _iter_bits, universe_size

BRUTE_CAP_BITS = 24
LATTICE_CAP = 4096

# (old premises, old conclusions, up, viol): see ``_layer_kernel``
_LayerRule = tuple[int, int, int, int]


def _lectic_masks(table: RuleTable) -> Iterator[int]:
    """Closed sets in lectic order, by a depth-first walk of the layer kernel.

    The lectic order is induced by the canonical interval index: of two
    sets, the one holding their lowest differing index comes later.  A node
    of the walk at depth d is a set X closed on its first d layers, the root
    the empty set; its children are the X | L for L in F(X), read off
    ``_layer_kernel`` of level d, and the rules of level d + 1 are settled on
    X once for all of them (``_settle``), as in the transfer.  F(X) always
    holds the empty layer, so every path reaches depth n, and the leaves are
    exactly the closed sets.  Nothing is merged and no closure is made.

    Layer d holds the indices below those of layer d + 1, so the lowest
    index where two leaves differ lies in their first differing layer, and
    the later set is the one whose layer there holds the lowest element
    where the two layers differ.  Reversing the bits of L makes that element
    the most significant one, so visiting each family in increasing
    bit-reversed L, from a per-level table of reversals, yields the lectic
    order, the stream of Next-Closure.
    """
    last = table.n - 1
    kernels = [_layer_kernel(table, level) for level in range(last + 1)]
    # revs[level][L]: L with its level + 1 bits reversed, an involution
    revs = [[0, 1]]
    for _ in range(last):
        rev = revs[-1]
        revs.append([r << 1 for r in rev] + [r << 1 | 1 for r in rev])
    # (depth, X, rules of that level settled by the parent of X)
    stack = [(0, 0, 0, kernels[0][1])]
    while stack:
        level, x, forced, live = stack.pop()
        rev = revs[level]
        shift = level * (level + 1) // 2
        family = _layer_family(kernels[level][0], forced, live, x)
        layers = sorted([rev[layer] for layer in _iter_bits(family)])
        if level == last:
            for r in layers:
                yield x | rev[r] << shift
        else:
            forced, live = _settle(kernels[level + 1][1], x, (1 << shift) - 1)
            level += 1
            stack.extend([(level, x | rev[r] << shift, forced, live) for r in reversed(layers)])


def closed_masks(n: int, spec: ClosureSpec) -> Iterator[int]:
    """The masks of all closed sets for (n, spec) in lectic order."""
    return _lectic_masks(build_table(n, spec))


def iter_closed_sets(n: int, spec: ClosureSpec) -> Iterator[IntervalSet]:
    """All closed sets for (n, spec) in lectic order."""
    for mask in closed_masks(n, spec):
        yield IntervalSet(n, mask)


def count_next_closure(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by lectic enumeration (the CLI's ``next-closure``)."""
    return sum(1 for _ in closed_masks(n, spec))


def _layer_kernel(table: RuleTable, level: int) -> tuple[int, list[_LayerRule]]:
    """The family bitsets of a level: ``full`` and the rules (po, co, up, viol).

    A family is an int with one bit per subset L of layer level + 1, whose
    elements are given relative to the first index of the layer; ``full``
    has every bit set.  Only the rules whose premises meet that layer and
    nothing above it decide whether X | L is closed at level + 1 (see the
    module docstring).  Each is split into its old part, the premises po and
    conclusions co below the layer, and two bitsets: ``up``, the L holding
    its layer premises, and ``viol``, the L in ``up`` lacking one of its
    layer conclusions.  Rules with equal old parts are merged.
    """
    fixed = level * (level + 1) // 2
    width = level + 1
    old = (1 << fixed) - 1
    full = (1 << (1 << width)) - 1
    # holds[i]: the L holding element i, blocks of 2^i zeros then 2^i ones
    holds = [
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(width)
    ]
    merged: dict[tuple[int, int], list[int]] = {}
    for prem, conc in table.rules():
        layer_prem = prem >> fixed
        if not layer_prem or layer_prem >> width:
            continue
        up = full
        for i in _iter_bits(layer_prem):
            up &= holds[i]
        has = full
        for i in _iter_bits(conc >> fixed):
            has &= holds[i]
        entry = merged.setdefault((prem & old, conc & old), [0, 0])
        entry[0] |= up
        entry[1] |= up & ~has
    return full, [(po, co, up, viol) for (po, co), (up, viol) in merged.items()]


def _settle(rules: list[_LayerRule], x: int, known: int) -> tuple[int, list[_LayerRule]]:
    """Rules of ``_layer_kernel`` for the sets that agree with x on the bits of ``known``.

    Returns the L that every such set excludes, from the rules that fire on
    all of them and whose exclusion ``known`` decides, and the rules still
    open.  A rule with an old premise outside x in ``known`` fires on none
    of them and is dropped.
    """
    miss = known & ~x
    forced = 0
    live = []
    for rule in rules:
        po, co, up, viol = rule
        if po & miss:
            continue
        if po & ~known:
            live.append(rule)
        elif co & miss:
            forced |= up
        elif co & ~known:
            live.append(rule)
        else:
            forced |= viol
    return forced, live


def _layer_family(full: int, forced: int, live: list[_LayerRule], x: int) -> int:
    """F(x) from the result of ``_settle`` for a set that agrees with x on ``known``.

    With ``forced`` = 0 and every rule of ``_layer_kernel`` live, this is
    F(x) = full & ~OR, over the rules whose old premises lie in x, of
    ``viol`` when their old conclusions lie in x too and ``up`` otherwise.
    """
    bad = forced
    for po, co, up, viol in live:
        if po & x == po:
            bad |= viol if co & x == co else up
    return full & ~bad


def _layer_counts(n_max: int, spec: ClosureSpec) -> Iterator[int]:
    """Number of closed sets at n = 1..n_max, by the layer transfer of ``count_layers``."""
    table = build_table(n_max, spec)
    full, rules = _layer_kernel(table, 0)
    states = {_layer_family(full, 0, rules, 0): [0, 1]}
    for level in range(n_max):
        yield sum(mult * family.bit_count() for family, (_, mult) in states.items())
        if level + 1 == n_max:
            return
        shift = level * (level + 1) // 2
        below = (1 << shift) - 1
        full, rules = _layer_kernel(table, level + 1)
        nxt: dict[int, list[int]] = {}
        for family, (rep, mult) in states.items():
            # the grown sets all agree with rep below the layer just added
            forced, live = _settle(rules, rep, below)
            for layer in _iter_bits(family):
                grown = rep | (layer << shift)
                key = _layer_family(full, forced, live, grown)
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [grown, mult]
                else:
                    entry[1] += mult
        states = nxt


def count_layers(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by a transfer over layers of intervals.

    Layer k holds the k intervals [a, k]; they take the canonical indices
    k(k-1)/2 .. k(k+1)/2 - 1, which do not depend on n, so a closed set at
    level k+1 is a closed set X at level k plus one layer L from its family
    F(X), the layers with X | L closed at level k+1.  Closed sets with equal
    families are merged into one state, a representative with a
    multiplicity: the count at level k+1 is the sum of multiplicity times
    |F|, and the states at level k+1 are the families of representative | L
    for every L in F.  Each family is one int with a bit per layer, read off
    precomputed rule bitsets (``up`` and ``viol``) without a closure; it is
    exact because a rule concludes within the level of its largest premise
    endpoint (module docstring).  The merge is exact when equal families
    imply equal next families; see the module docstring for what backs that.
    The enumeration it is checked against walks the same kernel but merges
    nothing.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    *_, count = _layer_counts(n, spec)
    return count


def count_brute(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by checking every subset of the universe.

    The subsets are one boolean array of shape (2,) * size, where element
    bit k is axis size-1-k, so the flat index of a subset is its mask.  A
    subset breaks a rule when it holds every premise and lacks some
    conclusion bit j; for each rule and each j, the strided view that fixes
    the premise axes at 1 and axis j at 0 is set to False.  Premises and
    conclusions of a table rule are disjoint.  The array takes 2^size
    bytes (2 MB at n = 6, 16 MB at the cap of ``BRUTE_CAP_BITS`` = 24 bits)
    and nothing is copied.
    """
    size = universe_size(n)
    if size > BRUTE_CAP_BITS:
        raise CapExceeded(f"subset sweep needs {size} bits, cap is {BRUTE_CAP_BITS}")
    table = build_table(n, spec)
    ok = np.ones((2,) * size, dtype=bool)
    for prem, conc in table.rules():
        index = [slice(None)] * size
        for k in _iter_bits(prem):
            index[size - 1 - k] = 1
        for j in _iter_bits(conc):
            index[size - 1 - j] = 0
            ok[tuple(index)] = False
            index[size - 1 - j] = slice(None)
    return int(np.count_nonzero(ok))


def reference_sequence(spec: ClosureSpec, n: int) -> Optional[int]:
    """Closed-form count when one is known, else None.

    Cokernel closure is implied by quotient closure and kernel closure by
    subobject closure, so those flags are normalised away first; the
    order-reversing involution then lets the subobject-side combinations
    reuse the quotient-side formulas.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    key = "".join(sorted(_essential_flags(spec)))
    catalan = comb(2 * n + 2, n + 1) // (n + 2)
    table = {
        "EQS": 2**n,
        "QS": catalan,
        "EQ": catalan,
        "ES": catalan,
        "CEK": catalan,
        "Q": factorial(n + 1),
        "S": factorial(n + 1),
        "": 2 ** (n * (n + 1) // 2),
    }
    return table.get(key)


@dataclass(frozen=True)
class SequenceReport:
    """Counts of closed sets for n = 1..n_max under one spec."""

    spec: ClosureSpec
    algorithm: str
    terms: tuple[tuple[int, int], ...]
    elapsed: tuple[float, ...]

    def counts(self) -> list[int]:
        return [c for _, c in self.terms]

    def to_json_dict(self) -> dict:
        terms = [{"n": n, "count": count} for n, count in self.terms]
        return {"ops": str(self.spec), "algorithm": self.algorithm, "terms": terms}

    def to_csv(self, reference: bool = False) -> str:
        lines = ["n,count,reference,match" if reference else "n,count"]
        for n, count in self.terms:
            if reference:
                ref = reference_sequence(self.spec, n)
                lines.append(
                    f"{n},{count},{'' if ref is None else ref},"
                    f"{'' if ref is None else str(ref == count).lower()}"
                )
            else:
                lines.append(f"{n},{count}")
        return "\n".join(lines) + "\n"

    def to_bfile(self) -> str:
        """OEIS b-file style lines "n count"."""
        return "".join(f"{n} {count}\n" for n, count in self.terms)


def sequence(spec: ClosureSpec, n_max: int, algorithm: str = "layers") -> SequenceReport:
    """Counts for n = 1..n_max by "layers", "next-closure" or "brute".

    The layer transfer produces every term in one run; its time for a term
    is the step from the previous level.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if algorithm == "layers":
        counts = _layer_counts(n_max, spec)
    elif algorithm == "next-closure":
        counts = (count_next_closure(n, spec) for n in range(1, n_max + 1))
    elif algorithm == "brute":
        counts = (count_brute(n, spec) for n in range(1, n_max + 1))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    terms = []
    elapsed = []
    t0 = time.perf_counter()
    for n, count in enumerate(counts, start=1):
        t1 = time.perf_counter()
        elapsed.append(t1 - t0)
        t0 = t1
        if count < 2:
            raise AssertionError(f"count {count} below 2 at n={n}: empty and full set are closed")
        terms.append((n, count))
    return SequenceReport(spec, algorithm, tuple(terms), tuple(elapsed))


@dataclass(frozen=True)
class ClosedFamily:
    """All closed sets for one (n, spec), with the cover relation of inclusion."""

    n: int
    spec: ClosureSpec
    members: tuple[IntervalSet, ...]
    covers: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ops": str(self.spec),
            "members": [m.indices() for m in self.members],
            "covers": [list(c) for c in self.covers],
        }

    def to_dot(self) -> str:
        lines = ["digraph closed_sets {", "  rankdir=BT;"]
        for i, m in enumerate(self.members):
            label = "{" + ",".join(str(iv) for iv in m.members) + "}"
            lines.append(f'  n{i} [label="{label}"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def lattice(n: int, spec: ClosureSpec, max_members: int = LATTICE_CAP) -> ClosedFamily:
    """Materialise the closed sets in lectic order plus their Hasse covers.

    Covers are found with bitmaps over member indices: ``contain[k]`` has
    bit i set when member i holds element k, so the members strictly above
    member j are the AND of ``contain[k]`` over the elements k of member j,
    minus j itself.  Those are walked level by level in increasing size; a
    member not yet dominated is an upper cover of j, and each cover found
    marks everything above it as dominated.  Members of one level are never
    comparable, so each level is a single bitmap step.
    """
    members = []
    for s in iter_closed_sets(n, spec):
        members.append(s)
        if len(members) > max_members:
            raise CapExceeded(f"more than {max_members} closed sets; raise the cap to materialise")
    masks = [m.mask for m in members]
    everyone = (1 << len(masks)) - 1
    contain = [0] * universe_size(n)
    levels = [0] * (universe_size(n) + 1)
    for i, m in enumerate(masks):
        bit = 1 << i
        levels[m.bit_count()] |= bit
        for k in _iter_bits(m):
            contain[k] |= bit
    above = []
    for j, m in enumerate(masks):
        sup = everyone
        for k in _iter_bits(m):
            sup &= contain[k]
        above.append(sup & ~(1 << j))
    covers = []
    for j, m in enumerate(masks):
        rest = above[j]
        for level in levels[m.bit_count() + 1 :]:
            if not rest:
                break
            for c in _iter_bits(rest & level):
                covers.append((j, c))
                rest &= ~above[c]
            rest &= ~level
    covers.sort()
    return ClosedFamily(n, spec, tuple(members), tuple(covers))
