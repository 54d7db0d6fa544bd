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
  lectic order when each family is visited in bit-reversed order of L, an
  order kept once per level and family.  Each node carries F(X), read by
  its parent in the step of the transfer: the parent settles its rules
  once, then reads each child's family.  The leaves of each parent at
  depth n - 1 come as one group (``closed_groups``; ``closed_masks``
  flattens).
  It is the engine of ``list`` and ``lattice`` and the second algorithm
  that the layer transfer is compared with; the CLI keeps the name
  ``next-closure`` for it because its stream is that of Next-Closure.  The
  two share the rule table and the family kernel below, which the tests
  check against a rule-by-rule closedness test, but not the merge.
- The subset sweep (the cross-check of both, usable while the universe fits
  a bit cap) holds one bit per subset, 64 subsets to a uint64 word, 2^size
  bits, and strikes out every subset that breaks a rule by masking strided
  views of the words; it makes no closure calls and shares no kernel with
  the other two.

Each family is read off bitsets, with no closure (``_LayerKernel``).  A
family is an int with one bit per subset L of layer k+1.  For closed X at
level k, a rule with all premises in the first k levels concludes there
and holds in X | L whatever L is, so X | L is closed at level k+1 exactly
when it keeps every rule whose premises meet layer k+1 and nothing above
it.  Such a rule has old premises po and conclusions co below the layer,
and over the subsets L two bitsets: ``up``, the L holding its layer
premises, and ``viol``, the L in ``up`` lacking one of its layer
conclusions.  It excludes no L when po is not in X, all of ``up`` when po
is in X but co is not, and ``viol`` when both are; F(X) is the complement
of what the rules exclude.  Each such rule has one premise in the layer,
or two and no conclusion there, so F(X) is the solution set of a 2-CNF;
only K, CK, KE and CKE have two, so for the other 28 specs it is a ring of
sets, closed under union and intersection.  Rules with equal old parts
are merged, and the bitsets of a level are built, when a run reaches it,
from the masks of the subsets holding each element of the layer.

A set read at level k is grown, Y | M with Y a state (in the enumeration, a
parent) below layer k and M a subset of layer k, the layer just added.  One
mask per level, ``known``, the bits below layer k, on which every grown set
agrees with Y, sorts the rules of the level by where their old parts lie,
and the same mask settles them, so the kinds below are those of
``_LayerKernel`` and of every ``_settle`` call of both engines:

- layer-local: po and co miss ``known``; they lie in layer k, or are empty.
  Such a rule tests only bits of layer k, where Y | M equals M, so it fires
  and excludes according to M alone; what these rules leave of ``full`` is
  read once per level and M (kernel[M]) and shared by every state and
  parent.
- deep: po and co lie in ``known`` and are not both empty, so Y decides
  them; they are settled on ``known`` once per state (``_settle``) into one
  bitset of excluded layers.
- mixed: po and co together meet both layer k and ``known``.  ``_settle``
  drops those whose premises Y lacks and settles those that Y decides; the
  rest are tested per grown set.

A settle mask larger than ``known`` would be wrong: it would decide mixed
rules by the last layer of Y, which differs from child to child.

The per-layer read is exact because F is the complement of a union of the
rules' exclusions, and a union may be taken over the parts of any split of
the rules: F(Y | M) = read(M) & ~(what the deep and mixed rules exclude).
The split merges nothing, so the counts and the lectic order are those of
the rules read one by one.  E, CE, KE and CKE have no mixed rules, so a
family there costs one lookup and one mask; K has the most (126 of 336 at
level 7).

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

The counts factor over linked components.  Every rule's premises and
conclusions form one linked class (see ``closure``): linked by overlap
and, for specs with E, also by adjacency.  So a set is closed exactly when
each linked component is, and the components cover disjoint vertex
segments, with an uncovered vertex between two of them when adjacency
links.  With g(m) the number of closed sets whose linked union is exactly
[1, m], and f(0) = f(-1) = 1, splitting off the component at vertex 1
gives f(n) = f(n-1) + sum_{m=1..n} g(m) f(n-m-1) with adjacency, for every
spec, and f(n) = f(n-1) + sum_{m=1..n} g(m) f(n-m) by overlap alone, for
the specs without E (``test_counts_factor_over_linked_components_all_specs``
checks both at n <= 5).  g is read off f, so this is a proof tool, not an
independent witness of the counts.

Hasse covers of a closed family (``lattice``) are found with bitmaps over
member indices in one pass over the members in lectic order.  That order is
a linear extension of inclusion, so the lowest-indexed member strictly
above a set that no cover found so far lies below is itself a cover; no
member is grouped by size and no cover is sorted.

``sequence`` returns the counts for n = 1..n_max as a tuple of ints, by any
of the three paths, and ``cli`` writes every format of them.  Only the
subset sweep knows its bit cap: past it ``count_brute`` raises
``CapExceeded``, which the CLI's cross-check reports as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator, Optional

from .closure import ClosureSpec, RuleTable, _essential_flags, build_table
from .errors import CapExceeded
from .intervals import IntervalSet, _iter_bits, _layer_masks, universe_size

BRUTE_CAP_BITS = 24
LATTICE_CAP = 4096

# the subset sweep packs the subsets of its 6 lowest elements into one word;
# _HOLDS[j] is the word of the 6-bit patterns that hold element j
_LOW_BITS = 6
_WORD = (1 << 64) - 1
_HOLDS = tuple(sum(1 << p for p in range(64) if p >> j & 1) for j in range(_LOW_BITS))

# (old premises, old conclusions, up, viol): see ``_LayerKernel``
_LayerRule = tuple[int, int, int, int]


def _lectic_masks(table: RuleTable) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Closed sets in lectic order: one group (x, tops), the sets x | top, per parent x at depth n - 1.

    The lectic order is induced by the canonical interval index: of two
    sets, the one holding their lowest differing index comes later.  A node
    of the walk at depth d is a set X closed on its first d layers, the root
    the empty set; its children are the X | L for L in F(X).  Each node
    carries F(X), which its parent read as the transfer reads a grown set:
    the parent settles the ``rest`` of the next level's ``_LayerKernel`` on
    its one mask ``known`` once for all its children (``_settle``), then
    reads each child's family off kernel[M] for the child's last layer M
    (shared by all parents), with no ``_layer_family`` call when the settle
    left no rule open, as for E, CE, KE and CKE.  The root's family is a
    read, as level 0 has only layer-local rules.  F(X)
    always holds the empty layer, so every path reaches depth n, and the
    leaves are exactly the closed sets: a node at depth n - 1 yields its
    group.  Nothing is merged and no closure is made.

    Layer d holds the indices below those of layer d + 1, so the lowest
    index where two leaves differ lies in their first differing layer, and
    the later set is the one whose layer there holds the lowest element
    where the two layers differ.  Reversing the bits of L makes that element
    the most significant one, so visiting each family in increasing
    bit-reversed L yields the lectic order, the stream of Next-Closure.
    That order, each L shifted into place, depends only on the level and the
    family, so it is kept per level by family: E at n = 7 has 9,300 parents
    at depth 6 and 233 families among them.
    """
    last = table.n - 1
    kernels = [_LayerKernel(table, level) for level in range(last + 1)]
    # revs[level][L]: L with its level + 1 bits reversed
    revs = [[0, 1]]
    for _ in range(last):
        rev = revs[-1]
        revs.append([r << 1 for r in rev] + [r << 1 | 1 for r in rev])
    # orders[level][family]: the layers of the family, shifted into place, in lectic order
    orders: list[dict[int, tuple[int, ...]]] = [{} for _ in range(last + 1)]

    def ordered(level: int, family: int) -> tuple[int, ...]:
        shift = level * (level + 1) // 2
        rising = sorted(_iter_bits(family), key=revs[level].__getitem__)
        layers = orders[level][family] = tuple([layer << shift for layer in rising])
        return layers

    # (depth, X, F(X)), F(X) read by the parent of X; level 0 has no rest, so the root's is a read
    stack = [(0, 0, kernels[0][0])]
    while stack:
        level, x, family = stack.pop()
        layers = orders[level].get(family) or ordered(level, family)
        if level == last:
            yield x, layers
            continue
        level += 1
        kernel = kernels[level]
        forced, live = _settle(kernel.rest, x, kernel.known)
        for top in reversed(layers):
            grown = x | top
            family = _layer_family(kernel[top], forced, live, grown) if live else kernel[top] & ~forced
            stack.append((level, grown, family))


def closed_groups(n: int, spec: ClosureSpec) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The closed sets for (n, spec) in lectic order, one group per parent (``_lectic_masks``)."""
    return _lectic_masks(build_table(n, spec))


def closed_masks(n: int, spec: ClosureSpec) -> Iterator[int]:
    """The masks of all closed sets for (n, spec) in lectic order."""
    return (x | top for x, tops in closed_groups(n, spec) for top in tops)


def iter_closed_sets(n: int, spec: ClosureSpec) -> Iterator[IntervalSet]:
    """All closed sets for (n, spec) in lectic order."""
    return (IntervalSet(n, mask) for mask in closed_masks(n, spec))


def count_next_closure(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by lectic enumeration (the CLI's ``next-closure``)."""
    return sum(len(tops) for _, tops in closed_groups(n, spec))


class _LayerKernel(dict):
    """The family bitsets of a level, its rules split by one mask ``known``; kernel[M] reads M.

    A family is an int with one bit per subset L of layer level + 1, whose
    elements are given relative to the first index of the layer; ``full``
    has every bit set.  Only the rules whose premises meet that layer and
    nothing above it decide whether X | L is closed at level + 1 (see the
    module docstring).  Each is split into its old part, the premises po and
    conclusions co below the layer, and two bitsets: ``up``, the L holding
    its layer premises, and ``viol``, the L in ``up`` lacking one of its
    layer conclusions.  Rules with equal old parts are merged.

    ``known`` holds the bits below layer ``level``, the one just added below
    the layer being read.  A merged rule whose old part misses ``known`` is
    layer-local and goes to ``local``: on a set whose last layer is M it
    fires and excludes as on M.  The rest, deep and mixed rules, go to
    ``rest``, which the transfer and the walk settle on ``known`` with
    ``_settle``; at level 0 ``known`` is empty and every rule is local.
    kernel[M] is ``full`` less what the local rules exclude, M given in
    place, at the canonical indices of layer ``level``.  Each M is read once,
    when first asked for, so a level holds at most one family per subset of
    the layer just added, and only those a run reaches.
    """

    def __init__(self, table: RuleTable, level: int):
        super().__init__()
        fixed = level * (level + 1) // 2
        width = level + 1
        old = (1 << fixed) - 1
        known = self.known = (1 << (level - 1) * level // 2) - 1
        full = self.full = (1 << (1 << width)) - 1
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
        self.local: list[_LayerRule] = []
        self.rest: list[_LayerRule] = []
        for (po, co), (up, viol) in merged.items():
            (self.rest if (po | co) & known else self.local).append((po, co, up, viol))

    def __missing__(self, top: int) -> int:
        family = self[top] = _layer_family(self.full, 0, self.local, top)
        return family


def _settle(rules: list[_LayerRule], x: int, known: int) -> tuple[int, list[_LayerRule]]:
    """Rules of a ``_LayerKernel`` for the sets that agree with x on the bits of ``known``.

    Returns the L that every such set excludes, from the rules that fire on
    all of them and whose exclusion ``known`` decides, and the rules still
    open.  A rule with an old premise outside x in ``known`` fires on none
    of them and is dropped.  The transfer and the walk pass a kernel's
    ``rest`` and its mask ``known``, the same mask that split the rules,
    and settle them once per state or parent: the deep ones are all
    settled, the mixed ones whose premises x lacks are dropped, and those
    left open are tested per grown set.
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


def _layer_family(base: int, forced: int, live: list[_LayerRule], x: int) -> int:
    """``base`` less the L that ``forced`` and the ``live`` rules exclude for the set x.

    With ``base`` = ``full``, ``forced`` = 0 and every rule of a
    ``_LayerKernel`` live (``local`` + ``rest``), this is F(x) = full & ~OR,
    over the rules whose old premises lie in x, of ``viol`` when their old
    conclusions lie in x too and ``up`` otherwise.  The transfer and the
    walk pass kernel[M], the read of the layer-local rules for the last
    layer M of x, as ``base`` and the result of ``_settle`` on the kernel's
    ``rest`` and ``known``, for a set that agrees with x on ``known``; the
    exclusions of a split of the rules add up, so that is the same F(x).
    """
    bad = forced
    for po, co, up, viol in live:
        if po & x == po:
            bad |= viol if co & x == co else up
    return base & ~bad


def _layer_counts(n_max: int, spec: ClosureSpec) -> Iterator[int]:
    """Number of closed sets at n = 1..n_max, by the layer transfer of ``count_layers``.

    The transfer starts from the empty set as the one state, of
    multiplicity 1, over an empty layer below layer 0: its family holds only
    the empty layer, so the first step grows the empty set alone and reads
    its family over layer 0, and the first term comes out of the same loop
    as the others.  Each term is the sum of multiplicity times |F| over the
    sets grown in its step, so the last step counts its sets without
    merging them into states that nothing would read.
    """
    table = build_table(n_max, spec)
    # the empty set over the empty layer below layer 0, so no step precedes the loop
    states = {1: [0, 1]}
    for level in range(n_max):
        last = level + 1 == n_max
        # the layers of the states' families start at shift; the grown sets agree with rep below
        shift = (level - 1) * level // 2
        kernel = _LayerKernel(table, level)
        total = 0
        nxt: dict[int, list[int]] = {}
        for family, (rep, mult) in states.items():
            forced, live = _settle(kernel.rest, rep, kernel.known)
            for layer in _iter_bits(family):
                top = layer << shift
                grown = rep | top
                key = _layer_family(kernel[top], forced, live, grown) if live else kernel[top] & ~forced
                total += mult * key.bit_count()
                if last:
                    continue
                entry = nxt.get(key)
                if entry is None:
                    nxt[key] = [grown, mult]
                else:
                    entry[1] += mult
        yield total
        states = nxt


def count_layers(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by a transfer over layers of intervals.

    The last term of ``_layer_counts(n, spec)``; n < 1 raises ValueError.
    The transfer, its merge and what backs the merge are described in the
    module docstring.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    *_, count = _layer_counts(n, spec)
    return count


def count_brute(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by checking every subset of the universe.

    The subsets are packed 64 to a word.  With low = min(size, 6), bit p of
    a word is the subset whose low elements (the first three layers) form
    the pattern p, and the words form a uint64 array of shape
    (2,) * (size - low), where element k >= low is axis size-1-k, so the
    flat index of a word is the mask shifted right by low.  For size < 6
    only the low 2^size bits of the single word are valid.

    A subset breaks a rule when it holds every premise and lacks some
    conclusion; premises and conclusions of a table rule are disjoint.
    Each rule is split at bit low.  Let lp be the word of patterns holding
    the low premises, and for each low element j let HOLDS[j] be the word
    of patterns holding j.  On the strided view that fixes the high premise
    axes at 1, all low conclusions together clear OR_j (lp & ~HOLDS[j]) in
    one ``&=``, and each high conclusion j clears lp in one ``&=`` on the
    view that also fixes axis j at 0.  A rule costs at most 1 + (its high
    conclusions) numpy calls, each over at most 2^15 words at n = 6.  The
    words take 2^size bits (256 KB at n = 6, 2 MB at the cap of
    ``BRUTE_CAP_BITS`` = 24 bits), no view is copied, and the count is the
    popcount of byte copies of 2^15 words at a time (a sweep at n = 6).
    """
    size = universe_size(n)
    if size > BRUTE_CAP_BITS:
        raise CapExceeded(f"the subset sweep at n={n} needs {size} bits, cap is {BRUTE_CAP_BITS}")
    import numpy as np  # here, not at the top: sequence, list, count and check start without it

    table = build_table(n, spec)
    low = min(size, _LOW_BITS)
    high = size - low
    low_mask = (1 << low) - 1
    words = np.full((2,) * high, (1 << (1 << low)) - 1, dtype=np.uint64)
    for prem, conc in table.rules():
        lp = _WORD
        for k in _iter_bits(prem & low_mask):
            lp &= _HOLDS[k]
        # the Ellipsis keeps an index that fixes every axis a 0-d view, not a copy
        index = [slice(None)] * high + [Ellipsis]
        for k in _iter_bits(prem >> low):
            index[high - 1 - k] = 1
        clear = 0
        for j in _iter_bits(conc & low_mask):
            clear |= lp & ~_HOLDS[j]
        if clear:
            view = words[tuple(index)]
            view &= np.uint64(_WORD & ~clear)
        for j in _iter_bits(conc >> low):
            index[high - 1 - j] = 0
            view = words[tuple(index)]
            view &= np.uint64(_WORD & ~lp)
            index[high - 1 - j] = slice(None)
    flat = words.reshape(-1)
    chunks = (flat[i : i + 2**15].tobytes() for i in range(0, flat.size, 2**15))
    return sum(int.from_bytes(chunk, "little").bit_count() for chunk in chunks)


def reference_sequence(spec: ClosureSpec, n: int) -> Optional[int]:
    """Closed-form count when one is known, else None.

    The flags are normalised first (``_essential_flags``): Q with K gives
    S, C with S gives Q, Q makes C redundant and S makes K.  The
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


def sequence(spec: ClosureSpec, n_max: int, algorithm: str = "layers") -> tuple[int, ...]:
    """Counts for n = 1..n_max by "layers", "next-closure" or "brute"; ``cli`` writes them.

    The layer transfer produces every term in one run; the other two count
    each n on its own.
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
    for n, count in enumerate(counts, start=1):
        if count < 2:
            raise AssertionError(f"count {count} below 2 at n={n}: empty and full set are closed")
        terms.append(count)
    return tuple(terms)


@dataclass(frozen=True)
class ClosedFamily:
    """All closed sets for one (n, spec) as masks, with the cover relation of inclusion."""

    members: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]


def lattice(n: int, spec: ClosureSpec, max_members: int = LATTICE_CAP) -> ClosedFamily:
    """Materialise the closed sets in lectic order plus their Hasse covers, sorted.

    Lectic order is a linear extension of inclusion: a proper superset holds
    the lowest element where it differs from its subset, so it comes later.
    Covers are found with bitmaps over member indices: ``contain[k]`` has
    bit i set when member i holds element k, and ``above[j]``, the members
    holding member j, is the AND of ``contain[k]`` over the elements k of
    member j, taken one layer part at a time, each part's AND cached.  The
    members strictly above j are then read in increasing index.  The lowest
    one, c, is an upper cover: a member strictly between j and c would be
    above j with a smaller index.  It is recorded and everything above it
    struck out; the lowest member left is again a cover, since one between
    it and j would have a smaller index and lie above no cover found so
    far, so it would still be left.  Each cover costs one AND, and the
    covers come out sorted.
    """
    groups = []
    count = 0
    for x, tops in closed_groups(n, spec):
        groups.append((x, tops))
        count += len(tops)
        if count > max_members:
            raise CapExceeded(f"more than {max_members} closed sets; raise the cap to materialise")
    import numpy as np

    masks = [x | top for x, tops in groups for top in tops]
    size = universe_size(n)
    # one bit transpose: member rows of element bits to element rows of member bits
    width = (size + 7) // 8
    rows = np.frombuffer(b"".join([m.to_bytes(width, "little") for m in masks]), dtype=np.uint8)
    bits = np.unpackbits(rows.reshape(count, width), axis=1, count=size, bitorder="little")
    contain = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(bits.T, axis=1, bitorder="little")]
    everyone = (1 << count) - 1
    # meets[part]: the AND of contain[k] over the elements k of a layer part
    meets: dict[int, int] = {}

    def meet(part: int) -> int:
        sup = meets.get(part)
        if sup is None:
            sup = everyone
            for k in _iter_bits(part):
                sup &= contain[k]
            meets[part] = sup
        return sup

    lows = _layer_masks(n - 1)
    above = []
    for x, tops in groups:
        # the members of a group share every layer below the top
        sup = everyone
        for low in lows:
            if x & low:
                sup &= meet(x & low)
        above += [sup & meet(top) if top else sup for top in tops]
    covers = []
    for j, sup in enumerate(above):
        rest = sup ^ (1 << j)
        while rest:
            c = (rest & -rest).bit_length() - 1
            covers.append((j, c))
            rest &= ~above[c]
    return ClosedFamily(tuple(masks), tuple(covers))
