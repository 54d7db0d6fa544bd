"""Explicit GF(2) representations of the linear A_n quiver.

This module is the ground truth the interval formulas are checked against.
A representation assigns a GF(2) vector space to every vertex of
1 -> 2 -> ... -> n and a linear map M(i+1) -> M(i) to every arrow (the
contravariant orientation; all direction conventions live here).  Kernels,
cokernels, images, hom spaces, first extension groups and barcodes are
computed by plain Gaussian elimination, with no interval combinatorics
involved.

``morphism_between_sums`` builds each direct sum once per (summand list, n)
and shares it between all morphisms of those summands, which is most of
what sweeping every coefficient pattern costs otherwise.  Sharing is safe
because representations and matrices are immutable; the coefficient checks
and the commutation check of ``RepMorphism`` are still done for every
morphism.  The commutation check and ``barcode`` multiply bit-packed row
lists (``gf2.mul_rows``) instead of building a matrix for every product.

No second elimination.  The basis routines of ``gf2`` hand over the
rows where their basis is the identity: the free rows of a kernel basis,
the pivot rows of a column-space basis.  ``kernel_rep``, ``image_rep``
and ``generated_submodule`` read every induced arrow map off those rows
of the arrow composed with the neighbouring basis, solving no system
(``gf2.rows_at_units``).  Cokernel squares are transposed kernel squares:
a functional on the target vanishes on the image of a block B exactly
when it lies in the kernel of B^T, so the dual of coker(B_k) is ker(B_k^T),
the transposed arrow A_k^T runs between those kernels from vertex k to
k + 1, and the cokernel square of (B_k, B_{k+1}, A_k) is the transpose of
the kernel square of (B_{k+1}^T, B_k^T, A_k^T).  One product of the basis
with the map read off checks it against that composite; it fails, with
ValueError("inconsistent linear system"), exactly when the arrow does not
carry the subspace into the subspace, or the image into the image, which
can happen only when the blocks do not commute.

Each distinct block, square and representation is built, checked and
solved once (hash consing: Filliatre and Conchon, ML Workshop 2006).  A
sweep over many maps repeats them: the 13,928 maps at n = 4 with one source
and up to three targets, or the reverse, have 55,712 blocks but only 19
distinct ones, 277 distinct kernel and 286 cokernel squares, and 1,203
distinct kernel and cokernel representations; the 55,790 maps at n = 5
have the same blocks and squares and 3,883 representations.

The values are interned, so that equal values are one object.  ``_block``
is the checked constructor ``F2Matrix(nrows, ncols, rows)`` memoized by its
arguments; the blocks of ``morphism_between_sums``, the arrow maps of the
sums of ``_shared_sum`` and the induced maps of the squares come from it,
60 distinct matrices in either sweep.  ``_from_maps`` is memoized by its
maps, so equal kernel and cokernel representations are one object too.  On
these values the induced map of a square is memoized by its block, next
block and arrow (``_sub_square``, ``_quotient_square``), and ``barcode`` by
the representation; the memo sizes are given where they are defined.  Bases
are solved only on a square miss, and the dimension at vertex n is read off
the columns of the last induced map (for n = 1, with no arrow, off a
basis), so a hit eliminates nothing.  Every hit is found by identity: a
lookup hashes its key through the hash that each ``F2Matrix`` computes
once, at construction, and the tuple comparison of the keys stops at the
identical objects, with no ``F2Matrix.__eq__`` call in a whole round.  A
hit returns exactly what a miss computes: every key is immutable and equal
keys are equal values (an ``F2Matrix``, a frozen ``Representation`` whose
dims and maps are tuples), every memoized function is pure, and
``lru_cache`` stores no exception.  So the row checks of the constructor,
the checks of a ``Representation``, the product check of a square and the
dims check of a barcode run on every miss, and a failing input raises on
every call.  The commutation check of ``RepMorphism`` runs for every
morphism.

One pass up the arrows for ``barcode`` (the elder rule of persistence:
Zomorodian and Carlsson, DCG 2005; the decomposition is Crawley-Boevey's,
J. Algebra Appl. 2015).  Row i of ``maps[k]`` is the image of the i-th
dual basis vector of M(k+1) in the dual of M(k+2), so a transposed arrow
is applied by ``gf2.mul_rows``.  At vertex v the pass holds a basis of the
dual of M(v), in birth order, each vector with the vertex where it was
born.  At the arrow to v + 1 it reduces their images in that order: an
image that reduces to 0 closes the bar [birth, v], the others stay live,
and the unit vectors at the positions that no live image has as its lowest
bit are born at v + 1.  Invariant: for a <= v the live vectors with
birth <= a span the image of the dual of M(a) in the dual of M(v), whose
dimension is the rank of M(v) -> M(a).  Reduction in birth order keeps
this for every a across an arrow, and the live vectors stay independent,
so the bars counted here are those that the inclusion-exclusion of
composite ranks gives.  The bars must still add up to ``dims``.

``hom_space_dim``, ``ext_dim``, ``image_rep``, ``generated_submodule``,
the two support enumerations and ``chain_equivalence_check`` (the chain
check of ``poset``) serve no count: they are the checker, the reference
that the tests hold the endpoint formulas against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .gf2 import F2Matrix, block_diag, mul_rows, rank_of_rows, rows_at_units
from .intervals import Interval, hom_dim


@dataclass(frozen=True)
class Representation:
    """Per-vertex dimensions plus one matrix per arrow.

    ``dims[v]`` is the dimension at vertex v+1; ``maps[k]`` is the matrix of
    the map M(k+2) -> M(k+1), of shape dims[k] x dims[k+1].
    """

    n: int
    dims: tuple[int, ...]
    maps: tuple[F2Matrix, ...]

    def __post_init__(self) -> None:
        # Stored as tuples, so that a representation built from lists
        # compares and hashes like one built from tuples.
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "maps", tuple(self.maps))
        if self.n < 1:
            raise ValueError(f"ambient size must be >= 1, got {self.n}")
        if len(self.dims) != self.n or len(self.maps) != self.n - 1:
            raise ValueError("dims/maps lengths inconsistent with n")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        for k, m in enumerate(self.maps):
            if m.shape != (self.dims[k], self.dims[k + 1]):
                raise ValueError(
                    f"map {k} has shape {m.shape}, expected {(self.dims[k], self.dims[k + 1])}"
                )

    def dim_at(self, v: int) -> int:
        """Dimension at vertex v (1-based); vertices outside 1..n count as 0."""
        return self.dims[v - 1] if 1 <= v <= self.n else 0

    def composite(self, a: int, b: int) -> F2Matrix:
        """Matrix of the composite M(b) -> M(a) along the arrows, 1 <= a <= b <= n."""
        if not 1 <= a <= b <= self.n:
            raise ValueError(f"need 1 <= a <= b <= {self.n}, got ({a},{b})")
        cur = F2Matrix.identity(self.dims[b - 1])
        for v in range(b - 1, a - 1, -1):
            cur = self.maps[v - 1] @ cur
        return cur

    def debug_text(self) -> str:
        dims = ",".join(str(d) for d in self.dims)
        maps = ";".join(repr(m) for m in self.maps)
        return f"dims({dims}) maps({maps})"


def _support_rep(dims: tuple[int, ...]) -> Representation:
    """GF(2) at the vertices where ``dims`` is 1, 0 elsewhere, identities between neighbours."""
    maps = tuple(F2Matrix.identity(1) if a and b else F2Matrix.zeros(a, b) for a, b in zip(dims, dims[1:]))
    return Representation(len(dims), dims, maps)


def zero_rep(n: int) -> Representation:
    return _support_rep((0,) * n)


def module_of(x: Interval, n: int) -> Representation:
    """The interval module: GF(2) on the support of x, identities inside."""
    if x.b > n:
        raise ValueError(f"interval {x} does not fit inside {{1..{n}}}")
    return _support_rep(tuple(1 if x.a <= v <= x.b else 0 for v in range(1, n + 1)))


def direct_sum(reps: Sequence[Representation], n: Optional[int] = None) -> Representation:
    """Blockwise direct sum; an explicit n is required for the empty sum."""
    if not reps:
        if n is None:
            raise ValueError("empty direct sum needs an explicit ambient size")
        return zero_rep(n)
    n0 = reps[0].n
    if n is not None and n != n0:
        raise ValueError(f"ambient mismatch: {n} vs {n0}")
    if any(r.n != n0 for r in reps):
        raise ValueError("summands live in different ambients")
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(n0))
    maps = tuple(block_diag([r.maps[k] for r in reps]) for k in range(n0 - 1))
    return Representation(n0, dims, maps)


def sum_of(intervals: Iterable[Interval], n: int) -> Representation:
    return direct_sum([module_of(x, n) for x in intervals], n)


@dataclass(frozen=True)
class RepMorphism:
    """A morphism of representations: one block per vertex, commuting with the arrows."""

    source: Representation
    target: Representation
    blocks: tuple[F2Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        s, t = self.source, self.target
        if s.n != t.n:
            raise ValueError("source and target live in different ambients")
        if len(self.blocks) != s.n:
            raise ValueError(f"expected {s.n} blocks, got {len(self.blocks)}")
        for v, block in enumerate(self.blocks):
            if block.nrows != t.dims[v] or block.ncols != s.dims[v]:
                raise ValueError(f"block {v} has shape {block.shape}, expected {(t.dims[v], s.dims[v])}")
        # The shapes above make both sides t.dims[k] x s.dims[k + 1], so
        # their rows can be compared without building matrices.
        blocks = self.blocks
        for k in range(s.n - 1):
            left = mul_rows(blocks[k].rows, s.maps[k].rows)
            right = mul_rows(t.maps[k].rows, blocks[k + 1].rows)
            if left != right:
                raise ValueError(f"blocks do not commute with the arrow {k + 1} -> {k + 2}")

    @property
    def n(self) -> int:
        return self.source.n


def morphism_between_sums(
    n: int,
    sources: Iterable[Interval],
    targets: Iterable[Interval],
    coeffs: dict[tuple[int, int], int],
) -> RepMorphism:
    """Morphism sum_of(sources) -> sum_of(targets) from scalar coefficients.

    ``coeffs[(i, j)]`` is the GF(2) coefficient of the canonical nonzero map
    sources[i] -> targets[j]; setting a coefficient on a zero hom space is an
    error.  The nonzero map of two intervals is the identity on the vertices
    they share, so a coefficient sets one entry of the block at each of
    them.  Both sums come from ``_shared_sum`` and the blocks from ``_block``;
    the morphism, whose construction checks that the blocks commute, is
    built afresh.
    """
    sources, targets = tuple(sources), tuple(targets)
    src, src_pos = _shared_sum(sources, n)
    tgt, tgt_pos = _shared_sum(targets, n)
    rows = [[0] * d for d in tgt.dims]
    for (i, j), c in coeffs.items():
        if not (0 <= i < len(sources) and 0 <= j < len(targets)):
            raise ValueError(f"coefficient index {(i, j)} out of range")
        if not c & 1:
            continue
        x, y = sources[i], targets[j]
        if not hom_dim(x, y):
            raise ValueError(f"hom space {x} -> {y} is zero")
        for v in range(y.a - 1, x.b):
            rows[v][tgt_pos[v][j]] |= 1 << src_pos[v][i]
    blocks = tuple(_block(tgt.dims[v], src.dims[v], tuple(rows[v])) for v in range(n))
    return RepMorphism(src, tgt, blocks)


# The checked constructor F2Matrix(nrows, ncols, rows), interned (module
# docstring): a miss runs all its checks and a bad row is refused on every
# call.  The n = 4 and n = 5 sweeps have 60 distinct blocks, arrows and
# induced maps, so 1024 leaves room for the random maps of the tests.
_block = lru_cache(maxsize=1024)(F2Matrix)


def _interned(m: F2Matrix) -> F2Matrix:
    """The one object of ``_block`` equal to m."""
    return _block(m.nrows, m.ncols, m.rows)


# 4096 holds every summand list of the one-source, three-target sweeps up to
# n = 6 (about 2,000), so a sweep that cycles through them never evicts.
@lru_cache(maxsize=4096)
def _shared_sum(intervals: tuple[Interval, ...], n: int) -> tuple[Representation, tuple[tuple[int, ...], ...]]:
    """``sum_of(intervals, n)`` and, per vertex, each summand's position in its basis there.

    The position of a summand absent at a vertex is -1.  Both parts are
    immutable, so every morphism between the same summand lists shares them.
    The arrow maps are interned through ``_block``.
    """
    rep = sum_of(intervals, n)
    rep = Representation(n, rep.dims, tuple(_interned(m) for m in rep.maps))
    positions = []
    for v in range(1, n + 1):
        pos, p = [], 0
        for x in intervals:
            if x.a <= v <= x.b:
                pos.append(p)
                p += 1
            else:
                pos.append(-1)
        positions.append(tuple(pos))
    return rep, tuple(positions)


def canonical_morphism(source: Interval, target: Interval, n: int) -> RepMorphism:
    """The nonzero map between two interval modules."""
    if not hom_dim(source, target):
        raise ValueError(f"no nonzero map {source} -> {target}")
    return morphism_between_sums(n, [source], [target], {(0, 0): 1})


def _induced(basis_of, block: F2Matrix, next_block: F2Matrix, arrow: F2Matrix) -> F2Matrix:
    """The map that ``arrow`` induces between the spans of ``basis_of`` of two neighbouring blocks.

    ``basis_of`` is ``F2Matrix.kernel_basis`` or ``F2Matrix.column_space``,
    whose basis is the identity on its rows at the units, so the induced
    map is read off those rows of the arrow applied to the next basis
    (module docstring).
    """
    return rows_at_units(*basis_of(block), arrow @ basis_of(next_block)[0])


# Memos (module docstring).  The n = 4 and n = 5 sweeps have 277 and 286
# distinct squares of each kind, so 4096 leaves room for the random maps of
# the tests, and 1,203 and 3,883 distinct kernel and cokernel
# representations, so the 8192 of ``_from_maps`` and ``barcode`` holds either.
@lru_cache(maxsize=4096)
def _sub_square(basis_of, block: F2Matrix, next_block: F2Matrix, arrow: F2Matrix) -> F2Matrix:
    return _interned(_induced(basis_of, block, next_block, arrow))


@lru_cache(maxsize=4096)
def _quotient_square(block: F2Matrix, next_block: F2Matrix, arrow: F2Matrix) -> F2Matrix:
    """The map that ``arrow`` induces between the cokernels of two neighbouring blocks.

    It is the transpose of the kernel square of the transposes (module docstring).
    """
    dual = _induced(F2Matrix.kernel_basis, next_block.transpose(), block.transpose(), arrow.transpose())
    return _interned(dual.transpose())


@lru_cache(maxsize=8192)
def _from_maps(maps: tuple[F2Matrix, ...], last: int) -> Representation:
    """The representation with these arrow maps and dimension ``last`` at vertex n.

    Map k is dims[k] x dims[k + 1], so the maps fix every other dimension.
    Memoized, so equal kernel and cokernel representations are one object.
    """
    return Representation(len(maps) + 1, tuple(m.nrows for m in maps) + (last,), maps)


def _subrepresentation(basis_of, blocks: Sequence[F2Matrix], ambient: Representation) -> Representation:
    """The subrepresentation of ``ambient`` spanned at each vertex v by ``basis_of(blocks[v])``."""
    maps = tuple(_sub_square(basis_of, blocks[k], blocks[k + 1], ambient.maps[k]) for k in range(ambient.n - 1))
    return _from_maps(maps, maps[-1].ncols if maps else basis_of(blocks[0])[0].ncols)


def kernel_rep(f: RepMorphism) -> Representation:
    """Vertexwise kernel with the induced arrow maps."""
    return _subrepresentation(F2Matrix.kernel_basis, f.blocks, f.source)


def cokernel_rep(f: RepMorphism) -> Representation:
    """Vertexwise cokernel with the induced arrow maps."""
    blocks = f.blocks
    maps = tuple(_quotient_square(blocks[k], blocks[k + 1], f.target.maps[k]) for k in range(f.n - 1))
    return _from_maps(maps, maps[-1].ncols if maps else blocks[0].transpose().kernel_basis()[0].ncols)


def image_rep(f: RepMorphism) -> Representation:
    """Vertexwise image with the induced arrow maps."""
    return _subrepresentation(F2Matrix.column_space, f.blocks, f.target)


@lru_cache(maxsize=8192)
def barcode(rep: Representation) -> tuple[Interval, ...]:
    """Multiset of intervals in the indecomposable decomposition.

    One pass up the transposed arrows (module docstring): a live vector at
    v that the arrow to v + 1 sends into the span of its elders closes the
    bar [birth, v].
    """
    n, dims = rep.n, rep.dims
    # A basis of the dual space at the current vertex, in birth order, and
    # the vertex where each of its vectors was born.
    vecs = [1 << i for i in range(dims[0])]
    births = [1] * dims[0]
    bars = []  # (end, start) pairs
    for v in range(1, n):
        pivots: dict[int, int] = {}  # live images at v + 1 by lowest bit
        next_vecs, next_births = [], []
        for birth, x in zip(births, mul_rows(vecs, rep.maps[v - 1].rows)):
            while x:
                low = x & -x
                p = pivots.get(low)
                if p is None:
                    pivots[low] = x
                    next_vecs.append(x)
                    next_births.append(birth)
                    break
                x ^= p
            else:
                bars.append((v, birth))
        for i in range(dims[v]):
            if 1 << i not in pivots:
                next_vecs.append(1 << i)
                next_births.append(v + 1)
        vecs, births = next_vecs, next_births
    bars.extend((n, birth) for birth in births)
    # Sorted by (end, start), the bars come out in Interval order.
    bars.sort()
    check = [0] * n
    for b, a in bars:
        for v in range(a - 1, b):
            check[v] += 1
    if tuple(check) != dims:
        raise AssertionError(f"barcode does not add up to dims in {rep.debug_text()}")
    return tuple([Interval(a, b) for b, a in bars])


def hom_space_dim(x_rep: Representation, y_rep: Representation) -> int:
    """Dimension of the space of morphisms x_rep -> y_rep.

    A morphism is a family of per-vertex matrices subject to one commuting
    square per arrow; the dimension is the corank of that linear system.
    """
    if x_rep.n != y_rep.n:
        raise ValueError("ambient mismatch")
    n = x_rep.n
    offsets = []
    nvars = 0
    for v in range(n):
        offsets.append(nvars)
        nvars += y_rep.dims[v] * x_rep.dims[v]

    def var(v: int, row: int, col: int) -> int:
        return offsets[v] + row * x_rep.dims[v] + col

    equations = []
    for k in range(n - 1):
        xm = x_rep.maps[k]
        ym = y_rep.maps[k]
        for r in range(y_rep.dims[k]):
            for c in range(x_rep.dims[k + 1]):
                eq = 0
                for j in range(x_rep.dims[k]):
                    if xm.entry(j, c):
                        eq ^= 1 << var(k, r, j)
                for j in range(y_rep.dims[k + 1]):
                    if ym.entry(r, j):
                        eq ^= 1 << var(k + 1, j, c)
                if eq:
                    equations.append(eq)
    return nvars - rank_of_rows(equations, nvars)


def ext_dim(upper_rep: Representation, lower_rep: Representation) -> int:
    """Dimension of the extension group of upper_rep by lower_rep.

    Each bar [a, b] of the upper barcode has the two-term projective
    resolution by the modules supported on [1, a-1] and [1, b]; applying
    Hom(-, lower_rep) turns it, via Yoneda, into the composite map
    lower(b) -> lower(a-1), whose corank is the contribution of that bar.
    """
    if upper_rep.n != lower_rep.n:
        raise ValueError("ambient mismatch")
    total = 0
    for bar in barcode(upper_rep):
        a, b = bar.a, bar.b
        if a == 1:
            continue
        target_dim = lower_rep.dim_at(a - 1)
        if target_dim == 0:
            continue
        total += target_dim - lower_rep.composite(a - 1, b).rank()
    return total


def generated_submodule(rep: Representation, generators: Iterable[tuple[int, int]]) -> RepMorphism:
    """Inclusion of the submodule generated by (vertex, vector-bitmask) pairs.

    Generators are propagated down the arrows, then a basis is extracted at
    each vertex; the result is the inclusion morphism of the submodule.
    """
    n = rep.n
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v, vec in generators:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range")
        if vec >> rep.dims[v - 1]:
            raise ValueError(f"vector {vec:#x} out of range at vertex {v}")
        buckets[v - 1].append(vec)
    for v in range(n - 1, 0, -1):
        m = rep.maps[v - 1]
        for vec in buckets[v]:
            buckets[v - 1].append(m.mat_vec(vec))
    spans = [F2Matrix(len(buckets[v]), rep.dims[v], buckets[v]).transpose() for v in range(n)]
    incl = tuple(g.column_space()[0] for g in spans)
    return RepMorphism(_subrepresentation(F2Matrix.column_space, spans, rep), rep, incl)


def _support_inclusions(x: Interval, n: int) -> Iterator[RepMorphism]:
    """The inclusions into module_of(x, n) of its submodules that are GF(2) or 0 at each vertex.

    Every choice of support inside x, the empty one included, is tried; a
    choice is kept when its inclusion commutes with the arrows.
    """
    whole = module_of(x, n)
    for chosen in range(1 << (x.b - x.a + 1)):
        dims = tuple(1 if x.a <= v <= x.b and chosen >> (v - x.a) & 1 else 0 for v in range(1, n + 1))
        blocks = tuple(F2Matrix.identity(1) if d else F2Matrix.zeros(w, 0) for d, w in zip(dims, whole.dims))
        try:
            incl = RepMorphism(_support_rep(dims), whole, blocks)
        except ValueError:
            continue
        yield incl


def interval_submodule_barcodes(x: Interval, n: int) -> list[tuple[Interval, ...]]:
    """Barcodes of all nonzero submodules of an interval module, by exhaustive support enumeration."""
    return sorted(bars for incl in _support_inclusions(x, n) if (bars := barcode(incl.source)))


def interval_quotient_barcodes(x: Interval, n: int) -> list[tuple[Interval, ...]]:
    """Barcodes of all nonzero quotients of an interval module: the cokernels of its submodule inclusions."""
    return sorted(bars for incl in _support_inclusions(x, n) if (bars := barcode(cokernel_rep(incl))))


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
