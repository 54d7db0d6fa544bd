"""Dense GF(2) matrices with bit-packed rows (bit j of rows[i] is entry i,j).

One elimination (``_eliminate``) serves every routine.  The two basis
routines (``kernel_basis``, ``column_space``) return with each basis the
rows where it is the identity.  A linear system against such a basis is
then not solved by a second elimination: ``rows_at_units`` reads the
solution off those rows and checks it by one product.  A left kernel is
read as the kernel of the transpose.

Which constructions validate their rows:

- ``F2Matrix(nrows, ncols, rows)``, the public constructor, checks the shape,
  the row count and that every row is a non-negative int below 2**ncols.
  ``zeros`` goes through it.  The oracle interns matrices through it:
  ``oracle._block`` is this constructor memoized by its arguments, which
  validates on every miss and stores no failure, so equal blocks of
  ``morphism_between_sums``, built from user coefficients, are one object.
- The results of the methods below are built by the unchecked ``_new``,
  because their rows are in range by construction:

  - ``identity``: row i is 1 << i with i < k; k itself is checked.
  - ``transpose``: bit i of output row j is set only for an input row index
    i < nrows.
  - ``@``: each output row is an XOR of rows of the right operand, which are
    below 2**other.ncols.
  - ``kernel_basis``: bit k is set only for the k-th free column, k below
    the number of basis vectors.
  - ``column_space``: the transpose of reduced rows of the transpose, whose
    bits stay below nrows.
  - ``rows_at_units``: each output row is a row of rhs, below 2**rhs.ncols.
  - ``block_diag``: each block's rows are shifted by the widths of the
    blocks before it, so they stay below the total width.

Both constructions compute the hash once, into the ``_hash`` slot, since
the oracle's memos hash their matrix keys on every lookup.  ``__eq__``
checks identity first, then the cached hashes, then the slots, and builds
no tuples.  A memo lookup on interned matrices does not call it at all:
the comparison of two key tuples stops at identical items.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class F2Matrix:
    """Immutable GF(2) matrix; rows are Python ints used as bit vectors."""

    __slots__ = ("nrows", "ncols", "rows", "_hash")

    def __init__(self, nrows: int, ncols: int, rows: Optional[Sequence[int]] = None):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"bad shape {nrows}x{ncols}")
        if rows is None:
            rows = (0,) * nrows
        else:
            rows = tuple(rows)
            if len(rows) != nrows:
                raise ValueError(f"expected {nrows} rows, got {len(rows)}")
            if rows and (min(rows) < 0 or max(rows) >> ncols):
                bad = next(r for r in rows if r < 0 or r >> ncols)
                raise ValueError(f"row {bad:#x} out of range for {ncols} columns")
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_rows(self, rows)
        _set_hash(self, hash((nrows, ncols, rows)))

    @staticmethod
    def _new(nrows: int, ncols: int, rows: tuple[int, ...]) -> "F2Matrix":
        """Unchecked construction; only for rows in range by construction."""
        m = object.__new__(F2Matrix)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_rows(m, rows)
        _set_hash(m, hash((nrows, ncols, rows)))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("F2Matrix is immutable")

    @classmethod
    def identity(cls, k: int) -> "F2Matrix":
        if k < 0:
            raise ValueError(f"bad shape {k}x{k}")
        return cls._new(k, k, tuple(1 << i for i in range(k)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "F2Matrix":
        return cls(nrows, ncols)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, F2Matrix)
            and self._hash == other._hash
            and self.rows == other.rows
            and self.nrows == other.nrows
            and self.ncols == other.ncols
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ",".join(format(r, f"0{self.ncols}b")[::-1] for r in self.rows)
        return f"F2Matrix({self.nrows}x{self.ncols}:[{body}])"

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return F2Matrix._new(self.ncols, self.nrows, tuple(cols))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return F2Matrix._new(self.nrows, other.ncols, tuple(mul_rows(self.rows, other.rows)))

    def mat_vec(self, vec: int) -> int:
        """Apply to a column vector given as a bitmask over the columns."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & vec).bit_count() & 1:
                out |= 1 << i
        return out

    def rank(self) -> int:
        return rank_of_rows(self.rows, self.ncols)

    def kernel_basis(self) -> tuple["F2Matrix", tuple[int, ...]]:
        """Columns spanning the right null space {x : self @ x = 0}, and the free columns.

        Row ``free[k]`` of the basis is 1 << k, so the basis is the identity
        on the free rows (see ``rows_at_units``).
        """
        ncols = self.ncols
        reduced, pivots = _eliminate(list(self.rows), ncols)
        rows = [0] * ncols
        free = []
        for f in range(ncols):
            if f in pivots:
                continue
            bit = 1 << len(free)
            rows[f] = bit
            for r, p in zip(reduced, pivots):
                if r >> f & 1:
                    rows[p] |= bit
            free.append(f)
        return F2Matrix._new(ncols, len(free), tuple(rows)), tuple(free)

    def column_space(self) -> tuple["F2Matrix", tuple[int, ...]]:
        """Columns forming a basis of the column span, and their pivot rows.

        The basis is the transpose of the reduced rows of the transpose, so
        row ``pivots[i]`` of it is 1 << i (see ``rows_at_units``).
        """
        reduced, pivots = _eliminate(list(self.transpose().rows), self.nrows)
        rank = len(pivots)
        return F2Matrix._new(rank, self.nrows, tuple(reduced[:rank])).transpose(), tuple(pivots)


# Slot setters that bypass the immutability guard of __setattr__; only
# __init__ and _new use them.
_set_nrows, _set_ncols, _set_rows, _set_hash = (getattr(F2Matrix, slot).__set__ for slot in F2Matrix.__slots__)


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """In-place Gauss-Jordan over GF(2); pivot search only on the first ncols columns."""
    pivots = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        bit = 1 << c
        for i in range(r, nrows):
            if rows[i] & bit:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        for j in range(nrows):
            if j != r and rows[j] & bit:
                rows[j] ^= prow
        pivots.append(c)
        r += 1
    return rows, pivots


def mul_rows(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Rows of the product of two matrices given by their bit-packed rows."""
    out = []
    for r in left:
        acc = 0
        while r:
            low = r & -r
            acc ^= right[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def rows_at_units(basis: F2Matrix, units: Sequence[int], rhs: F2Matrix) -> F2Matrix:
    """The X with basis @ X = rhs, for a basis whose row ``units[i]`` is 1 << i.

    Row ``units[i]`` of basis @ X is row i of X, so X is read off as the
    rows of rhs at the units; one product checks it and raises ValueError
    when rhs is not in the column span of the basis.
    """
    if rhs.nrows != basis.nrows:
        raise ValueError(f"rhs has {rhs.nrows} rows, expected {basis.nrows}")
    x = [rhs.rows[u] for u in units]
    if mul_rows(basis.rows, x) != list(rhs.rows):
        raise ValueError("inconsistent linear system")
    return F2Matrix._new(len(units), rhs.ncols, tuple(x))


def rank_of_rows(rows: Iterable[int], ncols: int) -> int:
    """Rank of a list of bit-packed row vectors."""
    _, pivots = _eliminate(list(rows), ncols)
    return len(pivots)


def block_diag(blocks: Sequence[F2Matrix]) -> F2Matrix:
    """Block-diagonal assembly of matrices."""
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    rows = []
    shift = 0
    for b in blocks:
        rows.extend(r << shift for r in b.rows)
        shift += b.ncols
    return F2Matrix._new(nrows, ncols, tuple(rows))
