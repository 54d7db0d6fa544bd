"""Dense GF(2) matrices with bit-packed rows (bit j of rows[i] is entry i,j).

Which constructions validate their rows:

- ``F2Matrix(nrows, ncols, rows)``, the public constructor, checks the shape,
  the row count and that every row is a non-negative int below 2**ncols.
  ``zeros`` goes through it.  The oracle builds the blocks of
  ``morphism_between_sums`` from user coefficients through it as well.
- The results of the methods below are built by the unchecked ``_new``,
  because their rows are in range by construction:

  - ``identity``: row i is 1 << i with i < k; k itself is checked.
  - ``transpose``: bit i of output row j is set only for an input row index
    i < nrows.
  - ``@``: each output row is an XOR of rows of the right operand, which are
    below 2**other.ncols.
  - ``kernel_basis``: bit k is set only for the k-th free column, k below
    the number of basis vectors.
  - ``left_kernel_basis`` and ``solve_left``: each output row is a row tag
    shifted down past the ncols data bits, and tags only carry bits for row
    indices i < nrows.
  - ``column_space``: the transpose of reduced rows of the transpose, whose
    bits stay below nrows.
  - ``solve``: each output row is the rhs part of an augmented row shifted
    down past the ncols data bits, and XORs of rhs rows stay below
    2**rhs.ncols.
  - ``block_diag``: each block's rows are shifted by the widths of the
    blocks before it, so they stay below the total width.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class F2Matrix:
    """Immutable GF(2) matrix; rows are Python ints used as bit vectors."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int] = ()):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"bad shape {nrows}x{ncols}")
        if rows:
            rows = tuple(rows)
            if len(rows) != nrows:
                raise ValueError(f"expected {nrows} rows, got {len(rows)}")
            if min(rows) < 0 or max(rows) >> ncols:
                bad = next(r for r in rows if r < 0 or r >> ncols)
                raise ValueError(f"row {bad:#x} out of range for {ncols} columns")
        else:
            rows = (0,) * nrows
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_rows(self, rows)

    @staticmethod
    def _new(nrows: int, ncols: int, rows: tuple[int, ...]) -> "F2Matrix":
        """Unchecked construction; only for rows in range by construction."""
        m = object.__new__(F2Matrix)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_rows(m, rows)
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
        return (
            isinstance(other, F2Matrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

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

    def kernel_basis(self) -> "F2Matrix":
        """Matrix whose columns span the right null space {x : self @ x = 0}."""
        reduced, pivots = _eliminate(list(self.rows), self.ncols)
        pivot_set = set(pivots)
        rows = [0] * self.ncols
        k = 0
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            bit = 1 << k
            rows[f] |= bit
            for row_idx, p in enumerate(pivots):
                if (reduced[row_idx] >> f) & 1:
                    rows[p] |= bit
            k += 1
        return F2Matrix._new(self.ncols, k, tuple(rows))

    def left_kernel_basis(self) -> "F2Matrix":
        """Matrix whose rows span the left null space {y : y @ self = 0}.

        Row i is tagged with bit ncols + i; after elimination on the first
        ncols bits the rows without data bits carry the combinations of the
        rows of self that vanish.
        """
        width = self.ncols
        reduced, pivots = _eliminate(_tagged(self.rows, width), width)
        return F2Matrix._new(
            self.nrows - len(pivots),
            self.nrows,
            tuple(r >> width for r in reduced[len(pivots):]),
        )

    def column_space(self) -> "F2Matrix":
        """Matrix whose columns are a basis of the column span."""
        reduced, pivots = _eliminate(list(self.transpose().rows), self.nrows)
        return F2Matrix._new(len(pivots), self.nrows, tuple(reduced[: len(pivots)])).transpose()

    def solve(self, rhs: "F2Matrix") -> "F2Matrix":
        """A particular X with self @ X = rhs; raises ValueError if inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError(f"rhs has {rhs.nrows} rows, expected {self.nrows}")
        width = self.ncols
        aug = [self.rows[i] | (rhs.rows[i] << width) for i in range(self.nrows)]
        reduced, pivots = _eliminate(aug, width)
        for i in range(len(pivots), self.nrows):
            if reduced[i] >> width:
                raise ValueError("inconsistent linear system")
        xrows = [0] * width
        for row_idx, p in enumerate(pivots):
            xrows[p] = reduced[row_idx] >> width
        return F2Matrix._new(width, rhs.ncols, tuple(xrows))

    def solve_left(self, rhs: "F2Matrix") -> "F2Matrix":
        """A particular X with X @ self = rhs; raises ValueError if inconsistent.

        Each rhs row is reduced by the tagged pivot rows of self (see
        ``left_kernel_basis``); the tag it picks up is its row of X.
        """
        if rhs.ncols != self.ncols:
            raise ValueError(f"rhs has {rhs.ncols} columns, expected {self.ncols}")
        width = self.ncols
        reduced, pivots = _eliminate(_tagged(self.rows, width), width)
        pivot_rows = [(1 << p, reduced[i]) for i, p in enumerate(pivots)]
        low = (1 << width) - 1
        xrows = []
        for y in rhs.rows:
            for bit, row in pivot_rows:
                if y & bit:
                    y ^= row
            if y & low:
                raise ValueError("inconsistent linear system")
            xrows.append(y >> width)
        return F2Matrix._new(rhs.nrows, self.nrows, tuple(xrows))


# Slot setters that bypass the immutability guard of __setattr__; only
# __init__ and _new use them.
_set_nrows, _set_ncols, _set_rows = (getattr(F2Matrix, slot).__set__ for slot in F2Matrix.__slots__)


def _tagged(rows: Sequence[int], width: int) -> list[int]:
    """Rows with row index i recorded in bit width + i."""
    return [r | (1 << (width + i)) for i, r in enumerate(rows)]


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
