"""Dense GF(2) matrices with bit-packed rows (bit j of rows[i] is entry i,j)."""

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

    def __setattr__(self, name, value):
        raise AttributeError("F2Matrix is immutable")

    @classmethod
    def identity(cls, k: int) -> "F2Matrix":
        return cls(k, k, tuple(1 << i for i in range(k)))

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
        return F2Matrix(self.ncols, self.nrows, cols)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        orows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= orows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return F2Matrix(self.nrows, other.ncols, out)

    def mat_vec(self, vec: int) -> int:
        """Apply to a column vector given as a bitmask over the columns."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & vec).bit_count() & 1:
                out |= 1 << i
        return out

    def rank(self) -> int:
        _, pivots = _eliminate(list(self.rows), self.ncols)
        return len(pivots)

    def kernel_basis(self) -> "F2Matrix":
        """Matrix whose columns span the right null space {x : self @ x = 0}."""
        reduced, pivots = _eliminate(list(self.rows), self.ncols)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = 1 << f
            for row_idx, p in enumerate(pivots):
                if (reduced[row_idx] >> f) & 1:
                    vec |= 1 << p
            basis.append(vec)
        rows = [sum(((vec >> j) & 1) << k for k, vec in enumerate(basis)) for j in range(self.ncols)]
        return F2Matrix(self.ncols, len(basis), rows)

    def left_kernel_basis(self) -> "F2Matrix":
        """Matrix whose rows span the left null space {y : y @ self = 0}."""
        return self.transpose().kernel_basis().transpose()

    def column_space(self) -> "F2Matrix":
        """Matrix whose columns are a basis of the column span."""
        reduced, pivots = _eliminate(list(self.transpose().rows), self.nrows)
        cols = [reduced[i] for i in range(len(pivots))]
        rows = [sum(((c >> j) & 1) << k for k, c in enumerate(cols)) for j in range(self.nrows)]
        return F2Matrix(self.nrows, len(cols), rows)

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
        return F2Matrix(width, rhs.ncols, xrows)

    def solve_left(self, rhs: "F2Matrix") -> "F2Matrix":
        """A particular X with X @ self = rhs."""
        return self.transpose().solve(rhs.transpose()).transpose()


# Slot setters that bypass the immutability guard of __setattr__; __init__ alone uses them.
_set_nrows, _set_ncols, _set_rows = (getattr(F2Matrix, slot).__set__ for slot in F2Matrix.__slots__)


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """In-place Gauss-Jordan over GF(2); pivot search only on the first ncols columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if (rows[i] >> c) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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
    return F2Matrix(nrows, ncols, rows)
