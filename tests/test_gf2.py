"""GF(2) matrix primitives."""

from __future__ import annotations

import random

import pytest

from intervalcat.gf2 import F2Matrix, block_diag, rank_of_rows, rows_at_units


def test_rank_examples():
    assert F2Matrix.identity(3).rank() == 3
    assert F2Matrix.zeros(2, 4).rank() == 0
    assert F2Matrix(2, 2, (0b11, 0b11)).rank() == 1


def test_shapes_validated():
    with pytest.raises(ValueError):
        F2Matrix(2, 2, (1, 4))  # 4 needs a third column
    with pytest.raises(ValueError, match="bad shape"):
        F2Matrix(-1, 2)
    with pytest.raises(ValueError, match="bad shape"):
        F2Matrix.identity(-1)


def test_constructor_validation():
    with pytest.raises(ValueError, match="row -0x1 out of range"):
        F2Matrix(2, 2, (1, -1))
    with pytest.raises(ValueError, match="row 0x1 out of range for 0 columns"):
        F2Matrix(1, 0, (1,))
    with pytest.raises(ValueError, match="row 0x4 out of range"):  # the first bad row is named
        F2Matrix(3, 2, (4, 1, 8))
    with pytest.raises(ValueError, match="expected 2 rows, got 3"):
        F2Matrix(2, 3, (1, 2, 3))
    with pytest.raises(ValueError, match="expected 2 rows, got 0"):
        F2Matrix(2, 3, [])
    assert F2Matrix(0, 3, []).shape == (0, 3)
    assert F2Matrix(2, 3) == F2Matrix.zeros(2, 3) == F2Matrix(2, 3, [0, 0])
    m = F2Matrix.identity(2)
    for name in F2Matrix.__slots__ + ("other",):  # the cached hash too
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert m.shape == (2, 2) and m.rows == (1, 2) and hash(m) == hash(F2Matrix.identity(2))


def test_matmul():
    a = F2Matrix(2, 3, (0b011, 0b110))
    b = F2Matrix(3, 2, (0b01, 0b11, 0b10))
    assert a @ b == F2Matrix(2, 2, (0b10, 0b01))
    with pytest.raises(ValueError):
        b @ b


def test_matmul_associative_random():
    rng = random.Random(7)
    for _ in range(50):
        m, k, l, p = (rng.randint(0, 5) for _ in range(4))
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        b = F2Matrix(k, l, [rng.getrandbits(l) for _ in range(k)])
        c = F2Matrix(l, p, [rng.getrandbits(p) for _ in range(l)])
        assert (a @ b) @ c == a @ (b @ c)


def test_kernel_basis_spans_nullspace():
    rng = random.Random(11)
    for _ in range(100):
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        ns, free = a.kernel_basis()
        assert ns.ncols == k - a.rank() == len(free)
        prod = a @ ns
        assert all(r == 0 for r in prod.rows)
        assert ns.rank() == ns.ncols
        assert [ns.rows[f] for f in free] == [1 << i for i in range(len(free))]


def test_left_kernel_and_column_space():
    rng = random.Random(13)
    for _ in range(100):
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        # the left kernel is the transpose of the kernel of the transpose
        kt, units = a.transpose().kernel_basis()
        lk = kt.transpose()
        assert lk.shape == (m - a.rank(), m)
        assert lk.rank() == lk.nrows
        assert all(r == 0 for r in (lk @ a).rows)
        # column units[i] of the left kernel is the unit vector e_i
        assert [kt.rows[u] for u in units] == [1 << i for i in range(lk.nrows)]
        cs, pivots = a.column_space()
        assert cs.ncols == a.rank()
        assert cs.rank() == a.rank()
        assert rank_of_rows(a.transpose().rows + cs.transpose().rows, m) == a.rank()
        assert [cs.rows[p] for p in pivots] == [1 << i for i in range(cs.ncols)]


def _random_matrix(rng, nrows, ncols):
    return F2Matrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])


def _outside(rows, width):
    """A unit vector of the given width outside the span of rows, or None."""
    rank = rank_of_rows(rows, width)
    return next((1 << j for j in range(width) if rank_of_rows(tuple(rows) + (1 << j,), width) > rank), None)


def _bases(rng, trials):
    """Random kernel and column-space bases with their unit rows, empty shapes first."""
    for trial in range(trials):
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        if trial < 20:
            m, k = (0, k) if trial % 2 else (m, 0)
        a = _random_matrix(rng, m, k)
        yield a.kernel_basis()
        yield a.column_space()


def test_solve_roundtrip():
    rng = random.Random(17)
    for basis, units in _bases(rng, 300):
        x = _random_matrix(rng, basis.ncols, rng.randint(0, 4))
        rhs = basis @ x
        assert rows_at_units(basis, units, rhs) == x
        with pytest.raises(ValueError, match=f"rhs has {basis.nrows + 1} rows"):
            rows_at_units(basis, units, F2Matrix.zeros(basis.nrows + 1, x.ncols))


def test_solve_inconsistent():
    # the column space of the zero matrix is empty, so no non-zero rhs is in it
    basis, units = F2Matrix.zeros(2, 2).column_space()
    with pytest.raises(ValueError, match="inconsistent"):
        rows_at_units(basis, units, F2Matrix(2, 2, (0b01, 0b00)))
    rng = random.Random(23)
    for basis, units in _bases(rng, 300):
        q = rng.randint(0, 4)
        rhs = basis @ _random_matrix(rng, basis.ncols, q)
        # a right-hand side with a column outside the span is refused
        outside = _outside(basis.transpose().rows, basis.nrows)
        if outside is not None:
            bad = F2Matrix(basis.nrows, q + 1, [r | ((outside >> i) & 1) << q for i, r in enumerate(rhs.rows)])
            with pytest.raises(ValueError, match="inconsistent"):
                rows_at_units(basis, units, bad)


def test_mat_vec_matches_matmul():
    rng = random.Random(19)
    for _ in range(50):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        v = rng.getrandbits(k)
        col = F2Matrix(k, 1, [(v >> i) & 1 for i in range(k)])
        assert a.mat_vec(v) == sum(r << i for i, r in enumerate((a @ col).rows))


def test_transpose_involution():
    a = F2Matrix(2, 3, (0b101, 0b110))
    assert a.transpose().transpose() == a
    assert a.transpose().shape == (3, 2)


def test_unchecked_results_are_valid():
    # Results built without the constructor's checks must survive the checked
    # rebuild unchanged, rows kept as a tuple, for shapes with 0 rows or 0 columns too.
    def checked(m):
        rebuilt = F2Matrix(m.nrows, m.ncols, m.rows)
        assert rebuilt == m and type(m.rows) is tuple
        return m

    rng = random.Random(23)
    for trial in range(300):
        m, k, q = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 4)
        if trial < 20:
            m, k = (0, k) if trial % 2 else (m, 0)
        a = _random_matrix(rng, m, k)
        checked(F2Matrix.identity(k))
        checked(a.transpose())
        checked(a @ _random_matrix(rng, k, q))
        for basis, units in (a.kernel_basis(), a.column_space()):
            checked(basis)
            checked(rows_at_units(basis, units, basis @ _random_matrix(rng, basis.ncols, q)))
        checked(block_diag([a, _random_matrix(rng, q, m), F2Matrix.zeros(k, 0)]))
    checked(block_diag([]))


def test_equality_and_hash():
    # Equal values compare and hash equal, whichever construction built
    # them: the checked constructor or one of the unchecked results.
    a = F2Matrix(2, 3, (0b101, 0b011))
    equal_groups = (
        (F2Matrix(2, 2, (0b01, 0b10)), F2Matrix.identity(2), F2Matrix.identity(2).transpose(),
         F2Matrix.identity(2) @ F2Matrix.identity(2)),
        (a, a.transpose().transpose(), a @ F2Matrix.identity(3), F2Matrix.identity(2) @ a,
         F2Matrix(3, 2, (0b11, 0b10, 0b01)).transpose()),
        (F2Matrix(0, 3), F2Matrix(0, 3, []), F2Matrix(3, 0).transpose(), F2Matrix(0, 2) @ F2Matrix(2, 3)),
    )
    for group in equal_groups:
        for x in group:
            for y in group:
                assert x == y and not x != y and hash(x) == hash(y), (x, y)
    # Unequal shapes are unequal values, also when both have no entries
    # or the same rows.
    unequal = (
        F2Matrix(0, 2), F2Matrix(0, 3), F2Matrix(2, 0), F2Matrix(3, 0),
        F2Matrix(1, 2, (1,)), F2Matrix(1, 3, (1,)), F2Matrix(2, 2), F2Matrix(2, 3),
    )
    for i, x in enumerate(unequal):
        for j, y in enumerate(unequal):
            assert (x == y) is (i == j) and (x != y) is (i != j), (x, y)
    assert len(set(unequal)) == len(unequal)
    assert F2Matrix.identity(1) != 1 and F2Matrix(0, 0) != ()
