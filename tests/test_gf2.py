"""GF(2) matrix primitives."""

from __future__ import annotations

import random

import pytest

from intervalcat.gf2 import F2Matrix, block_diag, rank_of_rows


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
    m = F2Matrix.identity(2)
    for name in ("nrows", "ncols", "rows", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert m.shape == (2, 2) and m.rows == (1, 2)


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
        ns = a.kernel_basis()
        assert ns.ncols == k - a.rank()
        prod = a @ ns
        assert all(r == 0 for r in prod.rows)
        assert ns.rank() == ns.ncols


def test_left_kernel_and_column_space():
    rng = random.Random(13)
    for _ in range(100):
        m, k = rng.randint(0, 6), rng.randint(0, 6)
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        lk = a.left_kernel_basis()
        assert lk.shape == (m - a.rank(), m)
        assert lk.rank() == lk.nrows
        assert all(r == 0 for r in (lk @ a).rows)
        cs = a.column_space()
        assert cs.ncols == a.rank()
        assert cs.rank() == a.rank()


def test_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(100):
        m, k, q = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
        a = F2Matrix(m, k, [rng.getrandbits(k) for _ in range(m)])
        x = F2Matrix(k, q, [rng.getrandbits(q) for _ in range(k)])
        rhs = a @ x
        got = a.solve(rhs)
        assert a @ got == rhs


def test_solve_inconsistent():
    a = F2Matrix.zeros(2, 2)
    rhs = F2Matrix(2, 2, (0b01, 0b00))
    with pytest.raises(ValueError):
        a.solve(rhs)


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


def _random_matrix(rng, nrows, ncols):
    return F2Matrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])


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
        checked(a.kernel_basis())
        checked(a.left_kernel_basis())
        checked(a.column_space())
        checked(a.solve(a @ _random_matrix(rng, k, q)))
        checked(a.solve_left(_random_matrix(rng, q, m) @ a))
        checked(block_diag([a, _random_matrix(rng, q, m), F2Matrix.zeros(k, 0)]))
    checked(block_diag([]))


def test_solve_left_matches_definition():
    rng = random.Random(31)
    for trial in range(300):
        m, k, q = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        if trial < 20:
            m, k = (0, k) if trial % 2 else (m, 0)
        a = _random_matrix(rng, m, k)
        rhs = _random_matrix(rng, q, m) @ a
        assert a.solve_left(rhs) @ a == rhs
        rank = a.rank()
        outside = next((1 << j for j in range(k) if rank_of_rows(a.rows + (1 << j,), k) > rank), None)
        if outside is not None:
            with pytest.raises(ValueError, match="inconsistent"):
                a.solve_left(F2Matrix(q + 1, k, rhs.rows + (outside,)))
        with pytest.raises(ValueError, match="rhs has 7 columns"):
            a.solve_left(F2Matrix.zeros(q, 7))
