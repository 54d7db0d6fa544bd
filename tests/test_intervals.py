"""Endpoint arithmetic: indexing, homs, quotients, extensions, (co)kernels."""

from __future__ import annotations

import random

import pytest

from intervalcat.intervals import (
    Interval,
    IntervalSet,
    all_intervals,
    cokernel_pair,
    cokernel_single,
    dual,
    ext_middle,
    hom_dim,
    image,
    interval_from_index,
    kernel_pair,
    kernel_single,
    quotients,
    subobjects,
    universe_size,
)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(0, 3)


def test_index_is_bijective_and_prefix_stable():
    for n in range(1, 8):
        ivs = all_intervals(n)
        assert len(ivs) == universe_size(n)
        assert [iv.index for iv in ivs] == list(range(len(ivs)))
        assert all(interval_from_index(iv.index) == iv for iv in ivs)
    assert all_intervals(4)[: universe_size(3)] == all_intervals(3)


def test_all_intervals_examples():
    assert all_intervals(1) == [Interval(1, 1)]
    assert all_intervals(2) == [Interval(1, 1), Interval(1, 2), Interval(2, 2)]
    assert len(all_intervals(3)) == 6
    assert all_intervals(3)[-1] == Interval(3, 3)


def test_hom_dim_examples():
    assert hom_dim(Interval(1, 2), Interval(2, 3)) == 1
    assert hom_dim(Interval(1, 1), Interval(2, 2)) == 0
    for x in all_intervals(4):
        assert hom_dim(x, x) == 1


def test_hom_duality():
    n = 4
    for x in all_intervals(n):
        for y in all_intervals(n):
            assert hom_dim(x, y) == hom_dim(dual(y, n), dual(x, n))


def test_image():
    assert image(Interval(1, 2), Interval(2, 3)) == Interval(2, 2)
    assert image(Interval(1, 1), Interval(2, 2)) is None
    for x in all_intervals(3):
        assert image(x, x) == x


def test_quotients_and_subobjects():
    assert quotients(Interval(1, 2)) == [Interval(1, 2), Interval(2, 2)]
    assert quotients(Interval(1, 3)) == [Interval(1, 3), Interval(2, 3), Interval(3, 3)]
    assert quotients(Interval(2, 2)) == [Interval(2, 2)]
    assert subobjects(Interval(1, 2)) == [Interval(1, 1), Interval(1, 2)]
    assert subobjects(Interval(3, 3)) == [Interval(3, 3)]


def test_subobjects_are_dual_quotients():
    n = 5
    for x in all_intervals(n):
        via_dual = sorted(dual(q, n) for q in quotients(dual(x, n)))
        assert sorted(subobjects(x)) == via_dual


def test_ext_middle_examples():
    assert ext_middle(Interval(2, 2), Interval(1, 1)) == (Interval(1, 2), None)
    assert ext_middle(Interval(2, 3), Interval(1, 2)) == (Interval(1, 3), Interval(2, 2))
    assert ext_middle(Interval(1, 1), Interval(2, 2)) is None
    # boundary cases only produce split sequences, so there is no middle term
    assert ext_middle(Interval(1, 2), Interval(1, 1)) is None
    for x in all_intervals(4):
        assert ext_middle(x, x) is None


def test_ext_middle_length_bookkeeping():
    n = 5
    for lower in all_intervals(n):
        for upper in all_intervals(n):
            middle = ext_middle(upper, lower)
            if middle is None:
                continue
            y, yp = middle
            total = (y.b - y.a + 1) + (yp.b - yp.a + 1 if yp else 0)
            assert total == (lower.b - lower.a + 1) + (upper.b - upper.a + 1)


def test_cokernel_single():
    assert cokernel_single(Interval(1, 2), Interval(2, 3)) == (Interval(3, 3),)
    assert cokernel_single(Interval(1, 3), Interval(2, 3)) == ()
    assert cokernel_single(Interval(2, 4), Interval(2, 4)) == ()
    with pytest.raises(ValueError):
        cokernel_single(Interval(2, 2), Interval(1, 1))


def test_cokernel_pair_examples():
    assert cokernel_pair(Interval(2, 2), Interval(2, 3), Interval(2, 2)) == (Interval(2, 3),)
    assert cokernel_pair(Interval(1, 2), Interval(1, 3), Interval(2, 2)) == (Interval(2, 3),)
    assert cokernel_pair(Interval(1, 1), Interval(1, 1), Interval(1, 1)) == (Interval(1, 1),)


def test_kernel_single():
    assert kernel_single(Interval(1, 2), Interval(2, 2)) == (Interval(1, 1),)
    assert kernel_single(Interval(3, 3), Interval(3, 3)) == ()
    with pytest.raises(ValueError):
        kernel_single(Interval(2, 2), Interval(1, 1))


def test_kernels_are_dual_cokernels():
    n = 4
    ivs = all_intervals(n)
    for src in ivs:
        for tgt in ivs:
            if not hom_dim(src, tgt):
                continue
            conj = sorted(
                dual(z, n) for z in cokernel_single(dual(tgt, n), dual(src, n))
            )
            assert sorted(kernel_single(src, tgt)) == conj
    for tgt in ivs:
        sources = [y for y in ivs if hom_dim(y, tgt)]
        for i, y1 in enumerate(sources):
            for y2 in sources[i:]:
                conj = sorted(
                    dual(z, n)
                    for z in cokernel_pair(dual(tgt, n), dual(y1, n), dual(y2, n))
                )
                assert sorted(kernel_pair(y1, y2, tgt)) == conj


def test_exactness_bookkeeping_single_maps():
    n = 5
    for src in all_intervals(n):
        for tgt in all_intervals(n):
            if not hom_dim(src, tgt):
                continue
            ker = sum(z.b - z.a + 1 for z in kernel_single(src, tgt))
            cok = sum(z.b - z.a + 1 for z in cokernel_single(src, tgt))
            assert ker + (tgt.b - tgt.a + 1) == cok + (src.b - src.a + 1)


def test_dual():
    assert dual(Interval(1, 2), 3) == Interval(2, 3)
    assert dual(Interval(1, 1), 1) == Interval(1, 1)
    for x in all_intervals(5):
        assert dual(dual(x, 5), 5) == x
    with pytest.raises(ValueError):
        dual(Interval(2, 4), 3)


def test_interval_text_roundtrip():
    for iv in all_intervals(4):
        assert Interval.from_text(iv.to_text()) == iv
    with pytest.raises(ValueError):
        Interval.from_text("1;2")


class TestIntervalSet:
    def test_mask_roundtrip(self):
        s = IntervalSet.of(3, [Interval(1, 1), Interval(2, 3)])
        assert s.mask == (1 << 0) | (1 << 4)
        assert IntervalSet(3, s.mask).members == (Interval(1, 1), Interval(2, 3))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            IntervalSet.of(2, [Interval(1, 3)])
        with pytest.raises(ValueError):
            IntervalSet(2, 1 << 3)

    def test_literal_roundtrip(self):
        s = IntervalSet.of(3, [Interval(1, 2), Interval(3, 3)])
        assert s.to_literal() == "1,2;3,3"
        assert IntervalSet.from_literal(3, "3,3; 1,2") == s
        assert IntervalSet.from_literal(3, "") == IntervalSet.empty(3)

    def test_literal_equals_per_member_join(self):
        # the cached wire forms give the bytes of joining each member's to_text
        masks = [(n, m) for n in (1, 2, 3) for m in range(1 << universe_size(n))]
        rng = random.Random(47)
        masks += [(7, rng.getrandbits(universe_size(7))) for _ in range(200)]
        for n, m in masks:
            s = IntervalSet(n, m)
            assert s.to_literal() == ";".join(iv.to_text() for iv in s.members), (n, m)

    def test_dual_set(self):
        s = IntervalSet.of(3, [Interval(1, 1), Interval(1, 2)])
        assert set(s.dual().members) == {Interval(3, 3), Interval(2, 3)}
        assert s.dual().dual() == s
