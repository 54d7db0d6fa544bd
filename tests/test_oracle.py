"""The linear-algebra model against the endpoint formulas."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from intervalcat import gf2, oracle
from intervalcat.gf2 import F2Matrix
from intervalcat.intervals import (
    Interval,
    all_intervals,
    cokernel_pair,
    cokernel_single,
    ext_middle,
    hom_dim,
    image,
    kernel_pair,
    kernel_single,
    quotients,
    subobjects,
)
from intervalcat.oracle import (
    Representation,
    RepMorphism,
    barcode,
    canonical_morphism,
    cokernel_rep,
    direct_sum,
    ext_dim,
    generated_submodule,
    hom_space_dim,
    image_rep,
    interval_quotient_barcodes,
    interval_submodule_barcodes,
    kernel_rep,
    module_of,
    morphism_between_sums,
    sum_of,
    zero_rep,
)

from helpers import (
    barcode_by_ranks,
    cokernel_bars_by_ranks,
    kernel_bars_by_ranks,
    random_interval,
    random_morphism_coeffs,
    random_representation,
    random_sum_members,
)


def test_module_of_dims():
    assert module_of(Interval(1, 1), 2).dims == (1, 0)
    m = module_of(Interval(1, 2), 2)
    assert m.dims == (1, 1) and m.maps[0].shape == (1, 1) and m.maps[0].rows == (1,)
    assert module_of(Interval(2, 3), 4).dims == (0, 1, 1, 0)


def test_direct_sum_basics():
    assert direct_sum([], 3) == zero_rep(3)
    a = module_of(Interval(1, 2), 3)
    b = module_of(Interval(2, 3), 3)
    assert direct_sum([a, b]).dims == (1, 2, 1)
    with pytest.raises(ValueError):
        direct_sum([])
    with pytest.raises(ValueError):
        direct_sum([a, module_of(Interval(1, 1), 2)])


def test_barcode_single_modules():
    for n in range(1, 6):
        for x in all_intervals(n):
            assert barcode(module_of(x, n)) == (x,)


def test_barcode_examples():
    assert barcode(zero_rep(3)) == ()
    got = barcode(direct_sum([module_of(Interval(1, 2), 2), module_of(Interval(2, 2), 2)]))
    assert got == (Interval(1, 2), Interval(2, 2))


def test_barcode_additive_over_sums():
    rng = random.Random(23)
    for n in range(1, 6):
        for _ in range(30):
            xs = [random_interval(rng, n) for _ in range(rng.randint(0, 4))]
            got = barcode(sum_of(xs, n))
            assert Counter(got) == Counter(xs)


def test_barcode_equals_rank_inclusion_exclusion():
    # One pass up the arrows against the ranks of all composites, each
    # eliminated on its own, on arbitrary maps rather than sums of intervals.
    rng = random.Random(41)
    for n in range(1, 7):
        for _ in range(400):
            rep = random_representation(rng, n, 4)
            assert barcode(rep) == barcode_by_ranks(rep), rep.debug_text()


def test_kernel_and_cokernel_bars_from_ranks_alone():
    # The induced maps read off unit rows and columns give the bars that the
    # ranks of stacked composites give, with no kernel or cokernel built.
    rng = random.Random(43)
    for n in range(1, 6):
        pool = all_intervals(n)
        for _ in range(150):
            srcs = random_sum_members(rng, pool, 3)
            tgts = random_sum_members(rng, pool, 3)
            f = morphism_between_sums(n, srcs, tgts, random_morphism_coeffs(rng, srcs, tgts))
            assert barcode(kernel_rep(f)) == kernel_bars_by_ranks(f), (srcs, tgts)
            assert barcode(cokernel_rep(f)) == cokernel_bars_by_ranks(f), (srcs, tgts)


def test_blocks_that_do_not_commute_are_refused_by_induced_maps():
    # On two copies of [1, 2], blocks diag(1, 0) and diag(0, 1) do not
    # commute with the identity arrow: it carries the kernel e1 at vertex 2
    # out of the kernel e2 at vertex 1, the image e2 out of the image e1,
    # and does not factor through the cokernels.  Built past the check of
    # RepMorphism, every induced map read off the unit positions is refused.
    m = sum_of([Interval(1, 2), Interval(1, 2)], 2)
    blocks = (F2Matrix(2, 2, (0b01, 0b00)), F2Matrix(2, 2, (0b00, 0b10)))
    with pytest.raises(ValueError, match="do not commute"):
        RepMorphism(m, m, blocks)
    f = object.__new__(RepMorphism)
    for name, value in (("source", m), ("target", m), ("blocks", blocks)):
        object.__setattr__(f, name, value)
    # Twice: the memos of the induced maps store no failure, so the second
    # call checks again and is refused again.
    for _ in range(2):
        for rep_of in (kernel_rep, cokernel_rep, image_rep):
            with pytest.raises(ValueError, match="inconsistent linear system"):
                rep_of(f)


def test_lists_are_stored_as_tuples():
    # A representation or morphism built from lists equals, hashes and
    # decomposes like one built from tuples.
    one = F2Matrix.identity(1)
    listed = Representation(2, [1, 1], [one])
    tupled = Representation(2, (1, 1), (one,))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert barcode(listed) == barcode(tupled) == (Interval(1, 2),)
    f = RepMorphism(listed, tupled, [one, one])
    assert f.blocks == (one, one)
    assert barcode(kernel_rep(f)) == () and barcode(cokernel_rep(f)) == ()


MEMOS = (
    oracle._block, oracle._shared_sum, oracle._sub_square, oracle._quotient_square,
    oracle._from_maps, oracle.barcode,
)


def test_memos_give_what_a_cold_run_gives():
    # Random maps between sums drawn from a few intervals share blocks and
    # squares.  The first pass starts from empty memos; the second builds
    # every morphism again, so its hits are found by value, and must miss
    # nothing.  Both agree with each other and with the rank witnesses,
    # which share no code with the memos.
    rng = random.Random(47)
    cases = []
    for n in range(1, 6):
        pool = all_intervals(n)[: n + 2]
        for _ in range(60):
            srcs = random_sum_members(rng, pool, 3)
            tgts = random_sum_members(rng, pool, 3)
            cases.append((n, srcs, tgts, random_morphism_coeffs(rng, srcs, tgts)))

    def results():
        out = []
        for case in cases:
            f = morphism_between_sums(*case)
            reps = (kernel_rep(f), cokernel_rep(f), image_rep(f))
            bars = tuple(barcode(rep) for rep in reps)
            assert bars[:2] == (kernel_bars_by_ranks(f), cokernel_bars_by_ranks(f)), case
            assert bars == tuple(barcode_by_ranks(rep) for rep in reps), case
            out.append((reps, bars))
        return out

    for memo in MEMOS:
        memo.cache_clear()
    cold = results()
    misses = [memo.cache_info().misses for memo in MEMOS]
    assert results() == cold
    assert [memo.cache_info().misses for memo in MEMOS] == misses
    assert all(memo.cache_info().hits for memo in MEMOS)


def test_equal_inputs_give_the_same_objects():
    # Equal blocks, arrows and representations are one object each, so the
    # memos find their hits by identity.  Cleared first, so that no earlier
    # eviction has left two equal objects in the memos.
    for memo in MEMOS:
        memo.cache_clear()
    n = 4
    srcs, tgts = [Interval(1, 3), Interval(2, 3)], [Interval(2, 4), Interval(3, 4)]
    coeffs = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    f = morphism_between_sums(n, srcs, tgts, coeffs)
    g = morphism_between_sums(n, list(srcs), tuple(tgts), dict(coeffs))
    assert f == g and f is not g
    assert all(a is b for a, b in zip(f.blocks, g.blocks))
    assert all(a is b for a, b in zip(f.source.maps + f.target.maps, g.source.maps + g.target.maps))
    for rep_of in (kernel_rep, cokernel_rep, image_rep):
        assert rep_of(f) is rep_of(g)
    kernel, cokernel = kernel_rep(f), cokernel_rep(f)
    assert barcode(kernel) == kernel_bars_by_ranks(f) and barcode(cokernel) == cokernel_bars_by_ranks(f)
    assert barcode(kernel) and barcode(cokernel)
    # A block of another morphism, and an induced map, equal to one of
    # these is the same object too.
    one = oracle._block(1, 1, (1,))
    assert canonical_morphism(Interval(2, 3), Interval(2, 3), n).blocks[1] is one
    assert oracle._shared_sum((Interval(1, 3),), n)[0].maps[0] is one
    assert kernel.maps[0] is one
    assert all(m is oracle._interned(m) for rep in (kernel, cokernel, image_rep(f)) for m in rep.maps)


def test_memo_hits_do_no_elimination(monkeypatch):
    # Bases are solved only on a square miss, and the dimension at vertex n
    # is read off the last induced map, so a morphism rebuilt from equal
    # summands and coefficients finds every representation and barcode
    # with no elimination.  Cleared first, so that nothing is evicted
    # between the two passes.
    for memo in MEMOS:
        memo.cache_clear()
    rng = random.Random(53)
    cases = []
    for n in range(2, 6):
        pool = all_intervals(n)
        for _ in range(20):
            srcs = random_sum_members(rng, pool, 3)
            tgts = random_sum_members(rng, pool, 3)
            coeffs = random_morphism_coeffs(rng, srcs, tgts)
            f = morphism_between_sums(n, srcs, tgts, coeffs)
            reps = (kernel_rep(f), cokernel_rep(f), image_rep(f))
            cases.append((n, srcs, tgts, coeffs, reps, tuple(barcode(rep) for rep in reps)))

    def eliminate(rows, ncols):
        raise AssertionError("eliminated")

    monkeypatch.setattr(gf2, "_eliminate", eliminate)
    for n, srcs, tgts, coeffs, reps, bars in cases:
        g = morphism_between_sums(n, tuple(srcs), list(tgts), dict(coeffs))
        again = (kernel_rep(g), cokernel_rep(g), image_rep(g))
        assert all(a is b for a, b in zip(again, reps)), (srcs, tgts)
        assert tuple(barcode(rep) for rep in again) == bars, (srcs, tgts)
    # n = 1 has no arrow, so the dimension at its vertex comes from a basis.
    one = Interval(1, 1)
    f = morphism_between_sums(1, [one, one], [one, one], {(0, 0): 1, (1, 0): 1})
    for rep_of in (kernel_rep, cokernel_rep):
        with pytest.raises(AssertionError, match="eliminated"):
            rep_of(f)
    monkeypatch.undo()
    assert barcode(kernel_rep(f)) == kernel_bars_by_ranks(f) == (one,)
    assert barcode(cokernel_rep(f)) == cokernel_bars_by_ranks(f) == (one,)


def test_memos_store_no_failure():
    # Valid calls fill the memos first; every bad input is still refused
    # on every call, and leaves no entry behind.
    one, zero = oracle._block(1, 1, (1,)), oracle._block(1, 1, (0,))
    m = module_of(Interval(1, 2), 2)
    assert RepMorphism(m, m, (one, one)).blocks == (one, one)
    morphism_between_sums(2, [Interval(1, 2)], [Interval(1, 2)], {(0, 0): 1})
    entries = oracle._block.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="row 0x2 out of range for 1 columns"):
            oracle._block(1, 1, (2,))
        with pytest.raises(ValueError, match="do not commute"):
            RepMorphism(m, m, (one, zero))
    assert oracle._block.cache_info().currsize == entries


def test_hom_space_matches_hom_dim():
    for n in range(1, 5):
        for x in all_intervals(n):
            for y in all_intervals(n):
                got = hom_space_dim(module_of(x, n), module_of(y, n))
                assert got == hom_dim(x, y), (x, y)


def test_hom_space_additivity():
    n = 3
    x, y, z = Interval(1, 2), Interval(2, 3), Interval(2, 2)
    lhs = hom_space_dim(sum_of([x, y], n), module_of(z, n))
    rhs = hom_space_dim(module_of(x, n), module_of(z, n)) + hom_space_dim(
        module_of(y, n), module_of(z, n)
    )
    assert lhs == rhs
    assert hom_space_dim(module_of(x, n), zero_rep(n)) == 0


def test_ext_dim_examples():
    assert ext_dim(module_of(Interval(2, 2), 2), module_of(Interval(1, 1), 2)) == 1
    assert ext_dim(module_of(Interval(1, 1), 2), module_of(Interval(2, 2), 2)) == 0
    # modules starting at 1 admit no extensions out of them
    for b in range(1, 5):
        for x in all_intervals(4):
            assert ext_dim(module_of(Interval(1, b), 4), module_of(x, 4)) == 0


def test_ext_dim_matches_ext_middle():
    for n in range(1, 5):
        for lower in all_intervals(n):
            for upper in all_intervals(n):
                d = ext_dim(module_of(upper, n), module_of(lower, n))
                assert d in (0, 1)
                assert (d == 1) == (ext_middle(upper, lower) is not None), (upper, lower)


def test_ext_middle_realised_by_short_exact_sequence():
    # the asserted middle term really surjects onto the top with the bottom as kernel
    for n in range(2, 5):
        for lower in all_intervals(n):
            for upper in all_intervals(n):
                got = ext_middle(upper, lower)
                if got is None:
                    continue
                y, yp = got
                mids = [y] + ([yp] if yp else [])
                coeffs = {(i, 0): 1 for i in range(len(mids))}
                f = morphism_between_sums(n, mids, [upper], coeffs)
                assert barcode(cokernel_rep(f)) == ()
                assert barcode(kernel_rep(f)) == (lower,)


def test_morphism_validation():
    with pytest.raises(ValueError):
        canonical_morphism(Interval(2, 2), Interval(1, 1), 2)
    with pytest.raises(ValueError):
        morphism_between_sums(2, [Interval(1, 1)], [Interval(2, 2)], {(0, 0): 1})
    bad_blocks = (
        module_of(Interval(1, 2), 2).maps[0],
    )
    with pytest.raises(ValueError):
        RepMorphism(module_of(Interval(1, 1), 1), module_of(Interval(1, 1), 1), bad_blocks * 0)


def test_morphism_rejects_blocks_that_do_not_commute():
    one = F2Matrix.identity(1)
    m = module_of(Interval(1, 2), 2)
    RepMorphism(m, m, (one, one))
    with pytest.raises(ValueError, match="do not commute"):
        RepMorphism(m, m, (one, F2Matrix.zeros(1, 1)))
    # Every choice of correctly shaped blocks is accepted exactly when each
    # square commutes as a matrix product.
    rng = random.Random(37)
    n = 3
    pool = all_intervals(n)
    for _ in range(200):
        s = sum_of([rng.choice(pool) for _ in range(rng.randint(0, 3))], n)
        t = sum_of([rng.choice(pool) for _ in range(rng.randint(0, 3))], n)
        blocks = tuple(
            F2Matrix(t.dims[v], s.dims[v], [rng.getrandbits(s.dims[v]) for _ in range(t.dims[v])])
            for v in range(n)
        )
        commutes = all(
            blocks[k] @ s.maps[k] == t.maps[k] @ blocks[k + 1] for k in range(n - 1)
        )
        if commutes:
            assert RepMorphism(s, t, blocks).blocks == blocks
        else:
            with pytest.raises(ValueError, match="do not commute"):
                RepMorphism(s, t, blocks)


def test_morphism_between_sums_takes_any_iterable():
    n = 4
    srcs = [Interval(2, 3)]
    tgts = [Interval(2, 4), Interval(3, 3), Interval(2, 3)]
    coeffs = {(0, 0): 1, (0, 2): 1}
    f = morphism_between_sums(n, srcs, tgts, coeffs)
    assert morphism_between_sums(n, tuple(srcs), tuple(tgts), coeffs) == f
    assert morphism_between_sums(n, iter(srcs), (y for y in tgts), coeffs) == f


def test_shared_sums_keep_morphisms_independent():
    n = 3
    srcs, tgts = [Interval(2, 2)], [Interval(2, 3), Interval(2, 2)]
    f = morphism_between_sums(n, srcs, tgts, {(0, 0): 1})
    g = morphism_between_sums(n, srcs, tgts, {(0, 0): 1, (0, 1): 1})
    assert f.source is g.source and f.target is g.target
    assert f.blocks != g.blocks
    assert barcode(cokernel_rep(g)) == (Interval(2, 3),)
    assert barcode(cokernel_rep(f)) == (Interval(2, 2), Interval(3, 3))
    assert morphism_between_sums(n, srcs, tgts, {(0, 0): 1}) == f


def test_morphism_validation_with_warm_sums():
    srcs, tgts = [Interval(1, 1)], [Interval(2, 2)]
    morphism_between_sums(2, srcs, tgts, {})
    with pytest.raises(ValueError, match="is zero"):
        morphism_between_sums(2, srcs, tgts, {(0, 0): 1})
    for key in ((1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            morphism_between_sums(2, srcs, tgts, {key: 1})
    # an even coefficient sets nothing, but its index is still checked
    for key in ((5, 7), (0, 1), (-1, 0)):
        with pytest.raises(ValueError, match=r"coefficient index .* out of range"):
            morphism_between_sums(2, srcs, tgts, {key: 0})
    assert morphism_between_sums(2, srcs, tgts, {(0, 0): 0}) == morphism_between_sums(2, srcs, tgts, {})
    wide = [Interval(1, 3)]
    morphism_between_sums(3, wide, wide, {(0, 0): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="does not fit"):
            morphism_between_sums(2, wide, tgts, {})


def test_kernel_cokernel_image_reps_vertexwise_ranks():
    rng = random.Random(29)
    n = 4
    pool = all_intervals(n)
    for _ in range(100):
        srcs = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        tgts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        coeffs = {
            (i, j): 1
            for i in range(len(srcs))
            for j in range(len(tgts))
            if hom_dim(srcs[i], tgts[j]) and rng.random() < 0.7
        }
        f = morphism_between_sums(n, srcs, tgts, coeffs)
        ker, img, cok = kernel_rep(f), image_rep(f), cokernel_rep(f)
        for v in range(n):
            rank = f.blocks[v].rank()
            assert ker.dims[v] == f.source.dims[v] - rank
            assert img.dims[v] == rank
            assert cok.dims[v] == f.target.dims[v] - rank


def test_cokernel_diagonal_example():
    f = morphism_between_sums(
        3, [Interval(2, 2)], [Interval(2, 3), Interval(2, 2)], {(0, 0): 1, (0, 1): 1}
    )
    cok = cokernel_rep(f)
    assert cok.dims == (0, 1, 1)
    assert barcode(cok) == (Interval(2, 3),)


def test_cokernel_formulas_exhaustive():
    for n in range(1, 5):
        ivs = all_intervals(n)
        for x in ivs:
            targets = [y for y in ivs if hom_dim(x, y)]
            for y in targets:
                got = barcode(cokernel_rep(canonical_morphism(x, y, n)))
                assert got == cokernel_single(x, y), (x, y)
            for i, y1 in enumerate(targets):
                for y2 in targets[i:]:
                    f = morphism_between_sums(n, [x], [y1, y2], {(0, 0): 1, (0, 1): 1})
                    got = barcode(cokernel_rep(f))
                    assert got == cokernel_pair(x, y1, y2), (x, y1, y2)


def test_kernel_formulas_exhaustive():
    for n in range(1, 5):
        ivs = all_intervals(n)
        for x in ivs:
            sources = [y for y in ivs if hom_dim(y, x)]
            for y in sources:
                got = barcode(kernel_rep(canonical_morphism(y, x, n)))
                assert got == kernel_single(y, x), (y, x)
            for i, y1 in enumerate(sources):
                for y2 in sources[i:]:
                    f = morphism_between_sums(n, [y1, y2], [x], {(0, 0): 1, (1, 0): 1})
                    got = barcode(kernel_rep(f))
                    assert got == kernel_pair(y1, y2, x), (y1, y2, x)


def test_image_formula_exhaustive():
    n = 4
    for x in all_intervals(n):
        for y in all_intervals(n):
            if hom_dim(x, y):
                got = barcode(image_rep(canonical_morphism(x, y, n)))
                assert got == (image(x, y),)


def test_sub_and_quotient_enumeration_match_formulas():
    for n in range(1, 5):
        for x in all_intervals(n):
            subs = interval_submodule_barcodes(x, n)
            assert subs == sorted((s,) for s in subobjects(x))
            quos = interval_quotient_barcodes(x, n)
            assert quos == sorted((q,) for q in quotients(x))


def test_generated_submodule():
    n = 3
    rep = sum_of([Interval(1, 2), Interval(2, 3)], n)
    # generate by the diagonal vector at vertex 2
    incl = generated_submodule(rep, [(2, 0b11)])
    assert incl.target == rep
    assert barcode(incl.source) == (Interval(1, 2),)
    # generating with every basis vector recovers the module
    gens = [(v + 1, 1 << i) for v in range(n) for i in range(rep.dims[v])]
    full = generated_submodule(rep, gens)
    assert barcode(full.source) == barcode(rep)
