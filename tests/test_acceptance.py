"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The cokernel rows of the sequence regression (C and CK) have no
closed form; criterion 9 certifies them by comparing the engine's closed
families with those of Horn rules read off the GF(2) oracle alone, and the
CK row is in addition the large Schröder numbers (OEIS A006318), generated
here from their recurrence rather than typed in.
"""

from __future__ import annotations

import random

import pytest

from intervalcat.closure import ClosureSpec, build_table, closure
from intervalcat.counting import (
    count_brute,
    count_layers,
    count_next_closure,
    iter_closed_sets,
    reference_sequence,
    sequence,
)
from intervalcat.intervals import (
    IntervalSet,
    all_intervals,
    cokernel_pair,
    cokernel_single,
    ext_middle,
    hom_dim,
    kernel_pair,
    kernel_single,
    quotients,
    subobjects,
    universe_size,
)
from intervalcat.oracle import (
    barcode,
    canonical_morphism,
    chain_equivalence_check,
    cokernel_rep,
    ext_dim,
    hom_space_dim,
    interval_quotient_barcodes,
    interval_submodule_barcodes,
    kernel_rep,
    module_of,
    morphism_between_sums,
)
from intervalcat.posets import ideals, subfunctor_count

from helpers import (
    all_specs,
    closed_masks,
    oracle_horn_rules,
    random_morphism_coeffs,
    random_poset,
    random_set,
    random_sum_members,
)


def large_schroeder(count: int) -> list[int]:
    """S_1, ..., S_count of the large Schröder numbers, OEIS A006318.

    Generated from S_0 = 1, S_1 = 2 and the recurrence
    (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2}.
    """
    s = [1, 2]
    for n in range(2, count + 1):
        s.append((3 * (2 * n - 1) * s[-1] - (n - 2) * s[-2]) // (n + 1))
    return s[1 : count + 1]


REFERENCE_SEQUENCES = {
    "QSE": [2, 4, 8, 16, 32, 64],
    "CKE": [2, 5, 14, 42, 132, 429],
    "QE": [2, 5, 14, 42, 132, 429],
    "QS": [2, 5, 14, 42, 132, 429],
    "Q": [2, 6, 24, 120, 720, 5040],
    "E": [2, 7, 34, 199, 1308, 9300],
    "CK": large_schroeder(6),
    "C": [2, 7, 37, 265, 2396, 26118],
}


def _report(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.mark.parametrize("ops", sorted(REFERENCE_SEQUENCES))
def test_criterion_1_sequence_regression(ops):
    expected = REFERENCE_SEQUENCES[ops]
    got = list(sequence(ClosureSpec.parse(ops), 6))
    ok = got == expected
    _report(f"criterion 1, #({','.join(ops)}) for n=1..6", ok)
    assert got == expected, f"#({ops}) enumerates to {got}, reference row is {expected}"


def test_criterion_1_rows_past_six():
    """The C row equals its dual K row through n = 8, and CK is S_1..S_10."""
    c_row = list(sequence(ClosureSpec.parse("C"), 8))
    assert c_row[:6] == REFERENCE_SEQUENCES["C"]
    assert c_row == list(sequence(ClosureSpec.parse("K"), 8))
    assert list(sequence(ClosureSpec.parse("CK"), 10)) == large_schroeder(10)
    _report("criterion 1, #(C) = #(K) for n <= 8 and #(C,K) = Schröder for n <= 10", True)


def test_criterion_2_formula_checks():
    empty = ClosureSpec.parse("")
    got = list(sequence(empty, 6))
    want = [2 ** (n * (n + 1) // 2) for n in range(1, 7)]
    assert got == want
    assert got[5] == 2097152

    for spec in all_specs():
        for n in range(1, 7):
            ref = reference_sequence(spec, n)
            if ref is None:
                continue
            assert count_next_closure(n, spec) == ref, (str(spec), n)
    _report("criterion 2, closed-form formula checks", True)


def test_criterion_3_algorithm_cross_validation():
    for spec in all_specs():
        for n in range(1, 5):
            brute = count_brute(n, spec)
            nc = count_next_closure(n, spec)
            assert brute == nc, (str(spec), n)
            assert count_layers(n, spec) == nc, (str(spec), n)
    _report("criterion 3, brute = next-closure = layers for all 32 specs, n <= 4", True)


def test_criterion_4_oracle_equivalence():
    for n in range(1, 7):
        ivs = all_intervals(n)
        mods = {x: module_of(x, n) for x in ivs}
        for x in ivs:
            for y in ivs:
                assert hom_space_dim(mods[x], mods[y]) == hom_dim(x, y)
                d = ext_dim(mods[y], mods[x])
                assert d in (0, 1)
                assert (d == 1) == (ext_middle(y, x) is not None)
        for x in ivs:
            targets = [y for y in ivs if hom_dim(x, y)]
            for y in targets:
                got = barcode(cokernel_rep(canonical_morphism(x, y, n)))
                assert got == cokernel_single(x, y)
            for i, y1 in enumerate(targets):
                for y2 in targets[i:]:
                    f = morphism_between_sums(n, [x], [y1, y2], {(0, 0): 1, (0, 1): 1})
                    assert barcode(cokernel_rep(f)) == cokernel_pair(x, y1, y2)
            sources = [y for y in ivs if hom_dim(y, x)]
            for y in sources:
                got = barcode(kernel_rep(canonical_morphism(y, x, n)))
                assert got == kernel_single(y, x)
            for i, y1 in enumerate(sources):
                for y2 in sources[i:]:
                    f = morphism_between_sums(n, [y1, y2], [x], {(0, 0): 1, (1, 0): 1})
                    assert barcode(kernel_rep(f)) == kernel_pair(y1, y2, x)

        for x in ivs:
            assert interval_submodule_barcodes(x, n) == sorted((s,) for s in subobjects(x))
            assert interval_quotient_barcodes(x, n) == sorted((q,) for q in quotients(x))

    rng = random.Random(2024)
    c_spec = ClosureSpec.parse("C")
    for n in range(1, 6):
        pool = all_intervals(n)
        for _ in range(1000):
            srcs = random_sum_members(rng, pool, 3)
            tgts = random_sum_members(rng, pool, 3)
            f = morphism_between_sums(n, srcs, tgts, random_morphism_coeffs(rng, srcs, tgts))
            supports = closure(IntervalSet.of(n, srcs + tgts), c_spec)
            assert IntervalSet.of(n, barcode(cokernel_rep(f))).mask & ~supports.mask == 0
    _report("criterion 4, oracle equivalence and cokernel soundness", True)


def test_criterion_5_closure_operator_laws():
    rng = random.Random(99)
    specs = all_specs()
    per_combo = 10000 // (6 * len(specs)) + 1
    checked = 0
    for n in range(1, 7):
        for spec in specs:
            for _ in range(per_combo):
                if checked >= 10000:
                    break
                s = random_set(rng, n)
                t = IntervalSet(n, s.mask | random_set(rng, n).mask)
                cs = closure(s, spec)
                assert s.mask & ~cs.mask == 0
                assert closure(cs, spec) == cs
                assert cs.mask & ~closure(t, spec).mask == 0
                checked += 1
    assert checked >= 10000

    for spec in specs:
        table = build_table(3, spec)
        closed = [m for m in range(1 << universe_size(3)) if table.is_closed(m)]
        closed_set = set(closed)
        for a in closed:
            for b in closed:
                assert (a & b) in closed_set
    _report("criterion 5, closure laws on 10000 sets and meet stability", True)


def test_criterion_6_duality():
    for n in range(1, 6):
        counts = {str(s): count_next_closure(n, s) for s in all_specs()}
        for s in all_specs():
            assert counts[str(s)] == counts[str(s.dual())], (str(s), n)
        import math

        assert counts["S"] == math.factorial(n + 1)
        assert counts["K"] == counts["C"]
    _report("criterion 6, count duality, #(S) = (n+1)!, #(K) = #(C)", True)


def test_criterion_7_poset_suite():
    rng = random.Random(7)
    posets = [random_poset(rng, rng.randint(1, 8)) for _ in range(100)]
    for p in posets:
        masks = set(ideals(p))
        assert all(a | b in masks and a & b in masks for a in masks for b in masks)
        for i, label in enumerate(p.elements):
            assert subfunctor_count(p, label) == len(ideals(p, p.down[i]))
    for n in range(1, 7):
        assert chain_equivalence_check(n)
    _report("criterion 7, poset suite on 100 random posets", True)


def test_criterion_8_length_bookkeeping():
    n = 5
    for src in all_intervals(n):
        for tgt in all_intervals(n):
            if not hom_dim(src, tgt):
                continue
            ker = sum(z.b - z.a + 1 for z in kernel_single(src, tgt))
            cok = sum(z.b - z.a + 1 for z in cokernel_single(src, tgt))
            assert ker + (tgt.b - tgt.a + 1) == (src.b - src.a + 1) + cok
    _report("criterion 8, exactness length bookkeeping at n <= 5", True)


def test_criterion_9_oracle_certificate():
    """The C and CK closed families equal those of oracle-only Horn rules, n <= 5.

    The rules come from every GF(2) map with one source and at most three
    targets (cokernels) or at most three sources and one target (kernels);
    the closure module docstring explains why these bounds lose nothing for
    n <= 6.  Whole families are compared, not just their sizes.
    """
    for n in range(1, 6):
        cok = oracle_horn_rules(n, cokernel_rep, max_sources=1, max_targets=3)
        ker = oracle_horn_rules(n, kernel_rep, max_sources=3, max_targets=1)
        for ops, rules in (("C", (cok,)), ("CK", (cok, ker))):
            want = closed_masks(n, *rules)
            got = {s.mask for s in iter_closed_sets(n, ClosureSpec.parse(ops))}
            assert got == want, (ops, n, sorted(got ^ want))
    _report("criterion 9, C and CK families equal oracle-rule families at n <= 5", True)
