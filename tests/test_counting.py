"""Counting paths, the layer transfer, sequences and lattice export."""

from __future__ import annotations

import json

import pytest

import intervalcat.counting as counting
from intervalcat.closure import ClosureSpec, build_table, is_closed
from intervalcat.counting import (
    _layer_family,
    _layer_kernel,
    _lectic_masks,
    _settle,
    count_brute,
    count_layers,
    count_next_closure,
    iter_closed_sets,
    lattice,
    reference_sequence,
    sequence,
)
from intervalcat.errors import CapExceeded
from intervalcat.intervals import IntervalSet, _iter_bits, hom_dim, universe_size
from intervalcat.oracle import barcode, cokernel_rep, morphism_between_sums

from helpers import closed_masks, hasse_covers


def spec(text: str) -> ClosureSpec:
    return ClosureSpec.parse(text)


def test_small_counts():
    assert count_next_closure(1, spec("QSCKE")) == 2
    assert count_brute(2, spec("E")) == 7
    assert count_brute(2, spec("CK")) == 6
    assert count_next_closure(3, spec("Q")) == 24
    assert count_next_closure(3, spec("E")) == 34
    assert count_next_closure(3, spec("CK")) == 22
    assert count_next_closure(3, spec("C")) == 37


def test_brute_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        count_brute(7, spec("Q"))
    monkeypatch.setattr(counting, "BRUTE_CAP_BITS", 6)
    assert count_brute(3, spec("Q")) == 24
    monkeypatch.setattr(counting, "BRUTE_CAP_BITS", 5)
    with pytest.raises(CapExceeded):
        count_brute(3, spec("Q"))


def test_brute_equals_next_closure_all_specs():
    for n in (1, 2, 3, 5):
        for s in ClosureSpec.all_specs():
            assert count_brute(n, s) == count_next_closure(n, s), (n, str(s))


def test_enumeration_is_lectic_and_distinct():
    seen = []
    for s in iter_closed_sets(3, spec("QE")):
        assert is_closed(s, spec("QE"))
        seen.append(s.mask)
    assert len(seen) == len(set(seen)) == 14
    # lectic order: successive sets differ first (lowest index) in the later set
    for a, b in zip(seen, seen[1:]):
        low = (a ^ b) & -(a ^ b)
        assert b & low


def _lectic_sorted(masks, size: int) -> list[int]:
    """Masks in lectic order: the lowest differing index decides, the set holding it is later.

    Reversing the bits makes index 0 the most significant one, so that order
    is the integer order of the reversed masks.
    """
    return sorted(masks, key=lambda m: int(format(m, f"0{size}b")[::-1], 2))


def _swept_closed_masks(n: int, s: ClosureSpec) -> set[int]:
    rules: dict[int, int] = {}
    for prem, conc in build_table(n, s).rules():
        rules[prem] = rules.get(prem, 0) | conc
    return closed_masks(n, rules)


def test_lectic_stream_is_exact_all_specs():
    """The enumeration stream is every closed set of the sweep, in lectic order."""
    for s in ClosureSpec.all_specs():
        for n in range(1, 6):
            stream = list(_lectic_masks(build_table(n, s)))
            assert stream == _lectic_sorted(_swept_closed_masks(n, s), universe_size(n)), (str(s), n)


def test_lectic_stream_past_five_all_specs():
    """At n = 6 the stream is strictly lectic, every set is closed, and the sweep counts as many."""
    n = 6
    for s in ClosureSpec.all_specs():
        if not s.flags:
            continue
        table = build_table(n, s)
        stream = list(_lectic_masks(table))
        # sorting the distinct masks gives the stream back only if it has no repeats
        assert stream == _lectic_sorted(set(stream), universe_size(n)), str(s)
        assert all(table.is_closed(mask) for mask in stream), str(s)
        assert len(stream) == count_brute(n, s), str(s)


def _layer_start(level: int) -> int:
    return level * (level + 1) // 2


def test_layer_kernel_equals_direct_check_all_specs():
    """F(X) from the kernel bitsets equals the closedness of every X | L, checked rule by rule.

    X runs over every closed set of each level, L over every subset of the
    next layer, and the table is that of n = 6.  The family is read both
    unsettled and settled on the bits below the last layer of X, as the
    transfer reads it, and on every bit of X.  The closed X come from the
    subset sweep, not from the enumeration, which walks this same kernel.
    """
    n = 6
    for s in ClosureSpec.all_specs():
        table = build_table(n, s)
        for level in range(n):
            fixed = _layer_start(level)
            full, rules = _layer_kernel(table, level)
            closed = _swept_closed_masks(level, s) if level else [0]
            for x in closed:
                want = sum(
                    1 << layer
                    for layer in range(1 << (level + 1))
                    if table.is_closed(x | (layer << fixed))
                )
                assert _layer_family(full, 0, rules, x) == want, (str(s), level, x)
                for known in ((1 << _layer_start(level - 1)) - 1, (1 << fixed) - 1):
                    got = _layer_family(full, *_settle(rules, x, known), x)
                    assert got == want, (str(s), level, x, known)


def test_closed_count_matches_oracle_closedness_semantics():
    # the enumerated sets for C are exactly the subsets containing the
    # cokernel barcode of every morphism between sums of two members
    from itertools import combinations_with_replacement, product

    n = 3
    closed = {s.mask for s in iter_closed_sets(n, spec("C"))}
    for mask in range(1 << universe_size(n)):
        members = IntervalSet(n, mask).members
        ok = True
        for srcs in combinations_with_replacement(members, 2):
            for tgts in combinations_with_replacement(members, 2):
                pairs = [
                    (i, j) for i in range(2) for j in range(2) if hom_dim(srcs[i], tgts[j])
                ]
                if not pairs:
                    continue
                for bits in product((0, 1), repeat=len(pairs)):
                    f = morphism_between_sums(n, list(srcs), list(tgts), dict(zip(pairs, bits)))
                    if any(b not in IntervalSet(n, mask) for b in barcode(cokernel_rep(f))):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        assert ok == (mask in closed), IntervalSet(n, mask).to_literal()


def test_layers_equal_next_closure_all_specs():
    for s in ClosureSpec.all_specs():
        counts = sequence(s, 6).counts()
        assert counts == [count_next_closure(n, s) for n in range(1, 7)], str(s)
        for n, count in enumerate(counts, start=1):
            ref = reference_sequence(s, n)
            assert ref is None or ref == count, (str(s), n)
    assert count_layers(6, spec("C")) == 26118
    with pytest.raises(ValueError):
        count_layers(0, spec("C"))


def test_layers_equal_next_closure_past_six():
    """The merged transfer agrees with the enumeration, which merges nothing, beyond n = 6."""
    for text, n, count in (("C", 7, 332723), ("K", 7, 332723), ("E", 8, 549559), ("CK", 8, 41586)):
        assert count_layers(n, spec(text)) == count_next_closure(n, spec(text)) == count, text


def test_layer_states_are_sufficient():
    """Equal families imply equal next families, checked on every closed set.

    The layer transfer keeps one representative per family; that is exact
    when every member X of a family class and every layer L of the family
    give the same F(X | L) as the representative does.  Here all closed sets
    of each level are grown without merging and the condition is checked for
    each of them, through level 6, which makes the transfer's counts for
    n <= 6 exact.  It proves nothing about larger n.
    """
    n = 6
    for s in ClosureSpec.all_specs():
        if not s.flags:
            continue
        table = build_table(n, s)
        kernels = [_layer_kernel(table, level) for level in range(n)]

        def family(level: int, x: int) -> int:
            full, rules = kernels[level]
            return _layer_family(full, 0, rules, x)

        closed = [0]
        for level in range(n - 1):
            classes: dict[int, list[int]] = {}
            for x in closed:
                classes.setdefault(family(level, x), []).append(x)
            shift = _layer_start(level)
            closed = []
            for fam, members in classes.items():
                rep = members[0]
                want = [family(level + 1, rep | (layer << shift)) for layer in _iter_bits(fam)]
                for x in members:
                    grown = [x | (layer << shift) for layer in _iter_bits(fam)]
                    assert [family(level + 1, g) for g in grown] == want, (str(s), level, x)
                    closed.extend(grown)


def test_empty_spec_family_is_every_layer_subset():
    # no rules, so the family of any set is the whole power set of the layer
    # and one state carries every closed set: nothing for the sufficiency test to check
    table = build_table(4, spec(""))
    for level in range(4):
        full, rules = _layer_kernel(table, level)
        assert full == (1 << (1 << (level + 1))) - 1 and not rules
        for x in (0, (1 << _layer_start(level)) - 1):
            assert _layer_family(full, 0, rules, x) == full


def test_reference_sequence():
    assert reference_sequence(spec("Q"), 6) == 5040
    assert reference_sequence(spec("S"), 5) == 720
    assert reference_sequence(spec("QS"), 3) == 14
    assert reference_sequence(spec("SE"), 4) == 42
    assert reference_sequence(spec("E"), 3) is None
    assert reference_sequence(spec("CK"), 3) is None
    assert reference_sequence(spec("C"), 4) is None
    assert reference_sequence(spec(""), 5) == 32768
    assert reference_sequence(spec("QSE"), 6) == 64
    # implied flags are normalised away: cokernels come with quotients
    assert reference_sequence(spec("QC"), 4) == 120
    assert reference_sequence(spec("SKE"), 4) == 42


def test_sequence_reports():
    rep = sequence(spec("QE"), 5)
    assert rep.counts() == [2, 5, 14, 42, 132]
    assert rep.algorithm == "layers"
    assert [n for n, _ in rep.terms] == [1, 2, 3, 4, 5]
    assert len(rep.elapsed) == 5

    nc = sequence(spec("QE"), 5, algorithm="next-closure")
    assert nc.counts() == rep.counts() and nc.algorithm == "next-closure"

    brute = sequence(spec("QSE"), 4, algorithm="brute")
    assert brute.counts() == [2, 4, 8, 16]

    with pytest.raises(ValueError):
        sequence(spec("Q"), 0)
    with pytest.raises(ValueError):
        sequence(spec("Q"), 2, algorithm="magic")


def test_sequence_formats():
    rep = sequence(spec("QE"), 3)
    assert rep.to_csv() == "n,count\n1,2\n2,5\n3,14\n"
    assert rep.to_csv(reference=True).splitlines()[1] == "1,2,2,true"
    assert rep.to_bfile() == "1 2\n2 5\n3 14\n"
    doc = rep.to_json_dict()
    assert doc["ops"] == "QE"
    assert doc["terms"][2] == {"n": 3, "count": 14}
    json.dumps(doc)


def test_counts_monotone_under_more_flags():
    for n in (2, 3, 4):
        for base_str in ("", "Q", "E", "CK", "QS"):
            base = spec(base_str)
            base_count = count_next_closure(n, base)
            for extra in "QSCKE":
                bigger = ClosureSpec(base.flags | {extra})
                assert count_next_closure(n, bigger) <= base_count


def test_duality_of_counts():
    for n in (2, 3, 4):
        for s in ClosureSpec.all_specs():
            assert count_next_closure(n, s) == count_next_closure(n, s.dual()), str(s)


class TestLattice:
    def test_small_lattices(self):
        fam = lattice(2, spec("CKE"))
        assert len(fam.members) == 5
        fam1 = lattice(1, spec("Q"))
        assert len(fam1.members) == 2
        assert fam1.covers == ((0, 1),)

    def test_members_match_count_and_meet_closure(self):
        for s_str in ("E", "QS", "C"):
            s = spec(s_str)
            fam = lattice(3, s)
            assert len(fam.members) == count_next_closure(3, s)
            masks = {m.mask for m in fam.members}
            for a in masks:
                for b in masks:
                    assert (a & b) in masks

    def test_covers_form_transitive_reduction(self):
        fam = lattice(2, spec("E"))
        masks = [m.mask for m in fam.members]
        for lo, hi in fam.covers:
            assert masks[lo] & ~masks[hi] == 0 and masks[lo] != masks[hi]
            for k in range(len(masks)):
                if k in (lo, hi):
                    continue
                between = (
                    masks[lo] & ~masks[k] == 0
                    and masks[k] & ~masks[hi] == 0
                    and masks[k] not in (masks[lo], masks[hi])
                )
                assert not between

    def test_covers_equal_pairwise_reference_all_specs(self):
        for n in (1, 2, 3):
            for s in ClosureSpec.all_specs():
                fam = lattice(n, s)
                assert fam.covers == hasse_covers([m.mask for m in fam.members]), (n, str(s))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lattice(3, spec(""), max_members=10)

    def test_dot_export(self):
        txt = lattice(1, spec("Q")).to_dot()
        assert txt.startswith("digraph closed_sets {")
        assert 'n0 [label="{}"];' in txt
        assert 'n1 [label="{[1,1]}"];' in txt
        assert "n0 -> n1;" in txt

    def test_json_export(self):
        doc = lattice(2, spec("CKE")).to_json_dict()
        assert doc["n"] == 2 and doc["ops"] == "CKE"
        assert len(doc["members"]) == 5
        assert all(isinstance(m, list) for m in doc["members"])
        json.dumps(doc)
