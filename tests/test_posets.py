"""Finite posets, ideals, subfunctor counts, incidence algebras, the poset format."""

from __future__ import annotations

import random

import pytest

import intervalcat.posets as posets
from intervalcat.errors import CapExceeded
from intervalcat.posets import (
    FinitePoset,
    chain_equivalence_check,
    ideals,
    incidence_algebra,
    parse_poset,
    subfunctor_count,
)

from helpers import random_poset

DIAMOND_M3 = FinitePoset.from_relations(
    "0abc1", [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]
)
PENTAGON_N5 = FinitePoset.from_relations(
    "0xyz1", [("0", "x"), ("x", "1"), ("0", "y"), ("y", "z"), ("z", "1")]
)


class TestConstruction:
    def test_transitive_closure(self):
        p = FinitePoset.from_relations("abc", [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")
        assert not p.leq("c", "a")

    def test_cycle_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="cycle"):
            FinitePoset.from_relations("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="a <= b"):
            FinitePoset.from_relations("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            FinitePoset.from_relations(["a", "a"], [])

    def test_chain_antichain(self):
        assert FinitePoset.chain(3).is_chain()
        assert not FinitePoset.antichain(2).is_chain()
        assert FinitePoset.chain(1).is_chain()

    def test_restrict(self):
        p = FinitePoset.chain(4)
        sub = p.restrict(p.down[p.index(3)])
        assert len(sub) == 3 and sub.is_chain()


class TestIdeals:
    def test_chain_ideals_are_prefixes(self):
        for k in (1, 2, 5):
            assert len(ideals(FinitePoset.chain(k))) == k + 1

    def test_antichain_ideals_are_all_subsets(self):
        assert len(ideals(FinitePoset.antichain(2))) == 4
        assert len(ideals(FinitePoset.antichain(5))) == 32

    def test_empty_poset(self):
        empty = FinitePoset.from_relations([], [])
        assert ideals(empty) == (0,)

    def test_ideals_are_downward_closed_and_lattice_closed(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 7))
            masks = set(ideals(p))
            assert 0 in masks and (1 << len(p)) - 1 in masks
            for m in masks:
                for i in range(len(p)):
                    if (m >> i) & 1:
                        assert p.down[i] & ~m == 0
            for a in masks:
                for b in masks:
                    assert (a | b) in masks and (a & b) in masks

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(posets, "IDEAL_CAP", 100)
        with pytest.raises(CapExceeded):
            ideals(FinitePoset.antichain(8))


class TestSubfunctors:
    def test_chain_examples(self):
        p = FinitePoset.chain(3)
        assert subfunctor_count(p, 3) == 4
        assert subfunctor_count(p, 1) == 2

    def test_minimal_element(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_poset(rng, rng.randint(1, 6))
            for i, label in enumerate(p.elements):
                if p.down[i].bit_count() == 1:
                    assert subfunctor_count(p, label) == 2

    def test_matches_ideal_count_below(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_poset(rng, rng.randint(1, 8))
            for i, label in enumerate(p.elements):
                below = p.restrict(p.down[i])
                assert subfunctor_count(p, label) == len(ideals(below))


class TestIncidenceAlgebra:
    def test_dimensions(self):
        assert incidence_algebra(FinitePoset.antichain(4)).dimension == 4
        for k in (1, 2, 3, 5):
            assert incidence_algebra(FinitePoset.chain(k)).dimension == k * (k + 1) // 2

    def test_antichain_products_vanish(self):
        alg = incidence_algebra(FinitePoset.antichain(3))
        for a in range(3):
            for b in range(3):
                assert alg.multiply(a, b) == (a if a == b else None)

    def test_composition_rule_on_chain(self):
        alg = incidence_algebra(FinitePoset.chain(3))
        lab = alg.basis_labels()
        i12 = lab.index((1, 2))
        i23 = lab.index((2, 3))
        i13 = lab.index((1, 3))
        assert alg.multiply(i23, i12) == i13
        assert alg.multiply(i12, i23) is None

    def test_associative_and_unital(self):
        rng = random.Random(13)
        posets = [
            FinitePoset.chain(4),
            FinitePoset.antichain(3),
            DIAMOND_M3,
            PENTAGON_N5,
        ] + [random_poset(rng, rng.randint(1, 5)) for _ in range(10)]
        for p in posets:
            alg = incidence_algebra(p)
            basis = range(alg.dimension)
            for a in basis:
                for b in basis:
                    ab = alg.multiply(a, b)
                    for c in basis:
                        bc = alg.multiply(b, c)
                        left = None if ab is None else alg.multiply(ab, c)
                        right = None if bc is None else alg.multiply(a, bc)
                        assert left == right
            labels = alg.basis_labels()
            ones = [labels.index((x, x)) for x in p.elements]
            for k in basis:
                # the identity is the sum of the loops; exactly one of them acts on each side
                assert [alg.multiply(e, k) for e in ones if alg.multiply(e, k) is not None] == [k]
                assert [alg.multiply(k, e) for e in ones if alg.multiply(k, e) is not None] == [k]


def test_chain_equivalence_check():
    for n in range(1, 5):
        assert chain_equivalence_check(n)


class TestParsing:
    def test_parse_chain_file(self):
        text = "# three element chain\na\nb\nc\na <= b\nb <= c\n"
        p = parse_poset(text)
        assert len(p) == 3
        assert p.leq("a", "c")
        assert len(ideals(p)) == 4

    def test_implicit_elements(self):
        p = parse_poset("x <= y\n")
        assert set(p.elements) == {"x", "y"}

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_poset("a <= \n")
        with pytest.raises(ValueError, match="cycle"):
            parse_poset("a <= b\nb <= a\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_poset("a\na\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_poset("a <= b <= c\n")
