"""Finite posets, ideals, subfunctor counts, incidence dimensions, the poset format."""

from __future__ import annotations

import random
import re

import pytest

import intervalcat.posets as posets
from intervalcat.errors import CapExceeded
from intervalcat.oracle import chain_equivalence_check
from intervalcat.posets import (
    FinitePoset,
    ideals,
    incidence_dimension,
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


def chain(k: int) -> FinitePoset:
    """The total order 1 < 2 < ... < k."""
    return FinitePoset(range(1, k + 1), [(1 << (i + 1)) - 1 for i in range(k)])


def antichain(k: int) -> FinitePoset:
    return FinitePoset(range(1, k + 1), [1 << i for i in range(k)])


class TestConstruction:
    def test_transitive_closure(self):
        p = FinitePoset.from_relations("abc", [("a", "b"), ("b", "c")])
        a, c = p.index("a"), p.index("c")
        assert (p.down[c] >> a) & 1
        assert not (p.down[a] >> c) & 1

    def test_cycle_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="cycle"):
            FinitePoset.from_relations("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="a <= b"):
            FinitePoset.from_relations("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            FinitePoset.from_relations(["a", "a"], [])

    def test_random_cycles_are_named_as_closed_paths(self):
        # the named path starts and ends at one label, and each step is a given relation
        rng = random.Random(5)
        found = 0
        while found < 200:
            size = rng.randint(2, 7)
            labels = [f"p{i}" for i in range(size)]
            relations = [(x, y) for x in labels for y in labels if rng.random() < 0.2]
            try:
                FinitePoset.from_relations(labels, relations)
            except ValueError as err:
                found += 1
                match = re.fullmatch(r"not a partial order, cycle: (.*)", str(err))
                assert match, err
                path = match.group(1).split(" <= ")
                assert len(path) >= 3 and path[0] == path[-1]
                assert len(set(path)) == len(path) - 1
                assert all(step in relations for step in zip(path, path[1:]))

    def test_chain_antichain(self):
        assert chain(3).is_chain()
        assert not antichain(2).is_chain()
        assert chain(1).is_chain()


class TestIdeals:
    def test_chain_ideals_are_prefixes(self):
        for k in (1, 2, 5):
            assert len(ideals(chain(k))) == k + 1

    def test_antichain_ideals_are_all_subsets(self):
        assert len(ideals(antichain(2))) == 4
        assert len(ideals(antichain(5))) == 32

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

    def test_ideals_below_an_element_are_the_ideals_inside_its_lower_set(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_poset(rng, rng.randint(1, 8))
            every = ideals(p)
            for i, label in enumerate(p.elements):
                below = ideals(p, p.down[i])
                assert set(below) == {m for m in every if m & ~p.down[i] == 0}
                assert len(below) == subfunctor_count(p, label)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(posets, "IDEAL_CAP", 100)
        with pytest.raises(CapExceeded):
            ideals(antichain(8))


class TestSubfunctors:
    def test_chain_examples(self):
        p = chain(3)
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
                assert subfunctor_count(p, label) == len(ideals(p, p.down[i]))


class TestIncidenceAlgebra:
    def test_dimensions(self):
        # one basis element per comparable pair x <= y
        assert incidence_dimension(antichain(4)) == 4
        for k in (1, 2, 3, 5):
            assert incidence_dimension(chain(k)) == k * (k + 1) // 2
        assert incidence_dimension(DIAMOND_M3) == 5 + 4 + 3
        assert incidence_dimension(PENTAGON_N5) == 5 + 4 + 4


def test_chain_equivalence_check():
    for n in range(1, 5):
        assert chain_equivalence_check(n)


class TestParsing:
    def test_parse_chain_file(self):
        text = "# three element chain\na\nb\nc\na <= b\nb <= c\n"
        p = parse_poset(text)
        assert len(p) == 3
        assert (p.down[p.index("c")] >> p.index("a")) & 1
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
