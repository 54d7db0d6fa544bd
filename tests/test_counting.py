"""Counting paths, the layer transfer, sequences and lattice export."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

import intervalcat.counting as counting
from intervalcat.cli import main
from intervalcat.closure import ClosureSpec, build_table
from intervalcat.counting import (
    _layer_family,
    _layer_kernel,
    _layer_reads,
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
from intervalcat.intervals import IntervalSet, _iter_bits, all_intervals, hom_dim, universe_size
from intervalcat.oracle import barcode, cokernel_rep, morphism_between_sums

from helpers import all_specs, closed_masks, hasse_covers


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
    for n in range(1, 7):
        for s in all_specs():
            assert count_brute(n, s) == count_next_closure(n, s), (n, str(s))


def test_brute_packing_matches_plain_sweep():
    """The packed sweep counts as a per-mask sweep does, across the word boundary.

    Sizes 1 and 3 fill part of a word, 6 exactly one, and 10 and 15 have
    word axes; the empty spec counts every valid bit of the words.
    """
    for n in range(1, 6):
        for s in all_specs():
            assert count_brute(n, s) == len(_swept_closed_masks(n, s)), (n, str(s))
    for n in range(1, 7):
        assert count_brute(n, spec("")) == 2 ** universe_size(n), n


def test_brute_witnesses_layers_at_seven(monkeypatch):
    """Above the CLI cap the sweep, which shares no kernel with the transfer, still checks it."""
    monkeypatch.setattr(counting, "BRUTE_CAP_BITS", 28)
    for text in ("C", "K", "E", "CK"):
        assert count_brute(7, spec(text)) == count_layers(7, spec(text)), text


def test_enumeration_is_lectic_and_distinct():
    seen = []
    table = build_table(3, spec("QE"))
    for s in iter_closed_sets(3, spec("QE")):
        assert table.is_closed(s.mask)
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
    for s in all_specs():
        for n in range(1, 6):
            stream = list(counting.closed_masks(n, s))
            assert stream == _lectic_sorted(_swept_closed_masks(n, s), universe_size(n)), (str(s), n)


def test_lectic_stream_past_five_all_specs():
    """At n = 6 the stream is strictly lectic, every set is closed, and the sweep counts as many."""
    n = 6
    for s in all_specs():
        if not s.flags:
            continue
        table = build_table(n, s)
        stream = list(counting.closed_masks(n, s))
        # sorting the distinct masks gives the stream back only if it has no repeats
        assert stream == _lectic_sorted(set(stream), universe_size(n)), str(s)
        assert all(table.is_closed(mask) for mask in stream), str(s)
        assert len(stream) == count_brute(n, s), str(s)


class _GivenRules:
    """A rule table given by its (premise, conclusion) pairs, for rule sets no spec generates."""

    def __init__(self, n: int, rules: list[tuple[int, int]]):
        self.n = n
        self._rules = rules

    def rules(self):
        return iter(self._rules)


def _random_rules(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """Rules that conclude within the layer of their largest premise, as the walk requires."""
    rules = []
    for _ in range(count):
        top = rng.randrange(universe_size(n))
        below = _layer_start(next(k for k in range(1, n + 1) if top < _layer_start(k)))
        prem = 1 << top | sum(1 << i for i in range(top) if rng.random() < 0.15)
        conc = sum(1 << i for i in range(below) if rng.random() < 0.2) & ~prem
        if conc:
            rules.append((prem, conc))
    return rules


def test_lectic_stream_on_families_that_recur_across_levels():
    """The walk is exact when one family int stands for different layers at different levels.

    Under [2,2] -> [1,1] the root and the empty set at level 1 both have the
    family 0b11: the empty layer and {[1,1]} at the root, the empty layer
    and {[1,2]} below it.  Random rule sets at n = 4 give more such repeats.
    """
    rng = random.Random(20)
    tables = [(2, [(0b100, 0b001)]), (3, [(0b100, 0b001)])]
    tables += [(4, _random_rules(rng, 4, count)) for count in (2, 4, 8, 12) for _ in range(10)]
    for n, rules in tables:
        stream = [x | top for x, tops in _lectic_masks(_GivenRules(n, rules)) for top in tops]
        premises: dict[int, int] = {}
        for prem, conc in rules:
            premises[prem] = premises.get(prem, 0) | conc
        assert stream == _lectic_sorted(closed_masks(n, premises), universe_size(n)), (n, rules)


def test_groups_start_empty_in_lectic_order_with_distinct_parents_all_specs():
    """Each group's tops begin with the empty layer and rise strictly in lectic order; no parent repeats.

    ``list`` writes a group as its parent's text followed by one join over
    the texts of the other tops, which needs the first of these.
    """
    for s in all_specs():
        for n in range(1, 7):
            parents = []
            checked = set()
            for x, tops in counting.closed_groups(n, s):
                parents.append(x)
                if tops in checked:
                    continue
                checked.add(tops)
                assert tops[0] == 0, (str(s), n, tops)
                # the later of two sets holds the lowest index where they differ
                assert all(b & (a ^ b) & -(a ^ b) for a, b in zip(tops, tops[1:])), (str(s), n, tops)
            assert len(set(parents)) == len(parents), (str(s), n)


def _layer_start(level: int) -> int:
    return level * (level + 1) // 2


def _split_families(reads, rest, level: int, x: int) -> list[int]:
    """F(x) read split: the layer-local read of the last layer of x, masked by the settled rest.

    ``reads`` and ``rest`` are those of ``_layer_reads`` for the level,
    shared by every x as in the transfer and the walk.  The rest is settled
    on the bits below the last layer of x, as those settle it, and on every
    bit of x.
    """
    start = _layer_start(level - 1)
    top = x & ~((1 << start) - 1)
    return [
        _layer_family(reads[top], *_settle(rest, x, known), x)
        for known in ((1 << start) - 1, (1 << _layer_start(level)) - 1)
    ]


def test_layer_kernel_equals_direct_check_all_specs():
    """F(X) from the kernel bitsets equals the closedness of every X | L, checked rule by rule.

    X runs over every closed set of each level, L over every subset of the
    next layer, and the table is that of n = 6.  The family is read
    unsettled, settled on the bits below the last layer of X and on every
    bit of X, and split: the per-layer read of the layer-local rules masked
    by the settled rest, as the transfer and the walk read it.  The closed
    X come from the subset sweep, not from the enumeration, which walks
    this same kernel.
    """
    n = 6
    for s in all_specs():
        table = build_table(n, s)
        for level in range(n):
            fixed = _layer_start(level)
            full, rules = _layer_kernel(table, level)
            reads, rest = _layer_reads(table, level)
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
                got = _split_families(reads, rest, level, x)
                assert got == [want, want], (str(s), level, x)


def test_split_read_equals_direct_check_on_random_rules():
    """The split read is exact for any rule table, not only for generated ones.

    Which rules are layer-local depends only on where their old parts lie,
    so the per-layer read must hold for rule sets no spec generates.  X runs
    over every set closed on its first levels under random rules at n = 5,
    and F(X) is compared with a rule-by-rule sweep of the next level.
    """
    rng = random.Random(26)
    n = 5
    for count in (3, 6, 12, 24):
        for _ in range(5):
            rules = _random_rules(rng, n, count)
            table = _GivenRules(n, rules)
            premises: dict[int, int] = {}
            for prem, conc in rules:
                premises[prem] = premises.get(prem, 0) | conc
            closed = [0]
            for level in range(n):
                fixed = _layer_start(level)
                reads, rest = _layer_reads(table, level)
                grown = closed_masks(level + 1, premises)
                for x in closed:
                    want = sum(
                        1 << layer
                        for layer in range(1 << (level + 1))
                        if x | (layer << fixed) in grown
                    )
                    got = _split_families(reads, rest, level, x)
                    assert got == [want, want], (rules, level, x)
                closed = grown


def test_layer_split_is_a_partition_all_specs():
    """The layer-local rules and the rest are together exactly the unsplit rules of each level."""
    n = 7
    for s in all_specs():
        table = build_table(n, s)
        for level in range(n):
            full, rules = _layer_kernel(table, level)
            reads, rest = _layer_reads(table, level)
            assert reads.full == full, (str(s), level)
            assert sorted(reads.local + rest) == sorted(rules), (str(s), level)
            layer = (1 << _layer_start(level)) - (1 << _layer_start(level - 1))
            assert all(not (po | co) & ~layer for po, co, _, _ in reads.local), (str(s), level)
            assert all((po | co) & ~layer for po, co, _, _ in rest), (str(s), level)


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
                    if IntervalSet.of(n, barcode(cokernel_rep(f))).mask & ~mask:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        assert ok == (mask in closed), IntervalSet(n, mask).to_literal()


def test_layers_equal_next_closure_all_specs():
    for s in all_specs():
        row = list(sequence(s, 6))
        assert row == [count_next_closure(n, s) for n in range(1, 7)], str(s)
        for n, count in enumerate(row, start=1):
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
    for s in all_specs():
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
    # Q with K gives S, and C with S gives Q
    assert reference_sequence(spec("QK"), 4) == 42
    assert reference_sequence(spec("CS"), 5) == 132
    assert reference_sequence(spec("QKE"), 5) == 32
    assert reference_sequence(spec("SCKE"), 6) == 64


def test_sequence_reports():
    assert sequence(spec("QE"), 5) == (2, 5, 14, 42, 132)
    assert sequence(spec("QE"), 5, algorithm="next-closure") == (2, 5, 14, 42, 132)
    assert sequence(spec("QSE"), 4, algorithm="brute") == (2, 4, 8, 16)

    with pytest.raises(ValueError):
        sequence(spec("Q"), 0)
    with pytest.raises(ValueError):
        sequence(spec("Q"), 2, algorithm="magic")


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
        for s in all_specs():
            assert count_next_closure(n, s) == count_next_closure(n, s.dual()), str(s)


def _linked_cover_counts(spec: ClosureSpec, n_max: int, gap: int) -> list[int]:
    """g(1..n_max): the non-empty closed sets at n = m that form one linked class covering [1, m].

    Two intervals are linked when they overlap or, with gap 1, are adjacent.
    In order of start, each interval must start at most ``gap`` past the
    furthest end before it, and the first at 1.
    """
    g = []
    for m in range(1, n_max + 1):
        ivs = all_intervals(m)
        linked = 0
        for mask in counting.closed_masks(m, spec):
            reach = 1 - gap
            for x in sorted((ivs[i] for i in _iter_bits(mask)), key=lambda x: x.a):
                if x.a > reach + gap:
                    break
                reach = max(reach, x.b)
            else:
                linked += mask != 0 and reach == m
        g.append(linked)
    return g


def test_counts_factor_over_linked_components_all_specs():
    # Every rule lies in one linked class, so a set is closed iff each linked
    # component is; the components occupy disjoint vertex segments, with a
    # vertex left uncovered between them when adjacency links.  With g the
    # counts of one linked class covering [1, m] and f(0) = f(-1) = 1:
    #   with adjacency, f(n) = f(n-1) + sum_m g(m) f(n-m-1), for every spec;
    #   overlap only,   f(n) = f(n-1) + sum_m g(m) f(n-m), for the specs without E.
    n_max = 5  # n = 6 would walk the empty spec's 2^21 closed sets
    rows = {}
    for s in all_specs():
        f = {-1: 1, 0: 1, **dict(enumerate(sequence(s, n_max), start=1))}
        for gap in (1, 0) if "E" not in s.flags else (1,):
            g = _linked_cover_counts(s, n_max, gap)
            rows[str(s), gap] = g
            for n in range(1, n_max + 1):
                rest = sum(g[m - 1] * f[n - m - gap] for m in range(1, n + 1))
                assert f[n] == f[n - 1] + rest, (str(s), gap, n)
    # primitive rows of known sequences: Schroeder numbers large (overlap) and
    # little (A001003, adjacency) for CK, indecomposable permutations (A003319) for Q
    assert rows["CK", 0] == [1, 2, 6, 22, 90]
    assert rows["CK", 1] == [1, 3, 11, 45, 197]
    assert rows["Q", 1] == [1, 3, 13, 71, 461]


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
            masks = set(fam.members)
            for a in masks:
                for b in masks:
                    assert (a & b) in masks

    def test_covers_form_transitive_reduction(self):
        fam = lattice(2, spec("E"))
        masks = fam.members
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

    def test_lectic_order_extends_inclusion_all_specs(self):
        # the cover search reads the members above each one in index order
        for n in range(1, 5):
            for s in all_specs():
                members = np.array(list(counting.closed_masks(n, s)), dtype=np.int64)
                for i, m in enumerate(members):
                    assert not np.any(members[i + 1 :] & ~m == 0), (n, str(s), i)

    def test_covers_equal_pairwise_reference_all_specs(self):
        # n = 4 only for the specs with at most 120 members: the reference is cubic
        for n in range(1, 5):
            for s in all_specs():
                fam = lattice(n, s)
                if n == 4 and len(fam.members) > 120:
                    continue
                assert fam.covers == hasse_covers(list(fam.members)), (n, str(s))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lattice(3, spec(""), max_members=10)

    # the lattice writers live in the ``lattice`` command
    def test_dot_export(self, capsys):
        assert main(["lattice", "--n", "1", "--ops", "Q"]) == 0
        txt = capsys.readouterr().out
        assert txt.startswith("digraph closed_sets {")
        assert 'n0 [label="{}"];' in txt
        assert 'n1 [label="{[1,1]}"];' in txt
        assert "n0 -> n1;" in txt

    def test_json_export(self, capsys):
        assert main(["lattice", "--n", "2", "--ops", "CKE", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2 and doc["ops"] == "CKE"
        assert len(doc["members"]) == 5
        assert all(isinstance(m, list) for m in doc["members"])
        json.dumps(doc)
