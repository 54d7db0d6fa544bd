"""Closure specs, rule generation and the saturation engine."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcat.closure import (
    ClosureSpec,
    _essential_flags,
    build_table,
    closure,
    rule_instances,
)
from intervalcat.intervals import (
    Interval,
    IntervalSet,
    _layer_masks,
    all_intervals,
    ext_middle,
    interval_from_index,
    universe_size,
)
from intervalcat.oracle import (
    barcode,
    cokernel_rep,
    generated_submodule,
    kernel_rep,
    morphism_between_sums,
    sum_of,
)

from helpers import (
    all_specs,
    formula_rule_instances,
    full_rule_instances,
    random_morphism_coeffs,
    random_set,
    random_sum_members,
)


class TestClosureSpec:
    def test_parse(self):
        assert str(ClosureSpec.parse("ekq")) == "QKE"
        assert ClosureSpec.parse("") == ClosureSpec.parse("none")
        assert str(ClosureSpec.parse("")) == ""
        assert ClosureSpec.parse("QQ") == ClosureSpec.parse("Q")
        with pytest.raises(ValueError):
            ClosureSpec.parse("QX")

    def test_dual(self):
        assert str(ClosureSpec.parse("QE").dual()) == "SE"
        assert str(ClosureSpec.parse("CK").dual()) == "CK"
        assert ClosureSpec.parse("QSCKE").dual() == ClosureSpec.parse("QSCKE")

    def test_all_specs(self):
        specs = all_specs()
        assert len(specs) == 32
        assert len(set(specs)) == 32
        assert str(specs[0]) == ""


def _mask(n: int, *members: Interval) -> int:
    return IntervalSet.of(n, members).mask


class TestRuleInstances:
    def test_quotient_instance_present(self):
        rules = rule_instances(2, ClosureSpec.parse("Q"))
        assert (_mask(2, Interval(1, 2)), _mask(2, Interval(2, 2))) in rules

    def test_extension_instance_present(self):
        rules = rule_instances(2, ClosureSpec.parse("E"))
        assert rules == [(_mask(2, Interval(1, 1), Interval(2, 2)), _mask(2, Interval(1, 2)))]

    def test_no_rules_for_single_vertex(self):
        assert rule_instances(1, ClosureSpec.parse("QSCKE")) == []

    def test_conclusions_never_meet_premises(self):
        for spec in (ClosureSpec.parse(s) for s in ("Q", "E", "C", "K", "QSCKE")):
            for prem, conc in rule_instances(4, spec):
                assert conc
                assert not conc & prem

    def test_three_premises_only_when_c_or_k_stands_alone(self):
        # R1 of the closure docstring: any second essential flag derives the pair rules
        for spec in all_specs():
            three = [p for p, _ in rule_instances(6, spec) if p.bit_count() == 3]
            assert bool(three) == (_essential_flags(spec) in ({"C"}, {"K"})), str(spec)

    def test_every_rule_lies_in_one_linked_class(self):
        # Two intervals are linked when they share a vertex and, for specs with E, also when
        # adjacent ([a, b] and [b+1, c]); the premises and conclusions of a rule are one class.
        for spec in all_specs():
            adjacent = "E" in spec.flags
            for n in range(1, 10):
                ivs = all_intervals(n)
                for prem, conc in rule_instances(n, spec):
                    members = [ivs[i] for i in range(len(ivs)) if (prem | conc) >> i & 1]
                    linked = [members[0]]
                    for u in linked:
                        for v in members:
                            touch = u.a <= v.b and v.a <= u.b or adjacent and (u.b + 1 == v.a or v.b + 1 == u.a)
                            if touch and v not in linked:
                                linked.append(v)
                    assert len(linked) == len(members), (str(spec), n, members)


    def test_matches_formula_generator(self):
        # the endpoint ranges give the formula-read rule set, with no premise twice; the
        # order is not compared, as no closed set, count or layer family depends on it
        for n in range(1, 13):
            for spec in all_specs():
                rules = rule_instances(n, spec)
                assert len(rules) == len(dict(rules)), (n, str(spec))
                assert dict(rules) == dict(formula_rule_instances(n, spec)), (n, str(spec))
        with pytest.raises(ValueError):
            rule_instances(0, ClosureSpec.parse("QSCKE"))

    def test_mirror_of_the_rules_is_the_dual_spec_rules(self):
        # [a, b] -> [n+1-b, n+1-a] takes the rules of a spec onto those of its dual: E, which is
        # generated directly, is self-dual, and merging by premise commutes with the mirror
        for n in range(1, 10):
            for spec in all_specs():
                mirrored = {
                    IntervalSet(n, p).dual().mask: IntervalSet(n, c).dual().mask
                    for p, c in rule_instances(n, spec)
                }
                assert mirrored == dict(rule_instances(n, spec.dual())), (n, str(spec))

    def test_rules_meet_their_top_layer_in_one_premise_or_two(self):
        # a rule whose premises meet layer k and nothing above has one premise there,
        # or two and no conclusion there: each layer family is a 2-CNF's solution set
        two_premise = {}
        for n in range(1, 10):
            layers = _layer_masks(n)
            for spec in all_specs():
                two = 0
                for p, c in rule_instances(n, spec):
                    layer = layers[interval_from_index(p.bit_length() - 1).b - 1]
                    if (p & layer).bit_count() == 2 and not c & layer:
                        two += 1
                    else:
                        assert (p & layer).bit_count() == 1, (n, str(spec), p, c)
                if n == 9 and two:
                    two_premise[str(spec)] = two
        assert two_premise == {"K": 582, "CK": 120, "KE": 120, "CKE": 120}


def _is_closed_by_instances(s: IntervalSet, spec: ClosureSpec) -> bool:
    """Reference semantics straight off the public instance list."""
    for prem, conc in rule_instances(s.n, spec):
        if prem & s.mask == prem and conc & ~s.mask:
            return False
    return True


def test_is_closed_examples():
    s = _mask(2, Interval(1, 1), Interval(2, 2))
    assert not build_table(2, ClosureSpec.parse("E")).is_closed(s)
    assert build_table(2, ClosureSpec.parse("")).is_closed(s)
    assert build_table(2, ClosureSpec.parse("QSCKE")).is_closed(0b111)


def test_closure_examples():
    e = ClosureSpec.parse("E")
    s = IntervalSet.of(2, [Interval(1, 1), Interval(2, 2)])
    assert closure(s, e) == IntervalSet(2, 0b111)
    for spec_str in ("", "Q", "CK", "QSCKE"):
        spec = ClosureSpec.parse(spec_str)
        assert closure(IntervalSet.empty(3), spec) == IntervalSet.empty(3)


def test_engine_matches_instance_semantics():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for spec in all_specs():
            for _ in range(20):
                s = random_set(rng, n)
                assert build_table(n, spec).is_closed(s.mask) == _is_closed_by_instances(s, spec)


def test_closure_operator_laws():
    rng = random.Random(37)
    for n in range(1, 6):
        for spec in (ClosureSpec.parse(t) for t in ("", "Q", "E", "CK", "QSE", "QSCKE")):
            for _ in range(25):
                s = random_set(rng, n)
                t = random_set(rng, n)
                cs = closure(s, spec)
                assert s.mask & ~cs.mask == 0
                assert closure(cs, spec) == cs
                union = IntervalSet(n, s.mask | t.mask)
                assert cs.mask & ~closure(union, spec).mask == 0
                if build_table(n, spec).is_closed(s.mask):
                    assert cs == s


@st.composite
def _table_and_nested_masks(draw):
    """A rule table of any spec at n <= 5 and two masks a <= b of its universe."""
    spec = draw(st.sampled_from(all_specs()))
    n = draw(st.integers(1, 5))
    full = (1 << universe_size(n)) - 1
    a = draw(st.integers(0, full))
    return build_table(n, spec), a, a | draw(st.integers(0, full))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_table_and_nested_masks())
def test_rule_table_closure_laws(case):
    table, a, b = case
    ca, cb = table.closure(a), table.closure(b)
    assert ca & a == a  # extensive
    assert ca & cb == ca  # monotone
    assert table.closure(ca) == ca  # idempotent
    assert table.is_closed(ca)


def _fixed_point(rules: list[tuple[int, int]], mask: int) -> int:
    """The least fixed point containing mask, by sweeping every rule until nothing changes."""
    while True:
        grown = mask
        for prem, conc in rules:
            if prem & grown == prem:
                grown |= conc
        if grown == mask:
            return mask
        mask = grown


@st.composite
def _table_mask_forbidden(draw):
    """A rule table of any spec at n <= 5, a mask, and a forbidden mask disjoint from it.

    The forbidden mask is often a single element, so that both outcomes of
    the early exit are drawn.
    """
    spec = draw(st.sampled_from(all_specs()))
    n = draw(st.integers(1, 5))
    full = (1 << universe_size(n)) - 1
    mask = draw(st.integers(0, full))
    forbidden = draw(st.integers(0, full)) & ~mask
    if draw(st.booleans()):
        forbidden &= -forbidden
    return build_table(n, spec), mask, forbidden


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_table_mask_forbidden())
def test_rule_table_closure_stops_on_forbidden(case):
    table, mask, forbidden = case
    whole = _fixed_point(list(table.rules()), mask)
    got = table.closure(mask, forbidden)
    if whole & forbidden:
        assert got is None
    else:
        assert got == whole
        assert table.is_closed(got)


def test_intersection_of_closed_is_closed():
    for spec in all_specs():
        table = build_table(2, spec)
        closed = [m for m in range(1 << 3) if table.is_closed(m)]
        for a in closed:
            for b in closed:
                assert table.is_closed(a & b)


def test_closedness_duality():
    rng = random.Random(41)
    for n in (2, 3, 4):
        for spec in all_specs():
            for _ in range(10):
                s = random_set(rng, n)
                closed = build_table(n, spec).is_closed(s.mask)
                assert closed == build_table(n, spec.dual()).is_closed(s.dual().mask)


def test_table_pruning_keeps_operator():
    # the generated rules skip derivable instances; closures must be unchanged
    rng = random.Random(43)
    for n in (3, 4):
        for spec_str in ("C", "CK", "QSCKE", "E"):
            spec = ClosureSpec.parse(spec_str)
            table = build_table(n, spec)
            full = full_rule_instances(n, spec)
            for _ in range(50):
                s = random_set(rng, n)
                slow = s.mask
                changed = True
                while changed:
                    changed = False
                    for p, c in full:
                        if p & slow == p and c & ~slow:
                            slow |= c
                            changed = True
                assert table.closure(s.mask) == slow


def test_reduced_rules_keep_operator_exhaustively():
    # table closure of every subset equals the fixpoint of the unreduced rules
    for n in range(1, 5):
        subsets = np.arange(1 << universe_size(n), dtype=np.int64)
        for spec in all_specs():
            table = build_table(n, spec)
            full = full_rule_instances(n, spec)
            slow = subsets.copy()
            changed = True
            while changed:
                before = slow.copy()
                for p, c in full:
                    slow[(slow & p) == p] |= c
                changed = bool((slow != before).any())
            fast = [table.closure(int(m)) for m in subsets]
            assert fast == slow.tolist(), (n, str(spec))


def test_full_rules_hold_in_table_closure():
    # every unreduced rule is derivable from the generated ones; the unreduced
    # rules of a spec are the union of those of its single flags
    for n in range(1, 8):
        full = {flag: full_rule_instances(n, ClosureSpec.parse(flag)) for flag in "QSCKE"}
        for spec in all_specs():
            table = build_table(n, spec)
            for flag in spec.flags:
                for p, c in full[flag]:
                    assert table.closure(p) & c == c, (n, str(spec), flag, p)


def test_flag_normalisation_holds_in_unreduced_closure():
    # Q with K implies S and C with S implies Q: every unreduced rule of the
    # implied flag holds in the closure under the unreduced rules of the pair
    for n in range(1, 8):
        full = {flag: full_rule_instances(n, ClosureSpec.parse(flag)) for flag in "QSCK"}
        for (f, g), implied in (("QK", "S"), ("CS", "Q")):
            rules = full[f] + full[g]
            for p, c in full[implied]:
                assert _fixed_point(rules, p) & c == c, (n, f + g, p)


def test_kept_rules_conclude_within_premise_level():
    # a rule whose largest premise endpoint is b concludes only intervals [a', b'] with
    # b' <= b, so the n-table closes a set of the first b levels as the b-table does
    for n in range(1, 9):
        for spec in all_specs():
            for p, c in build_table(n, spec).rules():
                b = interval_from_index(p.bit_length() - 1).b
                assert c >> (b * (b + 1) // 2) == 0, (n, str(spec), p, c)


class TestSemanticSoundness:
    """Closed sets really swallow the matching categorical constructions."""

    def test_cokernels_of_random_morphisms_stay_inside(self):
        rng = random.Random(47)
        spec = ClosureSpec.parse("C")
        for n in (2, 3, 4):
            pool = all_intervals(n)
            for _ in range(60):
                seed = random_sum_members(rng, pool, 3)
                s = closure(IntervalSet.of(n, seed), spec)
                members = list(s.members) or seed
                srcs = random_sum_members(rng, members, 3)
                tgts = random_sum_members(rng, members, 3)
                f = morphism_between_sums(n, srcs, tgts, random_morphism_coeffs(rng, srcs, tgts))
                assert IntervalSet.of(n, barcode(cokernel_rep(f))).mask & ~s.mask == 0

    def test_kernels_of_random_morphisms_stay_inside(self):
        rng = random.Random(53)
        spec = ClosureSpec.parse("K")
        for n in (2, 3, 4):
            pool = all_intervals(n)
            for _ in range(60):
                seed = random_sum_members(rng, pool, 3)
                s = closure(IntervalSet.of(n, seed), spec)
                members = list(s.members) or seed
                srcs = random_sum_members(rng, members, 3)
                tgts = random_sum_members(rng, members, 3)
                f = morphism_between_sums(n, srcs, tgts, random_morphism_coeffs(rng, srcs, tgts))
                assert IntervalSet.of(n, barcode(kernel_rep(f))).mask & ~s.mask == 0

    def test_random_submodules_and_quotients_stay_inside(self):
        rng = random.Random(59)
        for n in (2, 3, 4):
            pool = all_intervals(n)
            for _ in range(40):
                seed = random_sum_members(rng, pool, 3)
                s_sub = closure(IntervalSet.of(n, seed), ClosureSpec.parse("S"))
                s_quo = closure(IntervalSet.of(n, seed), ClosureSpec.parse("Q"))
                rep = sum_of(seed, n)
                gens = [
                    (rng.randint(1, n), rng.getrandbits(max(rep.dims)))
                    for _ in range(rng.randint(1, 3))
                ]
                gens = [(v, vec & ((1 << rep.dims[v - 1]) - 1)) for v, vec in gens]
                incl = generated_submodule(rep, gens)
                assert IntervalSet.of(n, barcode(incl.source)).mask & ~s_sub.mask == 0
                assert IntervalSet.of(n, barcode(cokernel_rep(incl))).mask & ~s_quo.mask == 0

    def test_extension_middles_stay_inside(self):
        rng = random.Random(61)
        spec = ClosureSpec.parse("E")
        for n in (2, 3, 4):
            pool = all_intervals(n)
            for _ in range(40):
                seed = random_sum_members(rng, pool, 3)
                s = closure(IntervalSet.of(n, seed), spec)
                for lower in s.members:
                    for upper in s.members:
                        got = ext_middle(upper, lower)
                        if got is None:
                            continue
                        assert IntervalSet.of(n, filter(None, got)).mask & ~s.mask == 0
