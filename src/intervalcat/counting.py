"""Counting and enumerating closed interval sets.

Two independent counting paths are kept side by side.  The subset sweep
(the cross-check, usable while the universe fits a bit cap) holds one
boolean per subset, 2^size bytes, and strikes out every subset that
breaks a rule through strided views of that array; it makes no closure
calls.  Next-Closure enumeration walks only the closed sets in lectic
order and scales to the interesting ambient sizes.  A prefix-block
variant partitions the lectic stream for sharded counting.  Hasse covers
of a closed family are found with bitmaps over member indices.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator, Optional

import numpy as np

from .closure import ClosureSpec, RuleTable, _essential_flags, build_table
from .errors import CapExceeded
from .intervals import IntervalSet, _iter_bits, universe_size

BRUTE_CAP_BITS = 24
LATTICE_CAP = 4096


def _lectic_masks(table: RuleTable, fixed_bits: int = 0, prefix: int = 0) -> Iterator[int]:
    """Closed sets in lectic order, restricted to a fixed membership prefix.

    The lectic order is induced by the canonical interval index: candidates
    are produced by the step closure((A & below_i) | bit_i) and accepted when
    no new element below i appears.  With ``fixed_bits`` > 0 only closed sets
    whose membership pattern on indices < fixed_bits equals ``prefix`` are
    produced; index i < fixed_bits is never used as a candidate, so each
    prefix block yields a contiguous slice of the unrestricted stream.
    """
    closure = table.closure
    size = table.size
    window = (1 << fixed_bits) - 1
    current = closure(prefix)
    if current & window != prefix:
        return
    yield current
    while True:
        nxt = None
        for i in range(size - 1, fixed_bits - 1, -1):
            bit = 1 << i
            if current & bit:
                continue
            below = bit - 1
            cand = closure((current & below) | bit, below & ~current)
            if cand is not None:
                nxt = cand
                break
        if nxt is None:
            return
        current = nxt
        yield current


def _shard_layout(size: int, shards: int) -> tuple[int, list[int]]:
    """Prefix width and the prefix values in lectic order."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    t = 0 if shards == 1 else min(size, (shards - 1).bit_length())
    prefixes = sorted(range(1 << t), key=lambda p: sum(((p >> i) & 1) << (t - 1 - i) for i in range(t)))
    return t, prefixes


def iter_closed_sets(n: int, spec: ClosureSpec, shards: int = 1) -> Iterator[IntervalSet]:
    """All closed sets for (n, spec) in lectic order.

    With shards > 1 the stream is produced block by block in prefix order,
    which concatenates to exactly the single-shard stream.
    """
    table = build_table(n, spec)
    t, prefixes = _shard_layout(table.size, shards)
    for p in prefixes:
        for mask in _lectic_masks(table, t, p):
            yield IntervalSet(n, mask)


def count_next_closure(n: int, spec: ClosureSpec) -> int:
    """Number of closed sets, by Next-Closure enumeration."""
    table = build_table(n, spec)
    return sum(1 for _ in _lectic_masks(table))


def count_brute(n: int, spec: ClosureSpec, max_bits: int = BRUTE_CAP_BITS) -> int:
    """Number of closed sets, by checking every subset of the universe.

    The subsets are one boolean array of shape (2,) * size, where element
    bit k is axis size-1-k, so the flat index of a subset is its mask.  A
    subset breaks a rule when it holds every premise and lacks some
    conclusion bit j; for each rule and each j, the strided view that fixes
    the premise axes at 1 and axis j at 0 is set to False.  Premises and
    conclusions of a table rule are disjoint.  The array takes 2^size
    bytes (2 MB at n = 6, 16 MB at the default cap of 24 bits) and nothing
    is copied.
    """
    size = universe_size(n)
    if size > max_bits:
        raise CapExceeded(f"subset sweep needs {size} bits, cap is {max_bits}")
    table = build_table(n, spec)
    ok = np.ones((2,) * size, dtype=bool)
    for prem, conc in table.rules():
        index = [slice(None)] * size
        for k in _iter_bits(prem):
            index[size - 1 - k] = 1
        for j in _iter_bits(conc):
            index[size - 1 - j] = 0
            ok[tuple(index)] = False
            index[size - 1 - j] = slice(None)
    return int(np.count_nonzero(ok))


def shard_count(n: int, spec: ClosureSpec, shards: int) -> int:
    """Next-Closure count computed as a merge of per-prefix block counts."""
    table = build_table(n, spec)
    t, prefixes = _shard_layout(table.size, shards)
    per_shard = [0] * shards
    for pos, p in enumerate(prefixes):
        per_shard[pos % shards] += sum(1 for _ in _lectic_masks(table, t, p))
    return sum(per_shard)


def reference_sequence(spec: ClosureSpec, n: int) -> Optional[int]:
    """Closed-form count when one is known, else None.

    Cokernel closure is implied by quotient closure and kernel closure by
    subobject closure, so those flags are normalised away first; the
    order-reversing involution then lets the subobject-side combinations
    reuse the quotient-side formulas.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    key = "".join(sorted(_essential_flags(spec)))
    catalan = comb(2 * n + 2, n + 1) // (n + 2)
    table = {
        "EQS": 2**n,
        "QS": catalan,
        "EQ": catalan,
        "ES": catalan,
        "CEK": catalan,
        "Q": factorial(n + 1),
        "S": factorial(n + 1),
        "": 2 ** (n * (n + 1) // 2),
    }
    return table.get(key)


@dataclass(frozen=True)
class SequenceReport:
    """Counts of closed sets for n = 1..n_max under one spec."""

    spec: ClosureSpec
    algorithm: str
    terms: tuple[tuple[int, int], ...]
    elapsed: tuple[float, ...]

    def counts(self) -> list[int]:
        return [c for _, c in self.terms]

    def to_json_dict(self, include_timings: bool = False) -> dict:
        terms = []
        for (n, count), secs in zip(self.terms, self.elapsed):
            term = {"n": n, "count": count}
            if include_timings:
                term["seconds"] = secs
            terms.append(term)
        return {"ops": str(self.spec), "algorithm": self.algorithm, "terms": terms}

    def to_csv(self, reference: bool = False) -> str:
        lines = ["n,count,reference,match" if reference else "n,count"]
        for n, count in self.terms:
            if reference:
                ref = reference_sequence(self.spec, n)
                lines.append(
                    f"{n},{count},{'' if ref is None else ref},"
                    f"{'' if ref is None else str(ref == count).lower()}"
                )
            else:
                lines.append(f"{n},{count}")
        return "\n".join(lines) + "\n"

    def to_bfile(self) -> str:
        """OEIS b-file style lines "n count"."""
        return "".join(f"{n} {count}\n" for n, count in self.terms)


def sequence(spec: ClosureSpec, n_max: int, algorithm: str = "next_closure") -> SequenceReport:
    """Counts for n = 1..n_max using the chosen algorithm."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if algorithm not in ("next_closure", "brute"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    terms = []
    elapsed = []
    for n in range(1, n_max + 1):
        t0 = time.perf_counter()
        count = count_brute(n, spec) if algorithm == "brute" else count_next_closure(n, spec)
        elapsed.append(time.perf_counter() - t0)
        if count < 2:
            raise AssertionError(f"count {count} below 2 at n={n}: empty and full set are closed")
        terms.append((n, count))
    return SequenceReport(spec, algorithm, tuple(terms), tuple(elapsed))


@dataclass(frozen=True)
class ClosedFamily:
    """All closed sets for one (n, spec), with the cover relation of inclusion."""

    n: int
    spec: ClosureSpec
    members: tuple[IntervalSet, ...]
    covers: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ops": str(self.spec),
            "members": [m.indices() for m in self.members],
            "covers": [list(c) for c in self.covers],
        }

    def to_dot(self) -> str:
        lines = ["digraph closed_sets {", "  rankdir=BT;"]
        for i, m in enumerate(self.members):
            label = "{" + ",".join(str(iv) for iv in m.members) + "}"
            lines.append(f'  n{i} [label="{label}"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def lattice(n: int, spec: ClosureSpec, max_members: int = LATTICE_CAP) -> ClosedFamily:
    """Materialise the closed sets in lectic order plus their Hasse covers.

    Covers are found with bitmaps over member indices: ``contain[k]`` has
    bit i set when member i holds element k, so the members strictly above
    member j are the AND of ``contain[k]`` over the elements k of member j,
    minus j itself.  Those are walked level by level in increasing size; a
    member not yet dominated is an upper cover of j, and each cover found
    marks everything above it as dominated.  Members of one level are never
    comparable, so each level is a single bitmap step.
    """
    members = []
    for s in iter_closed_sets(n, spec):
        members.append(s)
        if len(members) > max_members:
            raise CapExceeded(f"more than {max_members} closed sets; raise the cap to materialise")
    masks = [m.mask for m in members]
    everyone = (1 << len(masks)) - 1
    contain = [0] * universe_size(n)
    levels = [0] * (universe_size(n) + 1)
    for i, m in enumerate(masks):
        bit = 1 << i
        levels[m.bit_count()] |= bit
        for k in _iter_bits(m):
            contain[k] |= bit
    above = []
    for j, m in enumerate(masks):
        sup = everyone
        for k in _iter_bits(m):
            sup &= contain[k]
        above.append(sup & ~(1 << j))
    covers = []
    for j, m in enumerate(masks):
        rest = above[j]
        for level in levels[m.bit_count() + 1 :]:
            if not rest:
                break
            for c in _iter_bits(rest & level):
                covers.append((j, c))
                rest &= ~above[c]
            rest &= ~level
    covers.sort()
    return ClosedFamily(n, spec, tuple(members), tuple(covers))
