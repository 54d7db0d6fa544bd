"""Reference results computed apart from intervalcat.

Nothing here imports the package under test.  The only convention shared
with it is the wire format of interval sets: bit k of a mask, or index k in
a JSON member list, stands for the k-th interval of ``intervals(n)``,
ordered by right end, then left end.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np


def intervals(n: int) -> list[tuple[int, int]]:
    """Intervals (a, b) of {1..n} in wire order."""
    return [(a, b) for b in range(1, n + 1) for a in range(1, b + 1)]


def mask_of(n: int, members) -> int:
    """Mask of an iterable of (a, b) pairs."""
    index = {iv: k for k, iv in enumerate(intervals(n))}
    mask = 0
    for iv in members:
        mask |= 1 << index[iv]
    return mask


def dual_permutation(n: int) -> list[int]:
    """Position of the dual of each interval under [a, b] -> [n+1-b, n+1-a]."""
    ivs = intervals(n)
    index = {iv: k for k, iv in enumerate(ivs)}
    return [index[(n + 1 - b, n + 1 - a)] for a, b in ivs]


def dual_mask(mask: int, perm: list[int]) -> int:
    out = 0
    for k, target in enumerate(perm):
        if mask >> k & 1:
            out |= 1 << target
    return out


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def large_schroeder(n_max: int) -> list[int]:
    """S_0..S_n_max from (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2} (OEIS A006318)."""
    s = [1, 2]
    for n in range(2, n_max + 1):
        s.append((3 * (2 * n - 1) * s[n - 1] - (n - 2) * s[n - 2]) // (n + 1))
    return s[: n_max + 1]


def closed_form_row(ops: str, n: int) -> int | None:
    """Counts fixed by the lattice each family is known to form, else None."""
    if ops == "QE" or ops == "CKE":
        return catalan(n + 1)  # torsion classes (Tamari), thick subcategories (NC(n+1))
    if ops == "Q":
        return factorial(n + 1)
    if ops == "QSE":
        return 2**n  # Serre subcategories: subsets of the simples
    if ops == "CK":
        return large_schroeder(n)[n]
    return None


def cover_count(ops: str, n: int) -> int | None:
    """Edges of the Hasse diagram where the lattice is a known one."""
    if ops == "QE":
        return n * catalan(n + 1) // 2  # Tamari lattice on C_{n+1} elements
    if ops == "CKE":
        return comb(2 * n + 2, n - 1)  # noncrossing partitions NC(n+1)
    if ops == "QSE":
        return n * 2 ** (n - 1)  # Boolean lattice on n atoms
    return None


def closed_masks(size: int, *rule_sets: dict[int, int]) -> set[int]:
    """Every subset of a size-bit universe closed under all given Horn rules."""
    masks = np.arange(1 << size, dtype=np.int64)
    ok = np.ones(masks.shape, dtype=bool)
    for rules in rule_sets:
        for premise, conclusion in rules.items():
            ok &= ((masks & premise) != premise) | ((masks & conclusion) == conclusion)
    return {int(m) for m in masks[ok]}
