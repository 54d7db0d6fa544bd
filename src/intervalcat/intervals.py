"""Intervals [a, b] on {1, ..., n} and the arithmetic of maps between them.

Interval modules over the linearly oriented A_n quiver are Hom-rigid:
every hom space is 0- or 1-dimensional over GF(2), so images, subobjects,
quotients, kernels, cokernels and extension middle terms of intervals are
again (multisets of) intervals and can be computed by endpoint arithmetic
alone.  Every formula in this module is cross-checked against explicit
GF(2) representations in :mod:`intervalcat.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from math import isqrt
from typing import Iterable, Iterator, Optional


@total_ordering
@dataclass(frozen=True)
class Interval:
    """A pair [a, b] with 1 <= a <= b, ordered by canonical index."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError(f"interval endpoints must be integers, got [{self.a!r},{self.b!r}]")
        if not 1 <= self.a <= self.b:
            raise ValueError(f"invalid interval [{self.a},{self.b}]: need 1 <= a <= b")

    @property
    def index(self) -> int:
        """Canonical index b(b-1)/2 + (a-1); independent of the ambient n."""
        return self.b * (self.b - 1) // 2 + (self.a - 1)

    def __lt__(self, other: "Interval") -> bool:
        return (self.b, self.a) < (other.b, other.a)

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"

    def to_text(self) -> str:
        """Wire form "a,b"."""
        return f"{self.a},{self.b}"

    @classmethod
    def from_text(cls, text: str) -> "Interval":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected an interval 'a,b', got {text!r}")
        try:
            a, b = (int(p.strip()) for p in parts)
        except ValueError:
            raise ValueError(f"expected an interval 'a,b', got {text!r}") from None
        return cls(a, b)


def universe_size(n: int) -> int:
    """Number of intervals inside {1..n}."""
    if n < 1:
        raise ValueError(f"ambient size must be >= 1, got {n}")
    return n * (n + 1) // 2


def _layer_masks(n: int) -> list[int]:
    """The masks of layers 1..n: layer k holds the k intervals [a, k], indices k(k-1)/2 .. k(k+1)/2 - 1."""
    return [((1 << k) - 1) << k * (k - 1) // 2 for k in range(1, n + 1)]


def interval_from_index(k: int) -> Interval:
    """Inverse of ``Interval.index``."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    b = (1 + isqrt(1 + 8 * k)) // 2
    a = k - b * (b - 1) // 2 + 1
    return Interval(a, b)


def all_intervals(n: int) -> list[Interval]:
    """All intervals inside {1..n} in canonical index order.

    The list for n is a prefix of the list for n+1, which keeps bitmask
    serialisations stable across ambient sizes.
    """
    universe_size(n)
    return [Interval(a, b) for b in range(1, n + 1) for a in range(1, b + 1)]


def hom_dim(source: Interval, target: Interval) -> int:
    """Dimension (0 or 1) of the hom space between two intervals."""
    return 1 if source.a <= target.a <= source.b <= target.b else 0


def image(source: Interval, target: Interval) -> Optional[Interval]:
    """Image of the nonzero map source -> target, or None if the hom space is zero."""
    if not hom_dim(source, target):
        return None
    return Interval(target.a, source.b)


def quotients(x: Interval) -> list[Interval]:
    """All nonzero quotient intervals of x, largest first endpoint last."""
    return [Interval(c, x.b) for c in range(x.a, x.b + 1)]


def subobjects(x: Interval) -> list[Interval]:
    """All nonzero subobject intervals of x."""
    return [Interval(x.a, b) for b in range(x.a, x.b + 1)]


def dual(x: Interval, n: int) -> Interval:
    """Reflect x through the order-reversing involution of {1..n}."""
    if x.b > n:
        raise ValueError(f"interval {x} does not fit inside {{1..{n}}}")
    return Interval(n + 1 - x.b, n + 1 - x.a)


def _nonzero(a: int, b: int) -> Optional[Interval]:
    """Interval [a, b], with [b+1, b] (and anything emptier) read as zero."""
    return Interval(a, b) if a <= b else None


def ext_middle(upper: Interval, lower: Interval) -> Optional[tuple[Interval, Optional[Interval]]]:
    """Middle term of a nonsplit extension 0 -> lower -> y + y' -> upper -> 0.

    Returns (y, y') when such an extension exists, with y' = None when the
    second summand degenerates to zero; returns None when every extension
    splits.  Existence needs lower to start strictly earlier, end strictly
    earlier, and overlap or touch upper (upper.a <= lower.b + 1); the
    non-strict boundary cases only produce split sequences.
    """
    a, b = lower.a, lower.b
    ap, bp = upper.a, upper.b
    if not (a < ap and b < bp and ap <= b + 1):
        return None
    y = Interval(a, bp)
    return y, _nonzero(ap, b)


def cokernel_single(source: Interval, target: Interval) -> tuple[Interval, ...]:
    """Cokernel of the nonzero map source -> target, as a multiset of intervals."""
    if not hom_dim(source, target):
        raise ValueError(f"no nonzero map {source} -> {target}")
    coker = _nonzero(source.b + 1, target.b)
    return (coker,) if coker else ()


def cokernel_pair(source: Interval, target1: Interval, target2: Interval) -> tuple[Interval, ...]:
    """Cokernel of a map from source into target1 + target2, both components nonzero."""
    if not (hom_dim(source, target1) and hom_dim(source, target2)):
        raise ValueError(f"no componentwise-nonzero map {source} -> {target1} + {target2}")
    c, d = target1.a, target1.b
    cp, dp = target2.a, target2.b
    out = []
    first = _nonzero(source.b + 1, min(d, dp))
    if first:
        out.append(first)
    out.append(Interval(max(c, cp), max(d, dp)))
    return tuple(sorted(out))


def kernel_single(source: Interval, target: Interval) -> tuple[Interval, ...]:
    """Kernel of the nonzero map source -> target; dual of cokernel_single."""
    if not hom_dim(source, target):
        raise ValueError(f"no nonzero map {source} -> {target}")
    ker = _nonzero(source.a, target.a - 1)
    return (ker,) if ker else ()


def kernel_pair(source1: Interval, source2: Interval, target: Interval) -> tuple[Interval, ...]:
    """Kernel of a map from source1 + source2 onto target, both components nonzero.

    Obtained from cokernel_pair by conjugating with the order-reversing
    involution; the endpoints below are that conjugation written out.
    """
    if not (hom_dim(source1, target) and hom_dim(source2, target)):
        raise ValueError(f"no componentwise-nonzero map {source1} + {source2} -> {target}")
    c, d = source1.a, source1.b
    cp, dp = source2.a, source2.b
    out = []
    first = _nonzero(max(c, cp), target.a - 1)
    if first:
        out.append(first)
    out.append(Interval(min(c, cp), min(d, dp)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class IntervalSet:
    """A set of intervals inside {1..n}, stored as a canonical bitmask.

    Bit i of ``mask`` is set exactly when the interval of canonical index i
    is a member.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        size = universe_size(self.n)
        if self.mask < 0 or self.mask >> size:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n} ({size} intervals)")

    @classmethod
    def empty(cls, n: int) -> "IntervalSet":
        return cls(n, 0)

    @classmethod
    def of(cls, n: int, members: Iterable[Interval]) -> "IntervalSet":
        mask = 0
        for iv in members:
            if iv.b > n:
                raise ValueError(f"interval {iv} does not fit inside {{1..{n}}}")
            mask |= 1 << iv.index
        return cls(n, mask)

    @property
    def members(self) -> tuple[Interval, ...]:
        return tuple(interval_from_index(i) for i in _iter_bits(self.mask))

    def dual(self) -> "IntervalSet":
        return IntervalSet.of(self.n, (dual(iv, self.n) for iv in self.members))

    def to_literal(self) -> str:
        """Wire form "a,b;c,d;..." in canonical index order ('' for the empty set)."""
        texts = _interval_texts(self.n)
        return ";".join(texts[i] for i in _iter_bits(self.mask))

    @classmethod
    def from_literal(cls, n: int, text: str) -> "IntervalSet":
        text = text.strip()
        if not text:
            return cls.empty(n)
        return cls.of(n, (Interval.from_text(part) for part in text.split(";")))


@lru_cache(maxsize=None)
def _interval_texts(n: int) -> tuple[str, ...]:
    """The wire form of every interval inside {1..n}, by canonical index."""
    return tuple(iv.to_text() for iv in all_intervals(n))


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
