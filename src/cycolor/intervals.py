"""Cyclic interval algebra over the color palette [1, t].

Colors are 1-based everywhere. A "plain interval" is a nonempty set of
consecutive integers. The four basic sets are indexed by a pair of
endpoints (i1, i2) in [1, t], a variant j0 in {1, 2}, and an open/closed
flag:

    variant 1, closed : [min(i1,i2), max(i1,i2)]
    variant 1, open   : the closed variant minus {i1, i2}
    variant 2, open   : [1, t] minus the closed variant-1 set
    variant 2, closed : [1, t] minus the open variant-1 set

A `CyclicIntervalSpec` names one of these sets and `intcyc_contains`
tests a color's membership in it; no set is ever built, so t may be as
large as the caller likes. A nonempty Q subset of [1, t] is a t-cyclic
interval when it equals some closed variant, which is the same as saying
Q is an arc of the cycle on colors 1..t. Open variants may be empty; the
arc predicate rejects the empty set. A universe size, endpoint, variant,
member or color must be a plain int: a bool, a float or any other type is
refused.

The one analytic arc is a scan of the runs of absent colors between
cyclically consecutive members (`_gaps`). `cyclic_span` is t minus the
longest run, and `is_cyclic_interval` is its span test. `arc_window` reads
the same runs to give the colors a palette may add and still fit an arc of
d colors; the solver's prune (ii) and prefix replay take their windows
from it. The checker in `cycolor.coloring` keeps its own two-clause
formulation on purpose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, UsageError

_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # a binary digit as the byte 0 or 1


@dataclass(frozen=True)
class ColorSet:
    """A subset of the palette [1, t] with its universe size attached."""

    t: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if type(self.t) is not int:
            raise UsageError(f"universe size must be an integer, got {self.t!r}")
        if self.t < 1:
            raise UsageError(f"universe size must be >= 1, got {self.t}")
        bad = [c for c in self.members if type(c) is not int or not 1 <= c <= self.t]
        if bad:
            # sorted within each type: a non-integer need not compare with an int
            bad.sort(key=lambda c: (type(c).__name__, c))
            raise InputError(f"colors {bad} outside [1, {self.t}]")

    @classmethod
    def of(cls, t: int, members: Iterable[int]) -> "ColorSet":
        return cls(t, frozenset(members))

    def __contains__(self, color: int) -> bool:
        return color in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True)
class CyclicIntervalSpec:
    """Names one of the four basic sets: variant j0, endpoints (i1, i2), universe t."""

    j0: int
    i1: int
    i2: int
    t: int
    closed: bool = True

    def __post_init__(self) -> None:
        if type(self.j0) is not int or self.j0 not in (1, 2):
            raise UsageError(f"variant must be 1 or 2, got {self.j0!r}")
        if type(self.t) is not int:
            raise UsageError(f"universe size must be an integer, got {self.t!r}")
        if self.t < 1:
            raise UsageError(f"universe size must be >= 1, got {self.t}")
        for name, value in (("i1", self.i1), ("i2", self.i2)):
            if type(value) is not int:
                raise UsageError(f"{name} must be an integer, got {value!r}")
            if not 1 <= value <= self.t:
                raise UsageError(f"{name}={value} outside [1, {self.t}]")


def intcyc_contains(spec: CyclicIntervalSpec, color: int) -> bool:
    """Membership test for the set named by `spec`, in constant time for
    any t. Colors outside [1, t] are never members."""
    if type(color) is not int:
        raise UsageError(f"color must be an integer, got {color!r}")
    if not 1 <= color <= spec.t:
        return False
    lo, hi = min(spec.i1, spec.i2), max(spec.i1, spec.i2)
    in_closed1 = lo <= color <= hi
    in_open1 = in_closed1 and color != spec.i1 and color != spec.i2
    if spec.j0 == 1:
        return in_closed1 if spec.closed else in_open1
    return (not in_open1) if spec.closed else (not in_closed1)


def is_cyclic_interval(q: ColorSet) -> bool:
    """True iff q is a nonempty arc of the cycle on colors 1..t: a nonempty
    set whose cyclic span equals its size."""
    return bool(q.members) and cyclic_span(q) == len(q)


def mask_colors(mask: int) -> list[int]:
    """The colors of a bitmask palette (bit c-1 = color c), ascending, in
    time linear in the mask's length."""
    if mask.bit_count() <= 16:  # lowest first, a pass over the mask per color
        colors = []
        while mask:
            low = mask & -mask
            colors.append(low.bit_length())
            mask ^= low
        return colors
    # one pass over the binary digits, which costs more when the colors are few
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)  # byte c-1 is 1 for color c
    return list(itertools.compress(range(1, len(digits) + 1), digits))


def _gaps(xs: list[int], t: int) -> list[int]:
    """The runs of absent colors of a palette, from its sorted, nonempty
    colors xs in [1, t]: entry i is the length of the run that follows
    color xs[i], 0 when the next member comes at once; the last entry is
    the run that wraps past t."""
    runs = [b - a - 1 for a, b in zip(xs, xs[1:])]
    runs.append(xs[0] + t - xs[-1] - 1)
    return runs


def cyclic_span(q: ColorSet) -> int:
    """Minimum length of a cyclic arc of [1, t] containing q.

    Equals t minus the largest run of absent colors between cyclically
    consecutive members. Always >= len(q), with equality iff q is an arc.
    """
    if not q.members:
        raise InputError("cyclic span of the empty set is undefined")
    return q.t - max(_gaps(q.sorted_members(), q.t))


def arc_window(mask: int, d: int, t: int) -> int:
    """The colors c with cyclic_span(mask | c) <= d, as a bitmask (bit c-1 =
    color c): what a palette `mask` that must end as an arc of d colors
    may still take.

    The palette must be nonempty and d in [1, t). With r = t - d, the
    palette fits an arc of d colors iff some run of absent colors is at
    least r long, and a new color splits only the run it falls in. So no
    such run gives the empty window and two or more give every color.
    With exactly one, of length L from color s, the colors that leave both
    of its pieces shorter than r are cut: the 2r - L colors from s + L - r,
    none when 2r - L <= 0.
    """
    r = t - d
    xs = mask_colors(mask)
    runs = _gaps(xs, t)
    wide = [i for i, n in enumerate(runs) if n >= r]
    full = (1 << t) - 1
    if len(wide) != 1:
        return full if wide else 0
    i = wide[0]
    n = runs[i]
    if n >= 2 * r:
        return full
    start = (xs[i] + n - r) % t  # the bit of the first color cut: s + L - r, as s = xs[i] + 1
    cut = (1 << (2 * r - n)) - 1
    return full & ~(cut << start | cut >> (t - start))


def arc_masks(length: int, t: int) -> list[int]:
    """The t cyclic arcs of `length` colors as bitmasks (bit c-1 = color c).

    The arc that starts at color s is at index s-1. A length of t or more
    is capped at t, so every entry is then the whole palette.
    """
    run = (1 << min(length, t)) - 1
    full = (1 << t) - 1
    return [(run << s | run >> (t - s)) & full for s in range(t)]

