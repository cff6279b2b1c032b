"""Cyclic interval algebra over the color palette [1, t].

Colors are 1-based everywhere. A "plain interval" is a nonempty set of
consecutive integers. The four basic sets are indexed by a pair of
endpoints (i1, i2) in [1, t], a variant j0 in {1, 2}, and an open/closed
flag:

    variant 1, closed : [min(i1,i2), max(i1,i2)]
    variant 1, open   : the closed variant minus {i1, i2}
    variant 2, open   : [1, t] minus the closed variant-1 set
    variant 2, closed : [1, t] minus the open variant-1 set

A nonempty Q subset of [1, t] is a t-cyclic interval when it equals some
closed variant, which is the same as saying Q is an arc of the cycle on
colors 1..t. Open variants may be empty; the arc predicate rejects the
empty set.

`cyclic_span` is the one analytic arc: `is_cyclic_interval` is its span
test, and the solver's prune and prefix replay call it too. The checker in
`cycolor.coloring` keeps its own two-clause formulation on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetError, InputError, UsageError

# Materializing a ColorSet over a huge universe is a programming error;
# membership queries (intcyc_contains) have no such cap.
MAX_MATERIALIZED_T = 10**6


@dataclass(frozen=True)
class ColorSet:
    """A subset of the palette [1, t] with its universe size attached."""

    t: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise UsageError(f"universe size must be >= 1, got {self.t}")
        bad = [c for c in self.members if not 1 <= c <= self.t]
        if bad:
            raise InputError(f"colors {sorted(bad)} outside [1, {self.t}]")

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
        if self.j0 not in (1, 2):
            raise UsageError(f"variant must be 1 or 2, got {self.j0}")
        if self.t < 1:
            raise UsageError(f"universe size must be >= 1, got {self.t}")
        for name, value in (("i1", self.i1), ("i2", self.i2)):
            if not 1 <= value <= self.t:
                raise UsageError(f"{name}={value} outside [1, {self.t}]")


def intcyc(spec: CyclicIntervalSpec) -> ColorSet:
    """Materialize the set named by `spec`. May be empty for open variants."""
    if spec.t > MAX_MATERIALIZED_T:
        raise BudgetError(
            f"refusing to materialize a set over [1, {spec.t}]; "
            f"use intcyc_contains for membership"
        )
    lo, hi = min(spec.i1, spec.i2), max(spec.i1, spec.i2)
    closed1 = frozenset(range(lo, hi + 1))
    full = frozenset(range(1, spec.t + 1))
    if spec.j0 == 1:
        members = closed1 if spec.closed else closed1 - {spec.i1, spec.i2}
    else:
        # variant 2 complements the *other* openness of variant 1
        members = full - (closed1 - {spec.i1, spec.i2}) if spec.closed else full - closed1
    return ColorSet(spec.t, members)


def intcyc_contains(spec: CyclicIntervalSpec, color: int) -> bool:
    """Membership test for the set named by `spec`, without materializing it.

    Safe for arbitrarily large t. Colors outside [1, t] are never members.
    """
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


def cyclic_span(q: ColorSet) -> int:
    """Minimum length of a cyclic arc of [1, t] containing q.

    Equals t minus the largest run of absent colors between cyclically
    consecutive members. Always >= len(q), with equality iff q is an arc.
    """
    if not q.members:
        raise InputError("cyclic span of the empty set is undefined")
    xs = q.sorted_members()
    gaps = [b - a - 1 for a, b in zip(xs, xs[1:])]
    gaps.append(xs[0] + q.t - xs[-1] - 1)  # wrap-around run
    return q.t - max(gaps)


def arc_masks(length: int, t: int) -> list[int]:
    """The t cyclic arcs of `length` colors as bitmasks (bit c-1 = color c).

    The arc that starts at color s is at index s-1. A length of t or more
    is capped at t, so every entry is then the whole palette.
    """
    run = (1 << min(length, t)) - 1
    full = (1 << t) - 1
    return [(run << s | run >> (t - s)) & full for s in range(t)]


def union_of_chained_arcs(arcs: list[ColorSet], t: int) -> Optional[ColorSet]:
    """Union a chain of arcs in which consecutive members overlap.

    Every input must be a t-cyclic interval and consecutive inputs must
    intersect, else InputError. Returns the union when it is itself a
    t-cyclic interval, or None when the overlaps wrap the cycle in a way
    that leaves holes. A union of total size < t never returns None.
    """
    if not arcs:
        raise InputError("empty chain")
    for pos, arc in enumerate(arcs):
        if arc.t != t:
            raise InputError(f"arc {pos} has universe {arc.t}, expected {t}")
        if not is_cyclic_interval(arc):
            raise InputError(f"arc {pos} is not a {t}-cyclic interval: {arc.sorted_members()}")
    for pos, (a, b) in enumerate(zip(arcs, arcs[1:])):
        if not a.members & b.members:
            raise InputError(f"chain broken between arcs {pos} and {pos + 1}")
    union = ColorSet(t, frozenset().union(*(a.members for a in arcs)))
    return union if is_cyclic_interval(union) else None
