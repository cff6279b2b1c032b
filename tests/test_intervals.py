"""Unit tests for the cyclic interval algebra."""

from __future__ import annotations

import random

import pytest

from cycolor.errors import InputError, UsageError
from cycolor.intervals import (
    ColorSet,
    CyclicIntervalSpec,
    arc_masks,
    arc_window,
    cyclic_span,
    intcyc_contains,
    is_cyclic_interval,
    mask_colors,
)


def _basic_set(j0: int, i1: int, i2: int, t: int, closed: bool) -> frozenset[int]:
    """One of the four basic sets, written out by set algebra with no
    package code."""
    full = frozenset(range(1, t + 1))
    closed1 = frozenset(range(min(i1, i2), max(i1, i2) + 1))
    open1 = closed1 - {i1, i2}
    if j0 == 1:
        return closed1 if closed else open1
    return full - open1 if closed else full - closed1


def _members(spec: CyclicIntervalSpec) -> frozenset[int]:
    """The set named by `spec`, read color by color through intcyc_contains;
    the colors 0 and t + 1 just outside [1, t] are asked too."""
    return frozenset(c for c in range(0, spec.t + 2) if intcyc_contains(spec, c))


def _all_closed_spec_sets(t: int) -> set[frozenset[int]]:
    """Every set reachable as a closed variant — the defining family."""
    out = set()
    for j0 in (1, 2):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                out.add(_members(CyclicIntervalSpec(j0=j0, i1=i1, i2=i2, t=t, closed=True)))
    return out


def _all_arcs(t: int) -> list[frozenset[int]]:
    """Arcs by start/length sweep — independent of the module under test."""
    arcs = set()
    for start in range(1, t + 1):
        for length in range(1, t + 1):
            arcs.add(frozenset(((start - 1 + i) % t) + 1 for i in range(length)))
    return sorted(arcs, key=lambda a: (len(a), sorted(a)))


# --- the four definitions ----------------------------------------------------

def test_closed_variant_1_is_plain_interval():
    got = _members(CyclicIntervalSpec(j0=1, i1=2, i2=5, t=7, closed=True))
    assert sorted(got) == [2, 3, 4, 5]


def test_closed_variant_2_at_equal_endpoints_is_full():
    got = _members(CyclicIntervalSpec(j0=2, i1=3, i2=3, t=6, closed=True))
    assert sorted(got) == [1, 2, 3, 4, 5, 6]


def test_open_variant_1_adjacent_endpoints_is_empty():
    got = _members(CyclicIntervalSpec(j0=1, i1=4, i2=5, t=9, closed=False))
    assert sorted(got) == []


def test_open_variant_2_complements_the_closed_interval():
    got = _members(CyclicIntervalSpec(j0=2, i1=2, i2=5, t=7, closed=False))
    assert sorted(got) == [1, 6, 7]


def test_four_definitions_are_consistent_exhaustively():
    for t in range(1, 9):
        full = frozenset(range(1, t + 1))
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                closed1 = _members(CyclicIntervalSpec(1, i1, i2, t, True))
                open1 = _members(CyclicIntervalSpec(1, i1, i2, t, False))
                open2 = _members(CyclicIntervalSpec(2, i1, i2, t, False))
                closed2 = _members(CyclicIntervalSpec(2, i1, i2, t, True))
                assert open1 == closed1 - {i1, i2}
                assert open2 == full - closed1
                assert closed2 == full - open1


def test_endpoint_order_is_irrelevant():
    for t in range(1, 7):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                for j0 in (1, 2):
                    for closed in (True, False):
                        a = _members(CyclicIntervalSpec(j0, i1, i2, t, closed))
                        b = _members(CyclicIntervalSpec(j0, i2, i1, t, closed))
                        assert a == b


def test_spec_validation():
    with pytest.raises(UsageError, match='variant must be 1 or 2'):
        CyclicIntervalSpec(j0=3, i1=1, i2=1, t=5)
    with pytest.raises(UsageError, match='i1=0 outside \\[1, 5\\]'):
        CyclicIntervalSpec(j0=1, i1=0, i2=1, t=5)
    with pytest.raises(UsageError, match='i2=6 outside \\[1, 5\\]'):
        CyclicIntervalSpec(j0=1, i1=1, i2=6, t=5)
    with pytest.raises(UsageError, match='universe size must be >= 1, got 0'):
        CyclicIntervalSpec(j0=1, i1=1, i2=1, t=0)


_NOT_AN_INTEGER = [
    ("spec-all-bools", lambda: CyclicIntervalSpec(True, True, True, True), UsageError,
     "variant must be 1 or 2, got True"),
    ("spec-j0-float", lambda: CyclicIntervalSpec(1.0, 1, 2, 5), UsageError,
     "variant must be 1 or 2, got 1.0"),
    ("spec-t-bool", lambda: CyclicIntervalSpec(1, 1, 2, True), UsageError,
     "universe size must be an integer, got True"),
    ("spec-t-float", lambda: CyclicIntervalSpec(1, 1, 2, 5.5), UsageError,
     "universe size must be an integer, got 5.5"),
    ("spec-i1-float", lambda: CyclicIntervalSpec(1, 1.5, 2, 5), UsageError,
     "i1 must be an integer, got 1.5"),
    ("spec-i2-bool", lambda: CyclicIntervalSpec(2, 1, True, 5), UsageError,
     "i2 must be an integer, got True"),
    ("set-member-float", lambda: ColorSet.of(5, [2.5]), InputError,
     r"colors \[2.5\] outside \[1, 5\]"),
    ("set-member-bool", lambda: ColorSet.of(5, [True, 3]), InputError,
     r"colors \[True\] outside \[1, 5\]"),
    ("set-member-str", lambda: ColorSet.of(5, ["3", 0]), InputError,
     r"colors \[0, '3'\] outside \[1, 5\]"),
    ("set-t-float", lambda: ColorSet.of(5.0, [1]), UsageError,
     "universe size must be an integer, got 5.0"),
    ("set-t-bool", lambda: ColorSet.of(True, []), UsageError,
     "universe size must be an integer, got True"),
    ("color-float", lambda: intcyc_contains(CyclicIntervalSpec(1, 2, 5, 7), 2.5), UsageError,
     "color must be an integer, got 2.5"),
    ("color-bool", lambda: intcyc_contains(CyclicIntervalSpec(2, 2, 5, 7), True), UsageError,
     "color must be an integer, got True"),
]


@pytest.mark.parametrize(
    "build, error, message", [pytest.param(*case[1:], id=case[0]) for case in _NOT_AN_INTEGER]
)
def test_a_value_that_is_not_an_integer_is_refused(build, error, message):
    # a bool is an int to Python and 2.5 compares with ints, so each of
    # these built a set or answered as a member
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_membership_matches_materialization_exhaustively():
    """intcyc_contains against each basic set materialized by set algebra
    (`_basic_set`), color by color, with 0 and t + 1 just outside [1, t]."""
    for t in range(1, 7):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                for j0 in (1, 2):
                    for closed in (True, False):
                        spec = CyclicIntervalSpec(j0, i1, i2, t, closed)
                        members = _basic_set(j0, i1, i2, t, closed)
                        for color in range(0, t + 2):
                            assert intcyc_contains(spec, color) == (color in members)


def test_membership_at_billion_scale():
    t = 10**9
    spec = CyclicIntervalSpec(j0=1, i1=30, i2=t - 28, t=t, closed=False)
    assert intcyc_contains(spec, 500_000_000)
    assert not intcyc_contains(spec, 30)
    assert not intcyc_contains(spec, t - 28)
    comp = CyclicIntervalSpec(j0=2, i1=30, i2=t - 28, t=t, closed=True)
    assert not intcyc_contains(comp, 500_000_000)
    assert intcyc_contains(comp, 30)
    assert intcyc_contains(comp, 1)
    assert intcyc_contains(comp, t)


# --- ColorSet ----------------------------------------------------------------

def test_colorset_validation_and_basics():
    q = ColorSet.of(5, [3, 1])
    assert 1 in q and 3 in q and 2 not in q
    assert len(q) == 2
    with pytest.raises(InputError, match='colors \\[0\\] outside \\[1, 5\\]'):
        ColorSet.of(5, [0])
    with pytest.raises(InputError, match='colors \\[6\\] outside \\[1, 5\\]'):
        ColorSet.of(5, [6])
    with pytest.raises(UsageError, match='universe size must be >= 1, got 0'):
        ColorSet.of(0, [])


# --- arc predicate -----------------------------------------------------------

def test_arc_predicate_examples():
    assert is_cyclic_interval(ColorSet.of(7, [1, 2, 6, 7]))
    assert not is_cyclic_interval(ColorSet.of(7, [2, 5, 6, 7]))
    assert is_cyclic_interval(ColorSet.of(5, [3]))
    assert not is_cyclic_interval(ColorSet.of(4, []))
    assert is_cyclic_interval(ColorSet.of(4, [1, 2, 3, 4]))


def test_arc_predicate_equals_closed_spec_reachability():
    for t in range(1, 8):
        reachable = _all_closed_spec_sets(t)
        for mask in range(1, 1 << t):
            q = ColorSet.of(t, [b + 1 for b in range(t) if mask >> b & 1])
            assert is_cyclic_interval(q) == (q.members in reachable)


def test_arc_predicate_matches_start_length_sweep():
    for t in range(1, 8):
        arcs = set(_all_arcs(t))
        for mask in range(1, 1 << t):
            members = frozenset(b + 1 for b in range(t) if mask >> b & 1)
            assert is_cyclic_interval(ColorSet.of(t, members)) == (members in arcs)


# --- cyclic span -------------------------------------------------------------

def test_span_examples():
    assert cyclic_span(ColorSet.of(10, [1, 2, 3])) == 3
    assert cyclic_span(ColorSet.of(10, [1, 10])) == 2
    assert cyclic_span(ColorSet.of(7, [1, 4, 6])) == 5
    assert cyclic_span(ColorSet.of(9, [4])) == 1


def test_span_of_empty_set_is_an_error():
    with pytest.raises(InputError, match='cyclic span of the empty set'):
        cyclic_span(ColorSet.of(5, []))


def _min_covering_arc(members: frozenset[int], t: int) -> int:
    return min(len(a) for a in _all_arcs(t) if members <= a)


def test_span_is_minimum_covering_arc_length():
    for t in range(1, 8):
        for mask in range(1, 1 << t):
            members = frozenset(b + 1 for b in range(t) if mask >> b & 1)
            q = ColorSet.of(t, members)
            assert cyclic_span(q) == _min_covering_arc(members, t)


def test_span_bounds_and_arc_equality():
    rng = random.Random(20260819)
    for _ in range(400):
        t = rng.randint(1, 16)
        members = frozenset(c for c in range(1, t + 1) if rng.random() < 0.4) or frozenset([1])
        q = ColorSet.of(t, members)
        assert cyclic_span(q) >= len(q)
        assert (cyclic_span(q) == len(q)) == is_cyclic_interval(q)


def test_arc_window_is_the_colors_that_keep_a_covering_arc_of_d():
    """arc_window(M, d, t) = {c : min covering arc of M | {c} <= d}, for every
    nonempty M, every d < t and every t <= 8; a palette that fits no arc of
    d colors gets the empty window."""
    for t in range(2, 9):
        for mask in range(1, 1 << t):
            members = frozenset(b + 1 for b in range(t) if mask >> b & 1)
            spans = [_min_covering_arc(members | {c}, t) for c in range(1, t + 1)]
            for d in range(1, t):
                want = sum(1 << (c - 1) for c in range(1, t + 1) if spans[c - 1] <= d)
                assert arc_window(mask, d, t) == want, (t, sorted(members), d)


# --- arcs as bitmasks --------------------------------------------------------

def test_arc_masks_are_every_arc_of_each_length():
    for t in range(1, 11):
        spans = {
            mask: cyclic_span(ColorSet.of(t, [b + 1 for b in range(t) if mask >> b & 1]))
            for mask in range(1, 1 << t)
        }
        for length in range(1, t + 2):
            size = min(length, t)
            masks = arc_masks(length, t)
            assert len(masks) == t
            for s, mask in enumerate(masks, start=1):
                expected = {(s - 1 + i) % t + 1 for i in range(size)}
                assert {b + 1 for b in range(t) if mask >> b & 1} == expected, (t, length, s)
                assert mask_colors(mask) == sorted(expected)
                assert mask < 1 << t and spans[mask] == size
            if length <= t:
                every = {m for m, span in spans.items() if span == bin(m).count("1") == length}
                assert set(masks) == every, (t, length)

