"""Unit tests for the cyclic interval algebra."""

from __future__ import annotations

import random

import pytest

from cycolor.errors import BudgetError, InputError, UsageError
from cycolor.intervals import (
    ColorSet,
    CyclicIntervalSpec,
    arc_masks,
    arc_window,
    cyclic_span,
    intcyc,
    intcyc_contains,
    is_cyclic_interval,
    mask_colors,
    union_of_chained_arcs,
)


def _all_closed_spec_sets(t: int) -> set[frozenset[int]]:
    """Every set reachable as a closed variant — the defining family."""
    out = set()
    for j0 in (1, 2):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                out.add(intcyc(CyclicIntervalSpec(j0=j0, i1=i1, i2=i2, t=t, closed=True)).members)
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
    got = intcyc(CyclicIntervalSpec(j0=1, i1=2, i2=5, t=7, closed=True))
    assert got.sorted_members() == [2, 3, 4, 5]


def test_closed_variant_2_at_equal_endpoints_is_full():
    got = intcyc(CyclicIntervalSpec(j0=2, i1=3, i2=3, t=6, closed=True))
    assert got.sorted_members() == [1, 2, 3, 4, 5, 6]


def test_open_variant_1_adjacent_endpoints_is_empty():
    got = intcyc(CyclicIntervalSpec(j0=1, i1=4, i2=5, t=9, closed=False))
    assert got.sorted_members() == []


def test_open_variant_2_complements_the_closed_interval():
    got = intcyc(CyclicIntervalSpec(j0=2, i1=2, i2=5, t=7, closed=False))
    assert got.sorted_members() == [1, 6, 7]


def test_four_definitions_are_consistent_exhaustively():
    for t in range(1, 9):
        full = frozenset(range(1, t + 1))
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                closed1 = intcyc(CyclicIntervalSpec(1, i1, i2, t, True)).members
                open1 = intcyc(CyclicIntervalSpec(1, i1, i2, t, False)).members
                open2 = intcyc(CyclicIntervalSpec(2, i1, i2, t, False)).members
                closed2 = intcyc(CyclicIntervalSpec(2, i1, i2, t, True)).members
                assert open1 == closed1 - {i1, i2}
                assert open2 == full - closed1
                assert closed2 == full - open1


def test_endpoint_order_is_irrelevant():
    for t in range(1, 7):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                for j0 in (1, 2):
                    for closed in (True, False):
                        a = intcyc(CyclicIntervalSpec(j0, i1, i2, t, closed))
                        b = intcyc(CyclicIntervalSpec(j0, i2, i1, t, closed))
                        assert a.members == b.members


def test_spec_validation():
    with pytest.raises(UsageError, match='variant must be 1 or 2'):
        CyclicIntervalSpec(j0=3, i1=1, i2=1, t=5)
    with pytest.raises(UsageError, match='i1=0 outside \\[1, 5\\]'):
        CyclicIntervalSpec(j0=1, i1=0, i2=1, t=5)
    with pytest.raises(UsageError, match='i2=6 outside \\[1, 5\\]'):
        CyclicIntervalSpec(j0=1, i1=1, i2=6, t=5)
    with pytest.raises(UsageError, match='universe size must be >= 1, got 0'):
        CyclicIntervalSpec(j0=1, i1=1, i2=1, t=0)


def test_materialization_cap():
    spec = CyclicIntervalSpec(j0=1, i1=5, i2=9, t=10**6 + 1)
    with pytest.raises(BudgetError, match='refusing to materialize'):
        intcyc(spec)
    # membership still answers without materializing
    assert intcyc_contains(spec, 7)
    assert not intcyc_contains(spec, 10)


def test_membership_matches_materialization_exhaustively():
    for t in range(1, 7):
        for i1 in range(1, t + 1):
            for i2 in range(1, t + 1):
                for j0 in (1, 2):
                    for closed in (True, False):
                        spec = CyclicIntervalSpec(j0, i1, i2, t, closed)
                        members = intcyc(spec).members
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


# --- chained unions ----------------------------------------------------------

def test_chained_union_examples():
    a = ColorSet.of(9, [1, 2])
    b = ColorSet.of(9, [2, 3])
    c = ColorSet.of(9, [3, 4])
    got = union_of_chained_arcs([a, b, c], 9)
    assert got is not None and got.sorted_members() == [1, 2, 3, 4]

    wrap = union_of_chained_arcs([ColorSet.of(8, [8, 1]), ColorSet.of(8, [1, 2])], 8)
    assert wrap is not None and wrap.sorted_members() == [1, 2, 8]

    full = union_of_chained_arcs(
        [ColorSet.of(7, [1, 2, 3]), ColorSet.of(7, [3, 4, 5]), ColorSet.of(7, [5, 6, 7])], 7
    )
    assert full is not None and full.sorted_members() == [1, 2, 3, 4, 5, 6, 7]


def test_chained_union_preconditions():
    with pytest.raises(InputError, match='empty chain'):
        union_of_chained_arcs([], 5)
    with pytest.raises(InputError, match='arc 0 has universe 4, expected 5'):
        union_of_chained_arcs([ColorSet.of(4, [1, 2])], 5)  # universe mismatch
    with pytest.raises(InputError, match='arc 0 is not a 5-cyclic interval'):
        union_of_chained_arcs([ColorSet.of(5, [1, 3])], 5)  # not an arc
    with pytest.raises(InputError, match='chain broken between arcs 0 and 1'):
        union_of_chained_arcs([ColorSet.of(5, [1, 2]), ColorSet.of(5, [3, 4])], 5)


def test_chained_union_of_two_arcs_exhaustively():
    # any overlap-connected union inside a cycle is again an arc
    for t in range(2, 7):
        arcs = _all_arcs(t)
        for a in arcs:
            for b in arcs:
                if not a & b:
                    continue
                got = union_of_chained_arcs([ColorSet.of(t, a), ColorSet.of(t, b)], t)
                assert got is not None
                assert got.members == a | b
                assert is_cyclic_interval(got)
