"""Unit tests for palettes, the two checkers, and certificate JSON."""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from cycolor.coloring import (
    MAX_UNUSED_COLORS,
    Coloring,
    check_cyclically_interval,
    check_proper,
    from_json,
    palette,
    to_json,
    verdict_to_dict,
)
from cycolor.errors import BudgetError, InputError, UsageError
from cycolor.families import gen_cycle, gen_gm, gen_path, gen_random_tree, gen_star
from cycolor.graphs import build_graph
from cycolor.intervals import ColorSet, is_cyclic_interval


def test_coloring_validation():
    with pytest.raises(InputError, match='t must be a positive integer, got 0'):
        Coloring(0, ())
    with pytest.raises(InputError, match='t must be a positive integer, got -3'):
        Coloring(-3, (1,))
    with pytest.raises(InputError, match='color 3 at edge 1 outside \\[1, 2\\]'):
        Coloring(2, (1, 3))
    with pytest.raises(InputError, match='color 0 at edge 0 outside'):
        Coloring(2, (0,))
    # a bool, a float or a str is no color, and a float is no t, even where
    # it equals an int in range
    with pytest.raises(InputError, match=r'color True at edge 1 outside \[1, 2\]'):
        Coloring(2, (1, True))
    with pytest.raises(InputError, match=r'color 2.0 at edge 1 outside \[1, 2\]'):
        Coloring(2, (1, 2.0))
    with pytest.raises(InputError, match=r"color '1' at edge 0 outside \[1, 2\]"):
        Coloring(2, ("1", 2))
    with pytest.raises(InputError, match='t must be a positive integer, got 2.0'):
        Coloring(2.0, (1, 2))

    class Color(int):
        pass

    # an int subclass other than bool is an int, as a color and as t
    assert Coloring(2, (Color(1), 2)).colors == (1, 2)
    assert Coloring(Color(2), (2, Color(1))).t == 2


def test_coloring_takes_its_colors_as_a_tuple():
    # a list kept as given would be unhashable and unequal to the same colors
    # as a tuple, and a generator would be kept consumed
    for colors in ([1, 2, 3], (c for c in (1, 2, 3)), range(1, 4)):
        with pytest.raises(InputError, match=f"^colors must be a tuple, got {type(colors).__name__}$"):
            Coloring(3, colors)
    # a color out of range is named first, as for a tuple
    with pytest.raises(InputError, match=r"^color 3 at edge 1 outside \[1, 2\]$"):
        Coloring(2, [1, 3])
    assert hash(Coloring(3, (1, 2, 3))) == hash(from_json('{"t": 3, "colors": [1, 2, 3]}'))


def test_palette_examples():
    star = gen_star(3)
    c = Coloring(3, (1, 2, 3))
    assert palette(star, c, "c").sorted_members() == [1, 2, 3]
    assert len(palette(star, c, "l1")) == 1

    c5 = gen_cycle(5)
    cc = Coloring(3, (1, 2, 1, 2, 3))
    assert palette(c5, cc, "v1").sorted_members() == [1, 3]


def test_palette_errors():
    g = gen_path(2)
    with pytest.raises(UsageError, match="no vertex 'nope'"):
        palette(g, Coloring(2, (1, 2)), "nope")
    with pytest.raises(InputError, match='coloring has 1 entries but graph has 2 edges'):
        palette(g, Coloring(2, (1,)), "v1")


def test_proper_sizes_palettes_correctly():
    g = gen_cycle(6)
    c = Coloring(2, (1, 2, 1, 2, 1, 2))
    assert check_proper(g, c).ok
    for v in g.vertices:
        assert len(palette(g, c, v)) == len(g.adjacency[v])


def test_check_proper_accepts_and_rejects():
    p3 = gen_path(2)
    assert check_proper(p3, Coloring(2, (1, 2))).ok
    bad = check_proper(p3, Coloring(2, (1, 1)))
    assert not bad.ok
    kinds = [(f.kind, f.location) for f in bad.failures]
    assert ("not-proper", "v2") in kinds
    assert ("color-unused", "2") in kinds

    c5 = gen_cycle(5)
    assert check_proper(c5, Coloring(3, (1, 2, 1, 2, 3))).ok


def test_checker_requires_matching_connected_input():
    g = gen_path(2)
    with pytest.raises(InputError, match='coloring has 3 entries but graph has 2 edges'):
        check_proper(g, Coloring(2, (1, 2, 1)))
    split = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(InputError, match='checkers accept connected graphs only'):
        check_proper(split, Coloring(2, (1, 2)))
    with pytest.raises(InputError, match='checkers accept connected graphs only'):
        check_cyclically_interval(split, Coloring(2, (1, 2)))


def test_cyclically_interval_worked_examples():
    c5 = gen_cycle(5)
    assert check_cyclically_interval(c5, Coloring(3, (1, 2, 1, 2, 3))).ok

    # both interior palettes have interval or interval-complement shape
    p4 = gen_path(3)
    assert check_cyclically_interval(p4, Coloring(3, (1, 3, 2))).ok

    p5 = gen_path(4)
    verdict = check_cyclically_interval(p5, Coloring(4, (1, 3, 1, 4)))
    assert not verdict.ok
    bad_palettes = [f for f in verdict.failures if f.kind == "bad-palette"]
    assert [f.location for f in bad_palettes] == ["v2", "v3"]
    assert "[1, 3]" in bad_palettes[0].detail


def test_all_failures_are_enumerated_in_stable_order():
    g = gen_star(3)
    c = Coloring(3, (2, 2, 2))
    v = check_cyclically_interval(g, c)
    assert not v.ok
    assert [f.kind for f in v.failures] == ["not-proper", "color-unused", "color-unused"]
    assert [f.location for f in v.failures] == ["c", "1", "3"]
    again = check_cyclically_interval(g, c)
    assert verdict_to_dict(v) == verdict_to_dict(again)


def test_interval_colorings_always_pass():
    # palettes built as plain intervals satisfy the cyclic condition a fortiori
    g = gen_path(4)
    assert check_cyclically_interval(g, Coloring(2, (1, 2, 1, 2))).ok
    assert check_cyclically_interval(g, Coloring(4, (1, 2, 3, 4))).ok
    star = gen_star(5)
    assert check_cyclically_interval(star, Coloring(5, (1, 2, 3, 4, 5))).ok


def _checker_palette_condition_agrees(g, c) -> None:
    """The checker's (a)/(b) formulation must mirror the arc predicate."""
    proper = check_proper(g, c)
    verdict = check_cyclically_interval(g, c)
    via_predicate = proper.ok and all(
        is_cyclic_interval(palette(g, c, v)) for v in g.vertices
    )
    assert verdict.ok == via_predicate


def test_checker_matches_arc_predicate_exhaustively_on_p3_and_c4():
    for g in (gen_path(2), gen_cycle(4)):
        m = len(g.edges)
        for t in range(1, m + 1):
            for combo in itertools.product(range(1, t + 1), repeat=m):
                _checker_palette_condition_agrees(g, Coloring(t, combo))


def test_checker_matches_arc_predicate_on_random_colorings():
    rng = random.Random(19)
    graphs = [gen_path(5), gen_cycle(6), gen_star(4), gen_random_tree(8, seed=5)]
    for g in graphs:
        m = len(g.edges)
        for _ in range(300):
            t = rng.randint(1, min(8, m))
            combo = tuple(rng.randint(1, t) for _ in range(m))
            _checker_palette_condition_agrees(g, Coloring(t, combo))


@functools.lru_cache(maxsize=None)
def _is_arc(colors: frozenset, t: int) -> bool:
    """Whether `colors` is a cyclic arc of 1..t, by trying every start."""
    k = len(colors)
    return k > 0 and any(all((s + i) % t + 1 in colors for i in range(k)) for s in range(t))


def _by_definition(g, c):
    """(ok, [(kind, location)]) written out from the definitions: clashes by
    counting, per vertex in vertex order; unused colors ascending; then
    palettes that are no cyclic arc, per vertex in vertex order."""
    found = []
    palettes = {v: [c.colors[e] for _, e in g.adjacency[v]] for v in g.vertices}
    for v, seen in palettes.items():
        found += [("not-proper", v) for x in sorted(set(seen)) if seen.count(x) > 1]
    found += [("color-unused", str(x)) for x in range(1, c.t + 1) if x not in c.colors]
    for v, seen in palettes.items():
        if not _is_arc(frozenset(seen), c.t):
            found.append(("bad-palette", v))
    return not found, found


def _as_pairs(verdict):
    return verdict.ok, [(f.kind, f.location) for f in verdict.failures]


def test_checker_matches_the_definition_on_every_gm2_assignment():
    g = gen_gm(2)
    passed = 0
    for combo in itertools.product(range(1, 5), repeat=len(g.edges)):
        c = Coloring(4, combo)
        want = _by_definition(g, c)
        assert _as_pairs(check_cyclically_interval(g, c)) == want, combo
        passed += want[0]
    assert passed


def test_checker_matches_the_definition_on_random_colorings():
    rng = random.Random(23)
    diamond = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    for g in (gen_gm(3), gen_random_tree(9, seed=4), gen_cycle(5), diamond):
        m = len(g.edges)
        for _ in range(400):
            t = rng.randint(1, m + 1)
            c = Coloring(t, tuple(rng.randint(1, t) for _ in range(m)))
            ok, pairs = _by_definition(g, c)
            assert _as_pairs(check_cyclically_interval(g, c)) == (ok, pairs), (t, c.colors)
            proper = [p for p in pairs if p[0] != "bad-palette"]
            assert _as_pairs(check_proper(g, c)) == (not proper, proper), (t, c.colors)


def test_cached_connectivity_still_rejects_on_every_call():
    split = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    g = gen_path(2)
    for _ in range(2):
        for check in (check_proper, check_cyclically_interval):
            with pytest.raises(InputError, match='checkers accept connected graphs only'):
                check(split, Coloring(2, (1, 2)))
            with pytest.raises(InputError, match='coloring has 3 entries but graph has 2 edges'):
                check(g, Coloring(2, (1, 2, 1)))
            assert check(g, Coloring(2, (1, 2))).ok


def test_json_round_trip():
    c = Coloring(3, (1, 2, 1, 2, 3))
    assert from_json(to_json(c)) == c


def test_json_rejects_malformed_payloads():
    with pytest.raises(InputError, match="needs 't' and 'colors' keys"):
        from_json("[]")
    with pytest.raises(InputError, match="needs 't' and 'colors' keys"):
        from_json('{"colors": [1]}')
    with pytest.raises(InputError, match="t must be a positive integer, got 'x'"):
        from_json('{"t": "x", "colors": [1]}')
    with pytest.raises(InputError, match='color 9 at edge 1 outside'):
        from_json('{"t": 2, "colors": [1, 9]}')
    with pytest.raises(InputError, match="'colors' must be a list of integers"):
        from_json('{"t": 2, "colors": "zz"}')


def test_checkers_cap_the_unused_colors_they_list():
    # At least t - |E| colors go unused, and a verdict lists each of them.
    g = gen_path(2)
    at_cap = Coloring(2 + MAX_UNUSED_COLORS, (1, 2))
    v = check_cyclically_interval(g, at_cap)
    assert len(v.failures) == MAX_UNUSED_COLORS
    assert v.failures[0].location == "3" and v.failures[-1].location == str(at_cap.t)
    for check in (check_proper, check_cyclically_interval):
        with pytest.raises(BudgetError, match=f"at most {MAX_UNUSED_COLORS}"):
            check(g, Coloring(at_cap.t + 1, (1, 2)))
