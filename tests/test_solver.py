"""Unit tests for the exact search, the brute-force oracle, and spectra."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import inspect
import itertools
import json
import os
import pickle
import random
from pathlib import Path
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycolor import graphs, solver
from cycolor.coloring import (
    KIND_BAD_PALETTE,
    KIND_COLOR_UNUSED,
    Coloring,
    check_cyclically_interval,
)
from cycolor.errors import BudgetError, InputError, InternalError, UsageError
from cycolor.families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_gm,
    gen_path,
    gen_random_tree,
    gen_star,
)
from cycolor.graphs import build_graph
from cycolor.intervals import ColorSet, cyclic_span
from cycolor.solver import (
    BUDGET_EXCEEDED,
    COLORABLE,
    NOT_COLORABLE,
    SearchOutcome,
    SolverConfig,
    _window_kernel,
    brute_force_decide,
    certificate_prefix_survives,
    chromatic_index,
    count_colorings,
    decide,
    spectrum,
)


def _rotate(c: Coloring) -> Coloring:
    return Coloring(c.t, tuple((x % c.t) + 1 for x in c.colors))


def _reflect(c: Coloring) -> Coloring:
    return Coloring(c.t, tuple(c.t + 1 - x for x in c.colors))


def _searched(g, t, cfg=SolverConfig()):
    """The outcome of the search itself at t, run on the plan as `decide`
    runs it but with no answer by argument before it: the walks that the
    node-count pins follow go on past the reach ceiling, and on trees."""
    plan = solver._plan(g)
    if cfg.symmetry_breaking:
        out, _ = solver._search(plan, t, solver._symmetry_rules(plan, t), cfg, plan.gt)
    else:
        out, _ = solver._search(plan, t, [(1 << t) - 1] * len(plan.order), cfg)
    return out


def test_decide_validates_inputs():
    g = gen_path(2)
    with pytest.raises(UsageError, match='t must be a positive integer, got 0'):
        decide(g, 0)
    with pytest.raises(UsageError, match="t must be a positive integer, got '3'"):
        decide(g, "3")
    two_parts = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(InputError, match='decide accepts connected graphs only'):
        decide(two_parts, 2)
    with pytest.raises(InputError, match='prefix_survives accepts connected graphs only'):
        certificate_prefix_survives(two_parts, Coloring(2, (1, 2)))
    # the replay reads one color per edge: too few or too many is refused
    with pytest.raises(InputError, match='coloring has 1 entries but graph has 2 edges'):
        certificate_prefix_survives(g, Coloring(2, (1,)))
    with pytest.raises(InputError, match='coloring has 3 entries but graph has 2 edges'):
        certificate_prefix_survives(g, Coloring(2, (1, 2, 1)))
    with pytest.raises(InputError, match='brute force accepts connected graphs only'):
        count_colorings(two_parts, 2)
    with pytest.raises(UsageError, match="unknown method 'nope'"):
        count_colorings(g, 2, method="nope")
    with pytest.raises(UsageError, match="unknown method 'auto'"):
        brute_force_decide(g, 2, method="auto")
    # every count parameter is a positive int, checked by one rule
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(UsageError, match=f"node_budget must be a positive integer, got {bad!r}"):
            SolverConfig(node_budget=bad)
        with pytest.raises(UsageError, match=f"jobs must be a positive integer, got {bad!r}"):
            spectrum(g, jobs=bad)
        for name in ("t_min", "t_max"):
            with pytest.raises(UsageError, match=f"{name} must be a positive integer, got {bad!r}"):
                spectrum(g, **{name: bad})
    with pytest.raises(UsageError, match="t must be a positive integer, got 2.5"):
        decide(g, 2.5)
    for bad in (0, -1, float("nan"), "1", True):
        with pytest.raises(UsageError, match=f"time_budget must be a positive number, got {bad!r}"):
            SolverConfig(time_budget=bad)
    assert SolverConfig(time_budget=1).time_budget == 1
    for bad in ("false", 0, None):
        with pytest.raises(UsageError, match=f"symmetry_breaking must be a bool, got {bad!r}"):
            SolverConfig(symmetry_breaking=bad)


def test_the_search_options_are_pinned():
    # A new search knob doubles the configurations to test: add it here on purpose.
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "symmetry_breaking",
        "node_budget",
        "time_budget",
    ]
    # the search plan is built inside; no entry point takes one
    assert list(inspect.signature(decide).parameters) == ["g", "t", "cfg"]
    assert list(inspect.signature(spectrum).parameters) == [
        "g", "t_min", "t_max", "cfg", "jobs", "graph_id",
    ]  # fmt: skip
    assert list(inspect.signature(chromatic_index).parameters) == ["g"]
    assert list(inspect.signature(certificate_prefix_survives).parameters) == ["g", "cert"]
    for oracle in (brute_force_decide, count_colorings):
        params = inspect.signature(oracle).parameters
        assert list(params) == ["g", "t", "method"]
        assert params["method"].default == "vector"


def test_decide_immediate_window_cuts():
    star = gen_star(4)
    below = decide(star, 3)
    assert below.status == NOT_COLORABLE and "max degree" in below.reason
    above = decide(gen_path(2), 3)
    assert above.status == NOT_COLORABLE and "edge count" in above.reason


def test_decide_star_and_cycle_examples():
    out = decide(gen_star(4), 4)
    assert out.status == COLORABLE
    assert sorted(out.coloring.colors) == [1, 2, 3, 4]

    out = decide(gen_cycle(5), 3)
    assert out.status == COLORABLE
    assert check_cyclically_interval(gen_cycle(5), out.coloring).ok


def test_every_certificate_reverifies():
    cases = [
        (gen_path(4), 3),
        (gen_cycle(4), 2),
        (gen_cycle(5), 3),
        (gen_star(5), 5),
        (gen_complete_bipartite(2, 2), 2),
        (gen_gm(2), 4),
        (gen_gm(2), 6),
    ]
    for g, t in cases:
        out = decide(g, t)
        assert out.status == COLORABLE
        assert check_cyclically_interval(g, out.coloring).ok


def test_rotation_and_reflection_closure():
    for g, t in [(gen_cycle(5), 3), (gen_gm(2), 4), (gen_path(4), 4)]:
        out = decide(g, t)
        assert out.status == COLORABLE
        cert = out.coloring
        for _ in range(t):
            cert = _rotate(cert)
            assert check_cyclically_interval(g, cert).ok
        assert check_cyclically_interval(g, _reflect(out.coloring)).ok


def test_symmetry_breaking_preserves_the_answer():
    cases = [
        (gen_path(3), 2),
        (gen_path(3), 3),
        (gen_cycle(5), 3),
        (gen_cycle(5), 4),
        (gen_cycle(4), 3),
        (gen_gm(2), 4),
        (gen_gm(2), 7),
    ]
    for g, t in cases:
        # decide refutes gm(2) at t=7 by its reach ceiling, so the searches
        # are compared on their own too
        for run in (decide, _searched):
            on = run(g, t, SolverConfig(symmetry_breaking=True))
            off = run(g, t, SolverConfig(symmetry_breaking=False))
            assert on.status == off.status, (run.__name__, t)


def test_budgets_interrupt_instead_of_lying():
    # the 5-cycle at t=4 is within its reach ceiling of 6 and is refuted by
    # an exhaustive search of 34 nodes
    g = gen_cycle(5)
    out = decide(g, 4, SolverConfig(node_budget=5))
    assert out.status == BUDGET_EXCEEDED
    assert out.nodes >= 5
    # a generous budget reaches the exhaustive answer
    full = decide(g, 4, SolverConfig(node_budget=10**6))
    assert (full.status, full.reason) == (NOT_COLORABLE, "exhaustive search")
    # the clock is read every 1024 nodes; gm(4) at t=19, below its ceiling
    # of 22, runs past 3M nodes
    out = decide(gen_gm(4), 19, SolverConfig(time_budget=0.05))
    assert out.status == BUDGET_EXCEEDED
    assert out.reason == "time budget 0.05s exhausted"
    assert out.nodes % 1024 == 0
    # With both budgets, the clock is read at 1024 nodes only if that mark is
    # within the node budget; otherwise the node budget stops the search first.
    for node_budget, reason in (
        (1023, "node budget 1023 exhausted"),
        (1024, "time budget 1e-09s exhausted"),
    ):
        out = decide(gen_gm(4), 19, SolverConfig(node_budget=node_budget, time_budget=1e-9))
        assert (out.status, out.reason, out.nodes) == (BUDGET_EXCEEDED, reason, 1024)


def test_prunes_never_cut_a_valid_certificate_prefix():
    cases = [
        (gen_path(4), 2),
        (gen_cycle(5), 3),
        (gen_cycle(4), 2),
        (gen_star(4), 4),
        (gen_gm(2), 4),
        (gen_gm(2), 5),
        (gen_gm(2), 6),
    ]
    for g, t in cases:
        # The copy with its vertex and edge lists both reversed picks another
        # root or breaks neighbour ties the other way, so it is replayed in
        # a different order in every case.
        rev = build_graph(g.vertices[::-1], g.edges[::-1])
        m = len(g.edges)
        assert tuple(m - 1 - e for e in solver._plan(rev).order) != solver._plan(g).order
        # replay every oracle-validated coloring, not just the solver's own
        seen = 0
        for cert in _all_valid_colorings(g, t):
            assert certificate_prefix_survives(g, cert)
            assert certificate_prefix_survives(rev, Coloring(t, cert.colors[::-1]))
            seen += 1
            if seen == 50:
                break
        assert seen > 0
    # an improper coloring is cut at the edge that repeats a color
    assert not certificate_prefix_survives(gen_cycle(4), Coloring(2, (1, 1, 2, 2)))


def test_the_prefix_replay_cuts_with_each_prune():
    """The replay runs the search's own masks, so a complete coloring that
    only prune (ii), or only prune (iii), would cut does not survive."""
    # C4 colored 1,3,2,4 is proper and onto; v2's palette {1, 3} is no arc of 2
    c4, arc_cut = gen_cycle(4), Coloring(4, (1, 3, 2, 4))
    kinds = {f.kind for f in check_cyclically_interval(c4, arc_cut).failures}
    assert kinds == {KIND_BAD_PALETTE}
    assert not certificate_prefix_survives(c4, arc_cut)
    # a 3-edge path colored 1,2,1 has arc palettes but leaves color 3 unused
    p3, onto_cut = gen_path(3), Coloring(3, (1, 2, 1))
    kinds = {f.kind for f in check_cyclically_interval(p3, onto_cut).failures}
    assert kinds == {KIND_COLOR_UNUSED}
    assert not certificate_prefix_survives(p3, onto_cut)


def _all_valid_colorings(g, t):
    """Every valid coloring, in lexicographic order.

    A depth-first walk in edge-index order that skips a color already at
    either endpoint yields exactly the proper assignments, in the order
    `itertools.product` would; a valid coloring is proper, so filtering
    those through the checker leaves exactly the valid ones.
    """
    colors = [0] * len(g.edges)
    at = {v: set() for v in g.vertices}

    def walk(e):
        if e == len(g.edges):
            cert = Coloring(t, tuple(colors))
            if check_cyclically_interval(g, cert).ok:
                yield cert
            return
        u, v = g.edges[e]
        for c in range(1, t + 1):
            if c not in at[u] and c not in at[v]:
                colors[e] = c
                at[u].add(c)
                at[v].add(c)
                yield from walk(e + 1)
                at[u].remove(c)
                at[v].remove(c)

    return walk(0)


def test_oracle_agrees_with_decide_on_small_corpus():
    corpus = [
        gen_path(2),
        gen_path(3),
        gen_cycle(3),
        gen_cycle(4),
        gen_cycle(5),
        gen_star(3),
        gen_complete_bipartite(2, 2),
    ]
    for g in corpus:
        for t in range(1, len(g.edges) + 1):
            fast = decide(g, t)
            slow = brute_force_decide(g, t)
            assert fast.status == slow.status, (g.vertices, t)
            if slow.status == COLORABLE:
                assert check_cyclically_interval(g, slow.coloring).ok


def test_oracle_frozen_values():
    assert brute_force_decide(gen_path(2), 2).status == COLORABLE
    assert brute_force_decide(gen_star(3), 2).status == NOT_COLORABLE
    assert brute_force_decide(gen_cycle(4), 2).status == COLORABLE
    assert brute_force_decide(gen_cycle(5), 3).status == COLORABLE
    assert brute_force_decide(gen_cycle(5), 4).status == NOT_COLORABLE


def test_gm2_outcome_table():
    g = gen_gm(2)
    expected = {
        4: COLORABLE,
        5: COLORABLE,
        6: COLORABLE,
        7: NOT_COLORABLE,
        8: NOT_COLORABLE,
    }
    for t, status in expected.items():
        assert decide(g, t).status == status


def test_oracle_methods_agree_and_share_first_certificate():
    for g, t in [(gen_cycle(5), 3), (gen_path(4), 3), (gen_cycle(4), 4)]:
        lit = brute_force_decide(g, t, method="literal")
        vec = brute_force_decide(g, t, method="vector")
        assert lit.status == vec.status
        if lit.status == COLORABLE:
            assert lit.coloring == vec.coloring  # both lexicographically first
    for g, t in [(gen_cycle(5), 3), (gen_cycle(4), 2), (gen_path(3), 2)]:
        assert count_colorings(g, t, method="literal") == count_colorings(g, t, method="vector")
    # deg 3 > t: no palette of the center is an arc of 3 colors
    for method in ("literal", "vector"):
        assert count_colorings(gen_star(3), 2, method=method) == 0
        assert brute_force_decide(gen_star(3), 2, method=method).status == NOT_COLORABLE
        # a lone vertex has no edge to carry any color
        assert count_colorings(build_graph(["a"], []), 2, method=method) == 0


def test_oracle_methods_agree_on_the_small_graphs():
    # The small graphs the benchmark sweeps at every t of their window; gm(2)
    # at t=4 and the 5-cycle at t=3 are compared in the block test below.
    diamond = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    small = [gen_cycle(5), diamond, gen_cycle(4), gen_path(3), gen_star(3), gen_random_tree(6, 0)]
    for g in small:
        for t in range(chromatic_index(g), len(g.edges) + 1):
            assert count_colorings(g, t) == count_colorings(g, t, method="literal"), (g.edges, t)
            vec, lit = brute_force_decide(g, t), brute_force_decide(g, t, method="literal")
            assert (vec.status, vec.coloring) == (lit.status, lit.coloring), (g.edges, t)


def _kept(g, t: int, edges: range) -> Iterator[tuple[int, ...]]:
    """The assignments to `edges`, in lex order, that the vector sweep keeps
    for its grid, found with the checker: those with no fault at a vertex
    whose edges all lie in `edges`, nor an unused color when `edges` are all
    of g's edges."""
    inner = {v for v, incident in zip(g.vertices, g.incidence) if set(incident) <= set(edges)}
    for part in itertools.product(range(1, t + 1), repeat=len(edges)):
        colors = [1] * len(g.edges)
        colors[edges.start : edges.stop] = part
        faults = check_cyclically_interval(g, Coloring(t=t, colors=tuple(colors))).failures
        if not any(
            len(edges) == len(g.edges) if f.kind == KIND_COLOR_UNUSED else f.location in inner
            for f in faults
        ):
            yield part


def test_vector_sweep_blocks_agree_with_the_literal_sweep(monkeypatch):
    cases = [
        (gen_cycle(5), 3),
        (gen_cycle(5), 4),
        (gen_path(4), 3),
        (gen_path(5), 2),
        (gen_complete_bipartite(2, 3), 3),
        (gen_random_tree(7, 2), 4),
        (gen_gm(2), 4),
        (gen_star(3), 2),  # the center has deg 3 > t: at the default chunk no row survives
    ]
    literal = {}
    for g, t in cases:
        count = count_colorings(g, t, method="literal")
        literal[g.edges, t] = (count, brute_force_decide(g, t, method="literal").coloring)
    default = solver._CHUNK
    for chunk in (7, 64, default):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        past_first_block = 0
        for g, t in cases:
            count, first = literal[g.edges, t]
            assert count_colorings(g, t, method="vector") == count, (chunk, g.edges, t)
            assert brute_force_decide(g, t, method="vector").coloring == first, (chunk, t)
            if first is None or chunk == default:
                continue
            # the last k edges take at most chunk rows, and a grid block
            # holds max(1, chunk // kept rows) kept prefixes
            split = len(g.edges)
            while split and t ** (len(g.edges) - split + 1) <= chunk:
                split -= 1
            head = first.colors[:split]
            rank = sum(1 for _ in itertools.takewhile(head.__gt__, _kept(g, t, range(split))))
            rows = sum(1 for _ in _kept(g, t, range(split, len(g.edges))))
            past_first_block += rank >= max(1, chunk // rows)
        assert past_first_block or chunk == default  # one default block holds every case
    # With k = 0 every edge of the center (deg 3 > t) is a prefix edge, so
    # the prefix filter keeps nothing.
    monkeypatch.setattr(solver, "_CHUNK", 1)
    assert count_colorings(gen_star(3), 2) == 0
    assert brute_force_decide(gen_star(3), 2).status == NOT_COLORABLE


@st.composite
def _small_cases(draw):
    """A connected graph on 2..6 vertices and a t with t^|E| <= 5000.

    The graph is a random spanning tree plus any extra edges, so odd cycles
    (non-bipartite graphs) are drawn too.
    """
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    tree = {frozenset(e) for e in edges}
    extra = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    extra = [e for e in extra if frozenset(e) not in tree]
    if extra:
        edges += draw(st.lists(st.sampled_from(extra), unique=True, max_size=4))
    order = draw(st.permutations(range(len(edges))))
    g = build_graph(names, [edges[i] for i in order])
    t_max = 1
    while t_max <= len(g.edges) and (t_max + 1) ** len(g.edges) <= 5000:
        t_max += 1
    return g, draw(st.integers(1, t_max))


@settings(max_examples=100, deadline=None, database=None)
@given(case=_small_cases(), chunk=st.sampled_from([7, 64, 1 << 17]))
def test_oracle_routes_agree_with_decide_on_random_graphs(case, chunk):
    g, t = case
    with mock.patch.object(solver, "_CHUNK", chunk):
        count = count_colorings(g, t, method="vector")
    assert count == count_colorings(g, t, method="literal")
    want = brute_force_decide(g, t).status
    assert decide(g, t).status == want
    assert decide(g, t, SolverConfig(symmetry_breaking=False)).status == want


@st.composite
def _cases_with_false_twins(draw):
    """A `_small_cases` graph with one or two false twins added, and a t with
    t^|E| <= 10^6, from the max degree on where that is in reach. A false
    twin is a new vertex joined to the neighbours of a drawn vertex (possibly
    an earlier twin), and not to the vertex itself."""
    g, _ = draw(_small_cases())
    for copy in range(draw(st.integers(1, 2))):
        of = draw(st.sampled_from(g.vertices))
        twin = f"w{copy}"
        g = build_graph([*g.vertices, twin], [*g.edges, *((twin, w) for w, _ in g.adjacency[of])])
    order = draw(st.permutations(range(len(g.edges))))
    g = build_graph(g.vertices, [g.edges[i] for i in order])
    t_max = 1
    while t_max <= len(g.edges) and (t_max + 1) ** len(g.edges) <= 10**6:
        t_max += 1
    delta = max(len(g.adjacency[v]) for v in g.vertices)  # below it only properness cuts
    return g, draw(st.integers(min(delta, t_max), t_max))


@st.composite
def _random_tree_cases(draw):
    """A seeded random tree on 3..9 vertices, where the leaves at each vertex
    form a false-twin class, and a t from its max degree to its edge count."""
    g = gen_random_tree(draw(st.integers(3, 9)), draw(st.integers(0, 39)))
    delta = max(len(g.adjacency[v]) for v in g.vertices)
    return g, draw(st.integers(delta, len(g.edges)))


@settings(max_examples=100, deadline=None, database=None)
@given(case=st.one_of(_cases_with_false_twins(), _random_tree_cases()))
def test_decide_agrees_with_the_oracle_on_graphs_with_false_twins(case):
    # False twins are the symmetry that the twin-ordering rule breaks; this
    # is the oracle agreement the rules have to keep.
    g, t = case
    want = brute_force_decide(g, t).status
    assert decide(g, t).status == want, (g.edges, t)
    assert decide(g, t, SolverConfig(symmetry_breaking=False)).status == want, (g.edges, t)


@settings(max_examples=100, deadline=None, database=None)
@given(case=_small_cases())
def test_edge_order_is_connected_depth_first_from_a_max_degree_root(case):
    g, _ = case
    order = solver._plan(g).order
    assert sorted(order) == list(range(len(g.edges)))
    assert solver._plan(g).order == order
    delta = max(len(g.adjacency[v]) for v in g.vertices)
    root = next(i for i, v in enumerate(g.vertices) if len(g.adjacency[v]) == delta)
    assert set(order[:delta]) == set(g.incidence[root])
    touched = set(g.edges[order[0]])
    for e in order[1:]:
        assert touched & set(g.edges[e]), (g.edges, order, e)
        touched.update(g.edges[e])


def test_oracle_count_frozen_values():
    assert count_colorings(gen_path(2), 2) == 2
    assert count_colorings(gen_cycle(4), 2) == 2
    assert count_colorings(gen_cycle(5), 3) == 30
    assert count_colorings(gen_gm(2), 4) == 96
    # Where the vector sweep drops most suffix rows up front (it keeps 576 of
    # 46,656 at t=6, 672 of 117,649 at t=7 and 384 of 32,768 at t=8), each
    # count has a second route: 480 and 432 are also what the literal sweep
    # counts (too slow for this suite), and the zeros at t=7 and 8 agree with
    # `decide`'s exhaustive refutation (test_gm2_outcome_table) and with the
    # HiGHS answers frozen in bench/references.json.
    assert [count_colorings(gen_gm(2), t) for t in range(5, 9)] == [480, 432, 0, 0]


def test_oracle_cap():
    # gm(2) has 8 edges: 14^8 = 1,475,789,056 assignments are past the 10^9 cap
    with pytest.raises(BudgetError, match=r"14\^8 = 1475789056 .* cap 1000000000$"):
        brute_force_decide(gen_gm(2), 14)
    with pytest.raises(BudgetError, match='t=21 exceeds 20'):
        count_colorings(gen_path(6), 21)


def test_spectrum_star_is_a_single_point():
    res = spectrum(gen_star(4), graph_id="star4")
    assert (res.t_min, res.t_max) == (4, 4)
    assert res.outcomes[4].status == COLORABLE
    assert res.graph_id == "star4"


def test_spectrum_path3_frozen():
    res = spectrum(gen_path(3))
    assert (res.t_min, res.t_max) == (2, 3)
    assert res.outcomes[2].status == COLORABLE
    assert res.outcomes[3].status == COLORABLE


def test_spectrum_clamps_with_warning():
    g = gen_path(3)
    with pytest.warns(UserWarning):
        res = spectrum(g, t_min=1, t_max=99)
    assert (res.t_min, res.t_max) == (2, 3)
    # a range that is empty, as given or once clamped, decides nothing
    with pytest.raises(UsageError, match=r"spectrum range \[3, 2\] is empty"):
        spectrum(g, t_min=3, t_max=2)
    with pytest.raises(UsageError, match=r"spectrum range \[20, 3\] is empty"):
        with pytest.warns(UserWarning):
            spectrum(g, t_min=20, t_max=99)


def test_spectrum_parallel_matches_serial():
    g = gen_gm(2)
    serial = spectrum(g)
    parallel = spectrum(g, jobs=2)
    # outcomes compare by status, coloring, reason and nodes
    assert parallel.outcomes == serial.outcomes


def test_spectrum_pool_is_capped_by_window_and_cpus(monkeypatch):
    """A pool forks all its workers up front, so it gets at most one per t
    and per CPU. A serial stand-in records the size; no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    g = gen_gm(2)  # a 5-t window, 4..8
    serial = {t: o.status for t, o in spectrum(g).outcomes.items()}
    for cpus, want in ((64, [5]), (3, [3]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        res = spectrum(g, jobs=5000)
        assert sizes == want, cpus
        assert {t: o.status for t, o in res.outcomes.items()} == serial


def test_spectrum_of_random_trees_is_nonempty():
    for seed in (1, 2, 3):
        g = gen_random_tree(7, seed)
        res = spectrum(g, graph_id=f"tree{seed}")
        assert any(o.status == COLORABLE for o in res.outcomes.values())


def test_outcome_is_a_value_object():
    out = SearchOutcome(NOT_COLORABLE, reason="x")
    assert out.coloring is None and out.nodes == 0 and out.seconds == 0.0
    # decide stamps the seconds it took, which outcomes do not compare
    timed = decide(gen_gm(2), 7)
    assert timed.seconds > 0
    assert timed == dataclasses.replace(timed, seconds=timed.seconds + 1)
    assert all(o.seconds > 0 for o in spectrum(gen_path(3)).outcomes.values())


def test_node_counts_are_pinned():
    """Pin the search order: verdicts and node counts of the default search.

    These numbers pin how the search walks, not whether it is right (the
    verdicts are backed by the brute-force oracle and the HiGHS references).
    A change that should leave the search alone, such as a faster prune
    test, must leave every count here unchanged. Where t is above the reach
    ceiling, or the graph is a tree, `decide` answers with no search, so the
    walk there is pinned on the search itself (`_searched`).
    """
    expected = [
        (gen_gm(2), {4: (COLORABLE, 8), 5: (COLORABLE, 18), 6: (COLORABLE, 38),
                     7: (NOT_COLORABLE, 47), 8: (NOT_COLORABLE, 33)}),
        (gen_gm(3), {9: (COLORABLE, 103), 10: (COLORABLE, 532), 11: (COLORABLE, 860),
                     12: (COLORABLE, 3573), 13: (COLORABLE, 6250)}),
    ]
    for g, table in expected:
        rho = g.reach_ceiling.bound
        for t, (status, nodes) in table.items():
            out = decide(g, t) if t <= rho else _searched(g, t)
            assert (out.status, out.nodes) == (status, nodes), t
    out = _searched(gen_gm(3), 14, SolverConfig(node_budget=10_000))
    assert (out.status, out.nodes) == (BUDGET_EXCEEDED, 10_001)
    unbroken = SolverConfig(symmetry_breaking=False)
    for t, (status, nodes) in {4: (COLORABLE, 8), 5: (COLORABLE, 18), 6: (COLORABLE, 38),
                               7: (NOT_COLORABLE, 5131), 8: (NOT_COLORABLE, 3152)}.items():
        out = decide(gen_gm(2), t, unbroken) if t <= 6 else _searched(gen_gm(2), t, unbroken)
        assert (out.status, out.nodes) == (status, nodes), t
    # a tree whose twin class (11, 17) is chained in the plan, at 10k nodes;
    # `decide` answers every t of a tree by its width, so all are searched here
    tree = gen_random_tree(20, 1)
    assert any(p < len(tree.edges) for p in solver._plan(tree).gt)
    found = dict(zip(range(4, 14), (21, 27, 43, 33, 259, 135, 214, 2116, 3613, 2483)))
    found_unbroken = {**found, **dict(zip(range(8, 14), (435, 210, 290, 3508, 5323, 3077)))}
    over = (BUDGET_EXCEEDED, 10_001)
    for sym, found_at, refuted in (
        (True, found, {18: 5136, 19: 1420}),
        (False, found_unbroken, {}),
    ):
        cfg = SolverConfig(symmetry_breaking=sym, node_budget=10_000)
        for t in range(4, 20):
            want = (
                (COLORABLE, found_at[t]) if t in found_at
                else (NOT_COLORABLE, refuted[t]) if t in refuted
                else over
            )  # fmt: skip
            out = _searched(tree, t, cfg)
            assert (out.status, out.nodes) == want, (sym, t)
    # the chromatic-index search: an odd cycle has no proper 2-coloring
    for n, nodes in ((5, 4), (7, 6), (9, 8)):
        out = solver._proper_search(gen_cycle(n))
        assert (out.status, out.nodes) == (NOT_COLORABLE, nodes), n
    out = _searched(gen_path(1200), 1200, SolverConfig(node_budget=200_000))
    assert (out.status, out.nodes) == (BUDGET_EXCEEDED, 200_001)


def test_the_search_never_colors_above_the_reach_ceiling():
    """Every t above ρ that the search settles on its own, with no ceiling
    before it and within 20,000 nodes, it refutes: random connected graphs
    of 3-12 vertices, a spanning tree plus up to three other edges. `decide`
    refutes each such t with no search: by the reach ceiling, or on a tree
    by its width, which is at most ρ."""
    rng = random.Random(11)
    refuted = trees = 0
    for n in range(3, 13):
        for _ in range(30):
            names = [f"v{i}" for i in range(n)]
            edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
            tree = {frozenset(e) for e in edges}
            others = [e for e in itertools.combinations(names, 2) if frozenset(e) not in tree]
            g = build_graph(names, edges + rng.sample(others, min(rng.randrange(4), len(others))))
            delta = max(len(g.adjacency[v]) for v in g.vertices)
            for t in range(max(delta, g.reach_ceiling.bound + 1), len(g.edges) + 1):
                for sym in (True, False):
                    out = _searched(g, t, SolverConfig(symmetry_breaking=sym, node_budget=20_000))
                    assert out.status != COLORABLE, (g.edges, t, sym)
                    refuted += out.status == NOT_COLORABLE
                out = decide(g, t)
                assert (out.status, out.nodes) == (NOT_COLORABLE, 0)
                route = "tree width" if len(g.edges) == n - 1 else "reach ceiling"
                assert out.reason.startswith(f"t={t} exceeds {route}"), (g.edges, t)
                trees += route == "tree width"
    assert refuted > 50 and trees  # 4 of the t are on trees


def test_spectrum_of_gm7_is_refuted_by_the_reach_ceiling():
    """gm(7) has no t in its window [Δ, |E|] = [49, 343] at or below its
    reach ceiling 45, so `spectrum` refutes every t with no search.

    The derivation, for gm(m) with m >= 3. The hub has degree m², a pair
    vertex 2m and a grid vertex m, so the weights deg - 1 are m² - 1,
    2m - 1 and m - 1. Take h = y_{p,q}, of degree m; its own edges are at
    0. Its neighbours are the hub and the m - 1 pairs x_{p,j}; a pair is
    at 2m - 1, and every grid vertex other than h is a neighbour of some
    such pair (y_{j,s} of x_{p,j}, y_{p,s} of any), so it is at
    (2m - 1) + (m - 1) = 3m - 2. The route through the hub costs
    (m² - 1) + (m - 1), no less. Every edge has a grid end, at most
    3m - 2 away. A pair x_{r,s} with p not in {r, s} (there is one, as
    m >= 3) is no neighbour of h, so it lies at 3m - 2 + (2m - 1), and
    its edges are exactly 3m - 2 away. So R = 3m - 2, and h gives
    m + 2(3m - 2) = 7m - 4. From the hub, every grid vertex is a
    neighbour, at m - 1, and every other edge has a grid end: R = m - 1
    and the hub gives m² + 2m - 2. At m = 7 these are 45 and 61.
    """
    g = gen_gm(7)
    assert g.reach_ceiling == graphs.ReachCeiling(bound=45, root="y_1_1", arc=7, radius=19)
    res = spectrum(g)
    assert (res.t_min, res.t_max) == (49, 343)
    reason = "exceeds reach ceiling 45: every color lies within 19 of the 7-color arc of y_1_1"
    for t, out in res.outcomes.items():
        assert (out.status, out.nodes) == (NOT_COLORABLE, 0), t
        assert out.reason == f"t={t} {reason}, so t <= 45", t


def test_the_reach_ceiling_is_computed_once_per_spectrum(tmp_path, monkeypatch):
    """`spectrum` computes the ceiling once, before it decides any t, and
    the pickled graph it sends to each worker carries it. Each computation
    appends the computing process's id to a file, so one in a worker (which
    inherits the counting function when it is forked) would show too."""
    calls = tmp_path / "calls"
    compute = graphs._reach_ceiling

    def counted(g):
        with calls.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return compute(g)

    monkeypatch.setattr(graphs, "_reach_ceiling", counted)
    for jobs in (1, 2):
        calls.write_text("")
        g = gen_gm(2)
        spectrum(g, jobs=jobs)
        assert calls.read_text().split() == [str(os.getpid())], jobs
        assert pickle.loads(pickle.dumps(g)).reach_ceiling == g.reach_ceiling
        assert calls.read_text().split() == [str(os.getpid())], jobs


def _spider():
    """Three legs of two edges at c: |E| = 6, but W(T) = 5."""
    legs = [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
    return build_graph(["c", "a1", "a2", "b1", "b2", "d1", "d2"], legs)


def test_a_tree_is_decided_by_its_width_with_no_search():
    """On a tree, every t in [Δ, W(T)] is the lift folded mod t, and every
    t above W(T) is refuted by the width, both with 0 nodes."""
    g = _spider()
    assert g.tree_width == graphs.TreeWidth(
        width=5, path=("a2", "a1", "c", "b1", "b2"), lift=(2, 1, 4, 5, 3, 4)
    )
    want = {3: (2, 1, 1, 2, 3, 1), 4: (2, 1, 4, 1, 3, 4), 5: (2, 1, 4, 5, 3, 4)}
    for t, colors in want.items():
        out = decide(g, t)
        assert (out.status, out.nodes, out.coloring) == (COLORABLE, 0, Coloring(t, colors)), t
        assert out.reason == f"interval coloring of tree width 5 folded mod {t}"
    out = decide(g, 6)
    assert (out.status, out.nodes, out.coloring) == (NOT_COLORABLE, 0, None)
    assert out.reason == (
        "t=6 exceeds tree width 5, the most edges at one path (a2 to b2):"
        " a coloring lifted along the tree spans at most 5 colors"
    )
    assert _searched(g, 6).status == NOT_COLORABLE
    # a fold is re-verified like every certificate
    g.__dict__["tree_width"] = dataclasses.replace(g.tree_width, lift=(1, 1, 4, 5, 3, 4))
    with pytest.raises(InternalError, match="certificate failed re-verification"):
        decide(g, 5)


def test_the_tree_rule_agrees_with_the_oracle():
    for n in range(3, 8):
        for seed in range(12):
            g = gen_random_tree(n, seed)
            for t in range(1, len(g.edges) + 1):
                out = decide(g, t)
                assert out.status == brute_force_decide(g, t).status, (g.edges, t)
                assert out.nodes == 0


def test_the_tree_rule_agrees_with_the_search():
    """Every t in [Δ, |E|] of gen_random_tree(n, seed) for n = 3..13 and
    seeds 0-29, 1,627 decisions, the search settles on its own within
    100,000 nodes, and each answer is the tree rule's."""
    settled = 0
    for n in range(3, 14):
        for seed in range(30):
            g = gen_random_tree(n, seed)
            for t in range(max(len(g.adjacency[v]) for v in g.vertices), len(g.edges) + 1):
                out = decide(g, t)
                assert out.nodes == 0
                assert out.status == (COLORABLE if t <= g.tree_width.width else NOT_COLORABLE)
                searched = _searched(g, t, SolverConfig(node_budget=100_000))
                if searched.status != BUDGET_EXCEEDED:
                    settled += 1
                    assert searched.status == out.status, (g.edges, t)
    assert settled == 1627


def test_every_fold_of_a_tree_passes_the_checker_and_the_prefix_replay():
    for n in range(2, 20):
        for seed in range(5):
            g = gen_random_tree(n, seed)
            delta = max(len(g.adjacency[v]) for v in g.vertices)
            for t in range(delta, g.tree_width.width + 1):
                cert = decide(g, t).coloring
                assert check_cyclically_interval(g, cert).ok, (g.edges, t)
                assert certificate_prefix_survives(g, cert), (g.edges, t)


def test_the_tree_rule_agrees_with_the_frozen_references():
    """Every tree answer that bench/references.json has decided (by HiGHS
    on the CNF encoding) is the tree rule's."""
    path = Path(__file__).resolve().parents[1] / "bench" / "references.json"
    decided = 0
    for key, ref in json.loads(path.read_text(encoding="utf-8"))["graphs"].items():
        if key.startswith("tree-"):
            _, n, seed = key.split("-")
            g = gen_random_tree(int(n), int(seed))
            assert len(g.edges) == ref["edges"], key
            for t, want in ref["t"].items():
                if want["status"] in (COLORABLE, NOT_COLORABLE):
                    assert decide(g, int(t)).status == want["status"], (key, t)
                    decided += 1
    assert decided == 196


def test_the_tree_width_is_computed_once_per_spectrum(tmp_path, monkeypatch):
    """On a tree, `spectrum` computes the width once, before it decides any
    t, and never the reach ceiling; the pickled graph sent to each worker
    carries the width. Each computation appends its name and the computing
    process's id to a file, so one in a worker would show too."""
    calls = tmp_path / "calls"

    def counted(name):
        compute = getattr(graphs, name)

        def count(g):
            with calls.open("a") as f:
                f.write(f"{name}:{os.getpid()}\n")
            return compute(g)

        monkeypatch.setattr(graphs, name, count)

    counted("_tree_width")
    counted("_reach_ceiling")
    for jobs in (1, 2):
        calls.write_text("")
        g = gen_random_tree(12, 3)
        res = spectrum(g, jobs=jobs)
        assert all(o.nodes == 0 for o in res.outcomes.values())
        assert calls.read_text().split() == [f"_tree_width:{os.getpid()}"], jobs
        assert pickle.loads(pickle.dumps(g)).tree_width == g.tree_width
        assert calls.read_text().split() == [f"_tree_width:{os.getpid()}"], jobs


def _tree_plus_one_edge():
    """A random tree with one edge more, between the first two vertices
    that are not adjacent: a connected graph with one cycle."""
    tree = gen_random_tree(12, 3)
    edges = {frozenset(e) for e in tree.edges}
    u, w = next(p for p in itertools.combinations(tree.vertices, 2) if frozenset(p) not in edges)
    return build_graph(list(tree.vertices), [*tree.edges, (u, w)])


@pytest.mark.parametrize(
    "make, builds",
    [
        (lambda: gen_gm(2), 1),
        (lambda: gen_gm(3), 1),
        (lambda: gen_cycle(5), 1),  # chromatic_index searches it, and t=4 too
        (lambda: gen_complete_bipartite(2, 3), 1),
        (_tree_plus_one_edge, 1),
        (lambda: gen_random_tree(12, 3), 0),  # no t of a tree searches
        (lambda: gen_gm(7), 0),  # every t of its window is above ρ = 45
    ],
    ids=["gm-2", "gm-3", "C5", "K(2,3)", "tree+edge", "tree", "gm-7"],
)
def test_spectrum_builds_one_plan_per_graph(tmp_path, monkeypatch, make, builds):
    """`spectrum` builds the search plan at most once, and only if some t
    searches; `chromatic_index`'s search, every t and every worker read
    that one plan. Each build appends the building process's id to a file,
    so one in a worker (which inherits the counting function when it is
    forked) would show too. Every outcome equals `decide` called alone on
    a fresh copy of the graph."""
    calls = tmp_path / "calls"
    build = solver._plan

    def counted(g):
        with calls.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return build(g)

    monkeypatch.setattr(solver, "_plan", counted)
    results = []
    for jobs in (1, 2):
        calls.write_text("")
        results.append(spectrum(make(), jobs=jobs))
        assert calls.read_text().split() == [str(os.getpid())] * builds, jobs
    alone = {t: decide(make(), t) for t in results[0].outcomes}
    for res in results:
        # outcomes compare by status, coloring, reason and nodes
        assert res.outcomes == alone


def test_gm3_top_of_the_window_is_refused_exhaustively():
    """With rotation and twin ordering, the search refutes the last two t of
    gm(3) in a few hundred thousand nodes. `decide` refutes both by the
    reach ceiling first, so the search is run on its own."""
    g = gen_gm(3)
    for t, nodes in ((26, 302_899), (27, 125_513)):
        out = _searched(g, t)
        assert (out.status, out.reason, out.nodes) == (NOT_COLORABLE, "exhaustive search", nodes)


def _twin_chains(g, order, gt):
    """The ordered twin classes that gt links, each as (x, [u...]): the
    edges (x, u) in search order, which must take increasing colors."""
    n = len(order)
    succ = {gt[p]: p for p in range(n) if gt[p] < n}
    chains = []
    for head in succ:
        if gt[head] < n:
            continue
        chain = [head]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        common = set.intersection(*(set(g.edges[order[p]]) for p in chain))
        assert len(common) == 1, ("linked edges with no one common vertex", chain)
        (x,) = common
        chains.append((x, [next(w for w in g.edges[order[p]] if w != x) for p in chain]))
    return chains


def _rule_image(g, cert, order, allowed, chains):
    """The image of a valid coloring that the rules keep: rotated so that
    the root's palette is [1, Δ] (Δ < t) or the position that rule (c)
    gives color 1 has it (Δ = t), then each ordered class permuted so that
    its edges at x carry increasing colors in search order."""
    t, colors = cert.t, list(cert.colors)
    delta = max(len(g.adjacency[v]) for v in g.vertices)
    h = next(v for v in g.vertices if len(g.adjacency[v]) == delta)
    if delta < t:
        palette = {colors[e] for _, e in g.adjacency[h]}
        first = next(c for c in palette if (c - 2) % t + 1 not in palette)
    else:
        first = colors[order[allowed.index(1)]]
    colors = [(c - first) % t + 1 for c in colors]
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    for x, us in chains:
        ranked = sorted(us, key=lambda u: colors[index[frozenset((x, u))]])
        move = dict(zip(ranked, us))  # the i-th smallest color moves to the i-th edge
        image = [0] * len(colors)
        for i, (a, b) in enumerate(g.edges):
            image[index[frozenset((move.get(a, a), move.get(b, b)))]] = colors[i]
        colors = image
    return Coloring(t, tuple(colors))


def test_every_valid_coloring_has_an_image_that_the_rules_keep():
    """The soundness of symmetry breaking: every valid coloring, rotated and
    then sorted within each ordered twin class, is a valid coloring that
    satisfies every rule, so the search cuts no answer away."""
    # {a1, a2}'s first common neighbour b2 lies in the class {b1, b2}, whose
    # first common neighbour a1 lies in {a1, a2}: sorting either class moves
    # the other's edges, so neither is ordered, and only h's leaves are.
    crossed = build_graph(
        ["h", "b2", "a1", "a2", "b1", "z", "l1", "l2"],
        [("h", "z"), ("h", "l1"), ("h", "l2"), ("z", "a1"), ("z", "a2"),
         ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")],
    )  # fmt: skip
    # The root h has a twin, h2; their class is left alone, so the root's
    # palette stays where rule (a) rotated it, and {b, c} is ordered at h.
    twin_root = build_graph(
        ["h", "h2", "a", "b", "c", "l"],
        [("h", "a"), ("h", "b"), ("h", "c"), ("h2", "a"), ("h2", "b"), ("h2", "c"), ("a", "l")],
    )
    # Each graph at every t from its max degree on at which it has a valid
    # coloring and its colorings are quick to list.
    cases = [
        (gen_star(3), (3,)), (gen_path(3), (2, 3)), (gen_cycle(4), (2, 3, 4)),
        (gen_complete_bipartite(2, 3), (3, 4, 5)), (gen_gm(2), (4, 5)), (crossed, (3, 4)),
        (twin_root, (3, 4, 5)),
        *((gen_random_tree(n, seed), range(1, n)) for n in (4, 5, 6) for seed in range(6)),
    ]  # fmt: skip
    ordered = seen = 0
    for g, ts in cases:
        plan = solver._plan(g)
        order, gt = plan.order, plan.gt
        for t in (t for t in ts if t >= max(plan.degree)):
            allowed = solver._symmetry_rules(plan, t)
            chains = _twin_chains(g, order, gt)
            for x, us in chains:
                assert len({frozenset(w for w, _ in g.adjacency[u]) for u in us}) == 1
                assert all(x in {w for w, _ in g.adjacency[u]} for u in us)
            if g is crossed:
                assert [(x, set(us)) for x, us in chains] == [("h", {"l1", "l2"})]
            if g is twin_root:
                assert [(x, set(us)) for x, us in chains] == [("h", {"b", "c"})]
            ordered += bool(chains)
            for cert in _all_valid_colorings(g, t):
                image = _rule_image(g, cert, order, allowed, chains)
                assert check_cyclically_interval(g, image).ok
                color = [image.colors[e] for e in order]
                for p, c in enumerate(color):
                    assert allowed[p] >> (c - 1) & 1, (g.edges, t, cert, p)
                    assert gt[p] == len(order) or c > color[gt[p]], (g.edges, t, cert, p)
                seen += 1
    assert ordered and seen > 1000


def test_bulk_node_counts_stop_at_the_budget_boundary():
    """A position's nodes are counted at once; the node budget still stops
    the search at exactly budget + 1, and a budget the search stays within
    changes nothing. The search refutes gm(2) at t=7 in 47 nodes (`decide`
    refutes it by the reach ceiling first)."""
    for budget in (1, 2, 3, 46):
        out = _searched(gen_gm(2), 7, SolverConfig(node_budget=budget))
        assert (out.status, out.nodes) == (BUDGET_EXCEEDED, budget + 1), budget
    for budget in (47, 1024, 1025):
        out = _searched(gen_gm(2), 7, SolverConfig(node_budget=budget))
        assert (out.status, out.nodes) == (NOT_COLORABLE, 47), budget


def test_gm4_low_end_is_colorable_within_a_small_budget():
    """The connected depth-first order colors gm(4) at t=16 and t=17 within
    20,000 nodes."""
    g = gen_gm(4)
    for t in (16, 17):
        out = decide(g, t, SolverConfig(node_budget=20_000))
        assert out.status == COLORABLE, t
        assert check_cyclically_interval(g, out.coloring).ok, t


def test_edgeless_graphs_have_nothing_to_search():
    """An edgeless graph has an empty edge order, so the replay has no
    prefix to cut, and no color can be used, so every t is refused."""
    for g in (build_graph([], []), build_graph(["a"], [])):
        assert solver._plan(g).order == ()
        assert certificate_prefix_survives(g, Coloring(1, ()))
        out = decide(g, 1)
        assert out.status == NOT_COLORABLE and "edge count" in out.reason


def test_window_kernel_matches_the_span_definition():
    """window(M, d) is {c : cyclic_span(M | {c}) <= d}, the span computed
    directly: for every nonempty palette M with t <= 10 and every d in
    1..t+1, and for a seeded sample of palettes at t = 11..27, the sizes
    the benchmark's graphs reach."""

    def check(window, t, mask, ds):
        members = [c for c in range(1, t + 1) if mask >> (c - 1) & 1]
        spans = [cyclic_span(ColorSet.of(t, members + [c])) for c in range(1, t + 1)]
        for d in ds:
            want = sum(1 << (c - 1) for c in range(1, t + 1) if spans[c - 1] <= d)
            assert window(mask, d) == want, (t, members, d)

    for t in range(1, 11):
        window = _window_kernel(t)
        for mask in range(1, 1 << t):
            check(window, t, mask, range(1, t + 2))
    rng = random.Random(20261019)
    for t in range(11, 28):
        window = _window_kernel(t)
        for _ in range(100):
            # a short arc with a few holes, or any palette at all
            if rng.random() < 0.5:
                start, length = rng.randrange(t), rng.randint(1, t)
                arc = [(start + i) % t for i in range(length)]
                mask = sum(1 << c for c in rng.sample(arc, rng.randint(1, length)))
            else:
                mask = rng.randrange(1, 1 << t)
            check(window, t, mask, range(1, t + 2))


def test_deep_graphs_do_not_exhaust_the_call_stack():
    out = _searched(gen_path(1200), 2)
    assert (out.status, out.nodes) == (COLORABLE, 1200)
    # a deep graph that is not a tree, which `decide` still searches
    out = decide(gen_cycle(1200), 2)
    assert (out.status, out.nodes) == (COLORABLE, 1200)
