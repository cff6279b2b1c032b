"""Unit tests for the graph family generators."""

from __future__ import annotations

import re

import pytest

from cycolor import families
from cycolor.errors import BudgetError, UsageError
from cycolor.families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_gm,
    gen_path,
    gen_random_tree,
    gen_star,
)
from cycolor.graphs import Bipartition, bipartition


def test_gm2_exact_shape():
    g = gen_gm(2)
    assert g.vertices == ("x0", "x_1_2", "y_1_1", "y_1_2", "y_2_1", "y_2_2")
    assert g.edges == (
        ("x0", "y_1_1"),
        ("x0", "y_1_2"),
        ("x0", "y_2_1"),
        ("x0", "y_2_2"),
        ("x_1_2", "y_1_1"),
        ("x_1_2", "y_2_1"),
        ("x_1_2", "y_1_2"),
        ("x_1_2", "y_2_2"),
    )


def test_gm3_edge_order_prefix():
    g = gen_gm(3)
    hub_block = [("x0", f"y_{p}_{q}") for p in (1, 2, 3) for q in (1, 2, 3)]
    assert list(g.edges[:9]) == hub_block
    # first pair block: (i, j) = (1, 2), q ascending, row i before row j
    assert list(g.edges[9:15]) == [
        ("x_1_2", "y_1_1"),
        ("x_1_2", "y_2_1"),
        ("x_1_2", "y_1_2"),
        ("x_1_2", "y_2_2"),
        ("x_1_2", "y_1_3"),
        ("x_1_2", "y_2_3"),
    ]
    # the remaining blocks cover pairs (1,3) then (2,3)
    assert g.edges[15][0] == "x_1_3"
    assert g.edges[21][0] == "x_2_3"


def test_gm_counts_and_degrees():
    for m in range(2, 9):
        g = gen_gm(m)
        assert len(g.vertices) == (3 * m * m - m) // 2 + 1
        assert len(g.edges) == m**3
        degs = {v: len(g.adjacency[v]) for v in g.vertices}
        assert degs["x0"] == m * m
        expected = sorted([m * m] + [2 * m] * (m * (m - 1) // 2) + [m] * (m * m))
        assert sorted(degs.values()) == expected
        assert g.max_degree == m * m
        assert g.connected
        assert sum(degs.values()) == 2 * len(g.edges)


def test_gm_is_bipartite_with_grid_on_one_side():
    for m in (2, 3, 4):
        g = gen_gm(m)
        parts = bipartition(g)
        assert isinstance(parts, Bipartition)
        grid = frozenset(v for v in g.vertices if v.startswith("y"))
        assert parts.left == frozenset(g.vertices) - grid
        assert parts.right == grid


def test_every_grid_vertex_sees_hub_and_its_rows_pairs():
    for m in range(2, 7):
        g = gen_gm(m)
        for p in range(1, m + 1):
            for q in range(1, m + 1):
                nbrs = {w for w, _ in g.adjacency[f"y_{p}_{q}"]}
                assert "x0" in nbrs
                pairs = {w for w in nbrs if w != "x0"}
                expected = {
                    f"x_{min(i, p)}_{max(i, p)}" for i in range(1, m + 1) if i != p
                }
                assert pairs == expected
                assert len(pairs) == m - 1


def test_any_two_grid_vertices_share_a_pair_neighbor():
    for m in range(2, 9):
        g = gen_gm(m)
        grid = [v for v in g.vertices if v.startswith("y")]
        nbrs = {v: {w for w, _ in g.adjacency[v] if w != "x0"} for v in grid}
        for a_idx, a in enumerate(grid):
            for b in grid[a_idx + 1 :]:
                assert nbrs[a] & nbrs[b], f"no common pair vertex for {a}, {b} at m={m}"


def test_gm_rejects_small_m():
    with pytest.raises(UsageError, match='m must be an integer >= 2, got 1'):
        gen_gm(1)
    with pytest.raises(UsageError, match='m must be an integer >= 2, got 0'):
        gen_gm(0)


def test_path_cycle_star_shapes():
    p = gen_path(4)
    assert len(p.edges) == 4 and len(p.vertices) == 5
    c = gen_cycle(5)
    assert len(c.edges) == 5 and c.max_degree == 2
    s = gen_star(4)
    assert s.max_degree == 4 and len(s.edges) == 4
    k = gen_complete_bipartite(2, 3)
    assert len(k.edges) == 6
    assert isinstance(bipartition(k), Bipartition)


def test_generator_size_validation():
    with pytest.raises(UsageError, match='path needs >= 1 edge'):
        gen_path(0)
    with pytest.raises(UsageError, match='cycle needs >= 3 vertices'):
        gen_cycle(2)
    with pytest.raises(UsageError, match='star needs >= 1 leaf'):
        gen_star(0)
    with pytest.raises(UsageError, match='both sides need >= 1 vertex'):
        gen_complete_bipartite(0, 3)
    with pytest.raises(UsageError, match='tree needs >= 1 vertex'):
        gen_random_tree(0, seed=1)


_NOT_A_SIZE = [
    (gen_gm, (True,), r"m must be an integer >= 2, got True"),
    (gen_gm, (2.0,), r"m must be an integer >= 2, got 2\.0"),
    (gen_path, (True,), r"path needs >= 1 edge, got True"),
    (gen_path, (2.5,), r"path needs >= 1 edge, got 2\.5"),
    (gen_cycle, (3.0,), r"cycle needs >= 3 vertices, got 3\.0"),
    (gen_cycle, ("4",), r"cycle needs >= 3 vertices, got '4'"),
    (gen_star, (True,), r"star needs >= 1 leaf, got True"),
    (gen_complete_bipartite, (True, 2), r"both sides need >= 1 vertex, got True, 2"),
    (gen_complete_bipartite, (2, 1.5), r"both sides need >= 1 vertex, got 2, 1\.5"),
    (gen_random_tree, (True, 1), r"tree needs >= 1 vertex, got True"),
    (gen_random_tree, (None, 1), r"tree needs >= 1 vertex, got None"),
]


@pytest.mark.parametrize(
    "gen, args, message",
    [pytest.param(*case, id="-".join([case[0].__name__, *map(str, case[1])])) for case in _NOT_A_SIZE],
)
def test_generators_refuse_a_size_that_is_not_an_integer(gen, args, message):
    # a bool is an int to Python, so gen_path(True) built a one-edge path
    with pytest.raises(UsageError, match=f"^{message}$"):
        gen(*args)


def test_generators_refuse_graphs_over_the_edge_cap(monkeypatch):
    # the edge count is judged before any list is built, so these sizes
    # allocate nothing
    refused = [
        (lambda: gen_gm(5000), r"gm\(5000\) would have 125000000000 edges"),
        (lambda: gen_path(10**12), r"path\(1000000000000\) would have 1000000000000 edges"),
        (lambda: gen_cycle(10**12), r"cycle\(1000000000000\) would have"),
        (lambda: gen_star(10**12), r"star\(1000000000000\) would have"),
        (lambda: gen_complete_bipartite(10**6, 10**6), r"K\(1000000, 1000000\) would have"),
        (lambda: gen_random_tree(10**12, seed=1), r"tree\(1000000000000\) would have"),
    ]
    for build, message in refused:
        with pytest.raises(BudgetError, match=message):
            build()
    # the cap itself is allowed, one edge more is not
    monkeypatch.setattr(families, "EDGE_CAP", 8)
    for fits, past in (
        (lambda: gen_gm(2), lambda: gen_gm(3)),
        (lambda: gen_path(8), lambda: gen_path(9)),
        (lambda: gen_cycle(8), lambda: gen_cycle(9)),
        (lambda: gen_star(8), lambda: gen_star(9)),
        (lambda: gen_complete_bipartite(2, 4), lambda: gen_complete_bipartite(3, 3)),
        (lambda: gen_random_tree(9, seed=1), lambda: gen_random_tree(10, seed=1)),
    ):
        assert len(fits().edges) == 8
        with pytest.raises(BudgetError, match=r" edges, past the cap 8$"):
            past()


def test_random_tree_is_deterministic_per_seed():
    a = gen_random_tree(7, seed=1)
    b = gen_random_tree(7, seed=1)
    assert a == b
    c = gen_random_tree(7, seed=2)
    assert c.edges != a.edges
    # the Pruefer sequence of n=2 is empty: every seed decodes the one edge
    for seed in range(3):
        assert gen_random_tree(2, seed).edges == (("v1", "v2"),)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("seed", [None, True, 1.5, "1"], ids=["None", "True", "float", "str"])
def test_random_tree_refuses_a_seed_that_is_not_an_integer(n, seed):
    # None would seed from the clock, a new tree on each call, and True
    # would give seed 1's tree; one vertex needs no seed but is refused alike
    with pytest.raises(UsageError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        gen_random_tree(n, seed)


def test_random_tree_is_a_tree():
    for n in (1, 2, 3, 8, 13):
        for seed in (0, 1, 99):
            g = gen_random_tree(n, seed)
            assert len(g.vertices) == n
            assert len(g.edges) == n - 1 if n > 1 else len(g.edges) == 0
            assert g.connected


def test_random_tree_reaches_every_shape_on_small_n():
    # n=4 has 16 labeled trees; a modest seed sweep should see many of them
    seen = {gen_random_tree(4, seed).edges for seed in range(200)}
    assert len(seen) >= 12
