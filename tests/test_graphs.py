"""Unit tests for graph construction, bipartition, and the chromatic index."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pickle
import random
import re

import pytest

from cycolor import graphs
from cycolor.cnf import export_cnf
from cycolor.coloring import Coloring, check_proper
from cycolor.errors import BudgetError, InputError
from cycolor.families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_gm,
    gen_path,
    gen_random_tree,
    gen_star,
)
from cycolor.graphs import (
    Bipartition,
    NotBipartite,
    bipartition,
    build_graph,
    from_json,
    to_dot,
    to_json,
)
from cycolor.solver import COLORABLE, brute_force_decide, chromatic_index, decide


def _k4():
    vs = ["a", "b", "c", "d"]
    return build_graph(vs, [(u, v) for u, v in itertools.combinations(vs, 2)])


def test_build_preserves_order_and_indexes_adjacency():
    vertices, edges = ["x", "y", "z"], [("x", "y"), ("y", "z")]
    # each input is read once, so a generator serves as well as a list
    for vs, es in ((vertices, edges), (iter(vertices), edges), (vertices, iter(edges))):
        g = build_graph(vs, es)
        assert g.vertices == ("x", "y", "z")
        assert g.edges == (("x", "y"), ("y", "z"))
        assert g.adjacency["y"] == (("x", 0), ("z", 1))


def test_twin_classes_group_equal_open_neighbourhoods():
    # gm(3): each grid row shares the hub and the pairs that name its row;
    # distinct pairs see distinct rows, and the hub is alone
    g = gen_gm(3)
    assert [[g.vertices[i] for i in c] for c in g.twin_classes] == [
        [f"y_{p}_{q}" for q in (1, 2, 3)] for p in (1, 2, 3)
    ]
    # a star's leaves, both sides of K_{2,3}, the opposite corners of C4
    assert gen_star(3).twin_classes == ((1, 2, 3),)
    assert gen_complete_bipartite(2, 3).twin_classes == ((0, 1), (2, 3, 4))
    assert gen_cycle(4).twin_classes == ((0, 2), (1, 3))
    # no twins on a longer cycle, and isolated vertices are no class
    assert gen_cycle(5).twin_classes == ()
    assert build_graph(["a", "b", "c", "d"], [("a", "b")]).twin_classes == ()
    assert g.twin_classes is g.twin_classes  # computed once


def test_build_rejects_bad_input():
    with pytest.raises(InputError, match="self-loop at 'a'"):
        build_graph(["a"], [("a", "a")])
    with pytest.raises(InputError, match='^edge .* listed twice'):
        build_graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InputError, match="^vertex 'a' listed twice"):
        build_graph(["a", "a"], [])
    for edge in (("a", "c"), ("c", "a")):
        with pytest.raises(InputError, match="edge endpoint 'c' is not a vertex"):
            build_graph(["a", "b"], [edge])
    # labels are strings and an edge is a pair of them, as from_json reads them
    for edge in (("a", "b", "c"), ("a",), "ab", ("a", None)):
        with pytest.raises(InputError, match=re.escape(f"malformed edge entry: {edge!r}")):
            build_graph(["a", "b"], [edge])
    for vertices, edges in (([["a"], "b"], []), (["a", 1], [("a", 1)])):
        with pytest.raises(InputError, match="'vertices' must be a list of strings"):
            build_graph(vertices, edges)


def test_a_graph_is_its_vertices_and_edges():
    assert [f.name for f in dataclasses.fields(graphs.Graph)] == ["vertices", "edges"]
    g = gen_gm(2)
    decide(g, 4)  # computes and keeps the derived properties and the search plan
    for copy in (from_json(to_json(g)), pickle.loads(pickle.dumps(g))):
        assert copy == g and hash(copy) == hash(g)
        assert copy.adjacency == g.adjacency
    assert {g: "gm(2)"}[from_json(to_json(g))] == "gm(2)"
    assert build_graph(g.vertices, g.edges[::-1]) != g  # edge order is part of a graph


def test_connectivity():
    assert gen_path(3).connected
    two_parts = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not two_parts.connected
    with pytest.raises(InputError, match='bipartition requires a connected graph'):
        bipartition(two_parts)


def test_bipartition_of_even_cycle():
    parts = bipartition(gen_cycle(4))
    assert isinstance(parts, Bipartition)
    assert parts.left == frozenset(["v1", "v3"])
    assert parts.right == frozenset(["v2", "v4"])


def test_bipartition_certifies_every_edge_crosses():
    for g in (gen_cycle(6), gen_complete_bipartite(2, 3), gen_gm(3), build_graph([], [])):
        parts = bipartition(g)
        assert isinstance(parts, Bipartition)
        assert parts.left | parts.right == set(g.vertices)
        for u, v in g.edges:
            assert (u in parts.left) != (v in parts.left)


def test_odd_cycle_witness_is_an_odd_cycle_in_g():
    for n in (3, 5, 7, 9):
        g = gen_cycle(n)
        res = bipartition(g)
        assert isinstance(res, NotBipartite)
        cyc = res.odd_cycle
        assert len(cyc) % 2 == 1
        assert len(set(cyc)) == len(cyc)
        edge_set = {frozenset(e) for e in g.edges}
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert frozenset((a, b)) in edge_set


def test_nonbipartite_with_chords():
    g = build_graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c")],
    )
    res = bipartition(g)
    assert isinstance(res, NotBipartite)
    assert len(res.odd_cycle) % 2 == 1


def test_gm_bipartition_separates_hub_side_from_grid():
    g = gen_gm(3)
    parts = bipartition(g)
    assert isinstance(parts, Bipartition)
    hub_side = parts.left if "x0" in parts.left else parts.right
    assert hub_side == frozenset(v for v in g.vertices if v.startswith("x"))


def _proper_colorable_brute(g, t) -> bool:
    """Local properness-only oracle, independent of the solver."""
    for combo in itertools.product(range(1, t + 1), repeat=len(g.edges)):
        ok = True
        for v in g.vertices:
            seen = [combo[i] for _, i in g.adjacency[v]]
            if len(seen) != len(set(seen)):
                ok = False
                break
        if ok:
            return True
    return False


def test_chromatic_index_values():
    assert chromatic_index(gen_gm(2)) == 4
    assert chromatic_index(gen_cycle(5)) == 3
    assert chromatic_index(gen_cycle(4)) == 2
    assert chromatic_index(gen_star(4)) == 4
    assert chromatic_index(gen_path(3)) == 2
    # K4: not bipartite, delta 3; the local oracle confirms 3 colors suffice
    assert not _proper_colorable_brute(_k4(), 2)
    assert _proper_colorable_brute(_k4(), 3)
    assert chromatic_index(_k4()) == 3


def test_chromatic_index_is_delta_or_delta_plus_one():
    # triangle: delta 2 but needs 3 (class two)
    assert chromatic_index(gen_cycle(3)) == 3
    for g in (gen_cycle(3), gen_cycle(7), _k4()):
        delta = g.max_degree
        assert chromatic_index(g) in (delta, delta + 1)


def _graph(edges):
    vertices = sorted({v for e in edges for v in e})
    return build_graph(vertices, edges)


def test_chromatic_index_matches_a_brute_force_over_all_delta_colorings():
    """On non-bipartite graphs the search path answers; the reference tries
    all Δ^|E| assignments (at most 4^6) through the checker, and Vizing
    puts χ′ at Δ + 1 when none is proper."""
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    class_one = [
        _k4(),
        _graph(triangle + [("b", "d"), ("c", "d")]),  # the diamond
        _graph(triangle + [("c", "d"), ("d", "e"), ("c", "e")]),  # the bowtie
        _graph(triangle + [("c", "d")]),  # a triangle with a pendant edge
    ]
    # K4 with the edge ab subdivided by e: 7 edges but only 2 disjoint ones
    subdivided = _graph([("a", "e"), ("e", "b"), *_k4().edges[1:]])
    class_two = [gen_cycle(3), gen_cycle(5), gen_cycle(7), subdivided]
    for want_extra, graphs in ((0, class_one), (1, class_two)):
        for g in graphs:
            assert isinstance(bipartition(g), NotBipartite)
            delta = g.max_degree
            assert delta ** len(g.edges) <= 4**6
            proper = any(
                check_proper(g, Coloring(delta, colors)).ok
                for colors in itertools.product(range(1, delta + 1), repeat=len(g.edges))
            )
            assert chromatic_index(g) == (delta if proper else delta + 1) == delta + want_extra


def test_chromatic_index_preconditions():
    with pytest.raises(InputError, match='needs at least one edge'):
        chromatic_index(build_graph(["a"], []))
    with pytest.raises(InputError, match='chromatic index requires a connected graph'):
        chromatic_index(build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    with pytest.raises(BudgetError, match='limited to 64 edges; graph has 65'):
        chromatic_index(gen_cycle(65))


def test_json_round_trip_preserves_edge_order():
    g = gen_gm(2)
    again = from_json(to_json(g))
    assert again == g
    assert again.edges == g.edges


def test_json_rejects_malformed_payloads():
    with pytest.raises(InputError, match='not valid JSON'):
        from_json("not json at all")
    with pytest.raises(InputError, match="needs 'vertices' and 'edges' keys"):
        from_json('{"vertices": ["a"]}')
    with pytest.raises(InputError, match='malformed edge entry'):
        from_json('{"vertices": ["a", "b"], "edges": [["a"]]}')
    # a string is a sequence of labels or pairs, but not a list
    for payload, message in (
        ('{"vertices": [1], "edges": []}', "'vertices' must be a list of strings"),
        ('{"vertices": "ab", "edges": []}', "'vertices' must be a list of strings"),
        ('{"vertices": ["a", "b"], "edges": "ab"}', "'edges' must be a list of two-element lists"),
    ):
        with pytest.raises(InputError, match=message):
            from_json(payload)


def test_dot_output_with_and_without_colors():
    g = gen_path(2)
    plain = to_dot(g)
    assert '"v1" -- "v2";' in plain
    labeled = to_dot(g, Coloring(2, (1, 2)))
    assert '"v1" -- "v2" [label="1"];' in labeled
    assert '"v2" -- "v3" [label="2"];' in labeled
    with pytest.raises(InputError, match="coloring has 1 entries but graph has 2 edges"):
        to_dot(g, Coloring(2, (1,)))


_DOT_ID = r'"(?:[^"\\]|\\.)*"'  # a DOT quoted string: \" and \\ are escapes


def test_vertex_labels_cannot_break_dot_or_dimacs_lines():
    names = ["a\np cnf 1 1", 'b"c', "d\\e", "f\rg"]
    g = build_graph(names, list(zip(names, names[1:])))

    lines = export_cnf(g, 2).splitlines()
    assert len([ln for ln in lines if ln.startswith("p cnf")]) == 1
    for ln in lines:
        assert ln.startswith(("c ", "p cnf ")) or re.fullmatch(r"(-?[1-9]\d* )*0", ln), ln
    for v in names:  # a comment line names the vertex as its JSON string
        assert any(f"vertex {json.dumps(v)[1:-1]} arc-start" in ln for ln in lines)

    lines = to_dot(g).splitlines()
    assert len(lines) == 2 + len(names) + len(g.edges)
    node_lines = lines[1 : 1 + len(names)]
    for v, ln in zip(names, node_lines):
        assert re.fullmatch(rf"  ({_DOT_ID});", ln), ln
        assert json.loads(ln.strip()[:-1]) == v
    for ln in lines[1 + len(names) : -1]:
        assert re.fullmatch(rf"  {_DOT_ID} -- {_DOT_ID};", ln), ln


def _random_connected(rng, n, extra):
    """A random spanning tree on n vertices plus `extra` other edges, in a
    shuffled edge order."""
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    tree = {frozenset(e) for e in edges}
    others = [e for e in itertools.combinations(names, 2) if frozenset(e) not in tree]
    edges += rng.sample(others, min(extra, len(others)))
    rng.shuffle(edges)
    return build_graph(names, edges)


def _distances_by_relaxation(g, h):
    """The distances from h by a plain relaxation to a fixed point:
    D(h) = 0 and D(w) <= D(v) + deg(w) - 1 for each neighbour w of v."""
    deg = {v: len(g.adjacency[v]) for v in g.vertices}
    dist = {v: math.inf for v in g.vertices}
    dist[h] = 0
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            for u, w in ((a, b), (b, a)):
                if dist[u] + deg[w] - 1 < dist[w]:
                    dist[w] = dist[u] + deg[w] - 1
                    changed = True
    return dist


def _ceiling_by_relaxation(g, roots):
    """min over the roots h of deg(h) + 2 R_h, with R_h from
    `_distances_by_relaxation` and an edge as far as its nearer end."""
    best = math.inf
    for h in roots:
        dist = _distances_by_relaxation(g, h)
        radius = max(min(dist[a], dist[b]) for a, b in g.edges)
        best = min(best, len(g.adjacency[h]) + 2 * radius)
    return best


# The benchmark's trees: gen_random_tree(n, seed) for each group of
# bench/inputs.py's TREE_GROUPS.
_BENCH_TREES = [(20, s) for s in (1, 5, 6, 9)] + [(24, s) for s in (4, 15, 32)]
_BENCH_TREES += [(28, s) for s in (1, 7, 11, 27)]


def test_neighbours_is_the_one_integer_form_of_the_graph():
    """`neighbours` lists, by vertex and edge index, the pairs that the edge
    list gives each vertex, in the order of `adjacency` and `incidence`, and
    a pickled graph carries it. The sweep from every root finds the
    distances of a plain relaxation, a parent on a shortest path to each
    vertex, and R_h."""
    rng = random.Random(2026)
    cases = [_random_connected(rng, n, rng.randrange(5)) for n in range(2, 14) for _ in range(8)]
    cases += [gen_gm(m) for m in (2, 3, 4)] + [gen_random_tree(n, s) for n, s in _BENCH_TREES]
    for g in cases:
        want = {v: [] for v in g.vertices}
        for e, (u, v) in enumerate(g.edges):
            want[u].append((v, e))
            want[v].append((u, e))
        for i, v in enumerate(g.vertices):
            pairs = g.neighbours[i]
            assert [(g.vertices[w], e) for w, e in pairs] == want[v] == list(g.adjacency[v])
            assert tuple(e for _, e in pairs) == g.incidence[i]
        assert pickle.loads(pickle.dumps(g)).__dict__["neighbours"] == g.neighbours
        for h, root in enumerate(g.vertices):
            dist, parent, radius = graphs._sweep(g, h)
            relaxed = _distances_by_relaxation(g, root)
            assert dist == [relaxed[v] for v in g.vertices], (g.edges, root)
            assert parent[h] == h
            for v, p in enumerate(parent):
                if v != h:
                    assert dist[v] == dist[p] + len(g.neighbours[v]) - 1
                    assert p in {w for w, _ in g.neighbours[v]}
            assert radius == max(min(relaxed[a], relaxed[b]) for a, b in g.edges)


def test_reach_ceiling_matches_a_plain_relaxation(monkeypatch):
    """The Dijkstra with its early exit finds the same ceiling as a plain
    relaxation from every root; its witness attains it. Past the root cap,
    only the first vertices of maximum and minimum degree are tried, which
    can only raise the ceiling."""
    rng = random.Random(20261019)
    cases = [_random_connected(rng, n, rng.randrange(4)) for n in range(2, 13) for _ in range(15)]
    cases += [gen_gm(2), gen_gm(3), gen_cycle(7), gen_star(4), gen_path(5)]
    for g in cases:
        c = g.reach_ceiling
        assert c.bound == _ceiling_by_relaxation(g, g.vertices), g.edges
        assert c.bound == c.arc + 2 * c.radius == _ceiling_by_relaxation(g, [c.root])
        assert c.arc == len(g.adjacency[c.root])
    monkeypatch.setattr(graphs, "_REACH_ALL_ROOTS", 1)
    for g in cases:
        capped = build_graph(list(g.vertices), list(g.edges)).reach_ceiling
        degree = [len(g.adjacency[v]) for v in g.vertices]
        roots = {g.vertices[degree.index(max(degree))], g.vertices[degree.index(min(degree))]}
        assert capped.root in roots
        assert capped.bound == _ceiling_by_relaxation(g, roots) >= g.reach_ceiling.bound


def test_reach_ceiling_of_gm_has_a_closed_form():
    # The hub gives m^2 + 2m - 2 and a grid vertex 7m - 4; the docstring of
    # test_spectrum_of_gm7_is_refuted_by_the_reach_ceiling derives both.
    # gm(10) and up, 146 vertices or more, are past the root cap, where only
    # the hub and the first grid vertex are tried.
    for m in range(2, 13):
        assert gen_gm(m).reach_ceiling.bound == min(m * m + 2 * m - 2, 7 * m - 4), m


def test_reach_ceiling_never_refutes_what_the_oracle_colors():
    """Every t that the brute-force oracle colors is at most ρ, checked at
    every t within the oracle's reach on random connected graphs of 3-7
    vertices."""
    rng = random.Random(7)
    above = 0
    for n in range(3, 8):
        for _ in range(60):
            g = _random_connected(rng, n, rng.randrange(3))
            rho = g.reach_ceiling.bound
            for t in range(1, len(g.edges) + 1):
                if t ** len(g.edges) > 2 * 10**6:
                    break
                above += t > rho
                if brute_force_decide(g, t).status == COLORABLE:
                    assert t <= rho, (g.edges, t)
    assert above  # some t in reach lie above the ceiling


def test_reach_ceiling_preconditions():
    two_parts = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(InputError, match="reach ceiling requires a connected graph"):
        two_parts.reach_ceiling
    for g in (build_graph([], []), build_graph(["a"], [])):
        assert g.reach_ceiling == graphs.ReachCeiling(bound=0, root=None, arc=0, radius=0)


def _width_by_all_pairs(g):
    """W(T) straight from its definition: the largest sum of deg - 1 over
    the vertices of the path between any two vertices, plus one."""
    deg = {v: len(g.adjacency[v]) for v in g.vertices}
    best = 0
    for a in g.vertices:
        stack = [(a, None, deg[a] - 1)]
        while stack:
            v, parent, weight = stack.pop()
            best = max(best, weight + 1)
            stack += [(w, v, weight + deg[w] - 1) for w, _ in g.adjacency[v] if w != parent]
    return best


def _random_trees():
    rng = random.Random(23)
    trees = [gen_random_tree(n, seed) for n in range(2, 30) for seed in range(8)]
    return trees + [_random_connected(rng, n, 0) for n in range(2, 16) for _ in range(8)]


def test_tree_width_has_closed_forms_on_paths_and_stars():
    # a path's inner vertices weigh 1 each; a star's path runs through the
    # center, which weighs k - 1
    for n in range(1, 30):
        assert gen_path(n).tree_width.width == n, n
    for k in range(1, 30):
        assert gen_star(k).tree_width.width == k, k


def test_tree_width_matches_a_brute_force_over_all_vertex_pairs():
    """The two sweeps find the largest path weight; the path attains it and
    runs between two leaves; the lift is an integer interval coloring that
    uses 1 and W(T) and nothing outside them."""
    for g in _random_trees():
        tw = g.tree_width
        assert tw.width == _width_by_all_pairs(g), g.edges
        deg = {v: len(g.adjacency[v]) for v in g.vertices}
        assert sum(deg[v] - 1 for v in tw.path) + 1 == tw.width
        assert deg[tw.path[0]] == deg[tw.path[-1]] == 1
        for u, v in zip(tw.path, tw.path[1:]):
            assert v in {w for w, _ in g.adjacency[u]}
        assert (min(tw.lift), max(tw.lift)) == (1, tw.width)
        for v in g.vertices:
            colors = sorted(tw.lift[e] for _, e in g.adjacency[v])
            assert colors == list(range(colors[0], colors[0] + deg[v])), (g.edges, v)


def test_tree_width_is_at_most_the_reach_ceiling():
    for g in _random_trees():
        assert g.tree_width.width <= g.reach_ceiling.bound, g.edges


def test_tree_width_is_none_off_trees():
    # |E| = |V| - 1, but a triangle and an edge apart
    two_parts = build_graph(list("abcde"), [("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")])
    for g in (gen_cycle(5), gen_gm(2), _k4(), gen_complete_bipartite(2, 3), two_parts):
        assert g.tree_width is None, g.edges
    assert build_graph([], []).tree_width is None
    lone = build_graph(["a"], [])
    assert lone.tree_width == graphs.TreeWidth(width=0, path=("a",), lift=())
