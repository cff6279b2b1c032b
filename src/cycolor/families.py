"""Graph family generators.

The centerpiece is `gen_gm`, the hub-and-grid family used throughout the
package's hardest tests: a hub vertex joined to an m-by-m grid of vertices,
plus one vertex per unordered pair {i, j} of rows, joined to every grid
vertex in row i or row j. The remaining generators (paths, cycles, stars,
complete bipartite, seeded random trees) exist to feed the checker and
solver with small, well-understood instances.

Label scheme for gen_gm (stable across versions):

    hub            "x0"
    pair (i, j)    "x_{i}_{j}"      1 <= i < j <= m
    grid (p, q)    "y_{p}_{q}"      1 <= p, q <= m

Edge order is part of the contract: certificates index into it.
Hub edges come first, (p, q)-lexicographic; then for each pair (i, j) in
lexicographic order and each q = 1..m, the edge to y_{i,q} and then the
edge to y_{j,q}.

Every generator refuses a size that is not an integer in range, a bool
included, with a UsageError. It then checks the closed-form edge count of
the graph it is asked for against EDGE_CAP before it builds anything, and
refuses a larger graph with a BudgetError. Last, `gen_random_tree`
refuses a seed that is not an integer, a bool included, with a UsageError.
"""

from __future__ import annotations

import heapq
import random

from .errors import BudgetError, UsageError
from .graphs import Graph, build_graph

# A built graph holds about 1 kB per edge, so no generator builds more edges.
EDGE_CAP = 100_000


def _require_size(need: str, least: int, *sizes) -> None:
    """Refuse sizes that are not all integers of at least `least`; a bool
    is not a size, though Python counts it as an int."""
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= least for n in sizes):
        raise UsageError(f"{need}, got {', '.join(map(repr, sizes))}")


def _require_edge_count(graph: str, edges: int) -> None:
    if edges > EDGE_CAP:
        raise BudgetError(f"{graph} would have {edges} edges, past the cap {EDGE_CAP}")


def hub_label() -> str:
    return "x0"


def pair_label(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def grid_label(p: int, q: int) -> str:
    return f"y_{p}_{q}"


def gen_gm(m: int) -> Graph:
    """Build the hub-and-grid graph for a given m >= 2.

    Sizes: (3m^2 - m)/2 + 1 vertices and m^3 edges. The graph is bipartite
    with the hub and all pair vertices on one side, the grid on the other;
    the hub has degree m^2, pair vertices 2m, grid vertices m.
    """
    _require_size("m must be an integer >= 2", 2, m)
    _require_edge_count(f"gm({m})", m**3)
    vertices = [hub_label()]
    vertices += [pair_label(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    vertices += [grid_label(p, q) for p in range(1, m + 1) for q in range(1, m + 1)]
    edges: list[tuple[str, str]] = [
        (hub_label(), grid_label(p, q))
        for p in range(1, m + 1)
        for q in range(1, m + 1)
    ]
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for q in range(1, m + 1):
                edges.append((pair_label(i, j), grid_label(i, q)))
                edges.append((pair_label(i, j), grid_label(j, q)))
    return build_graph(vertices, edges)


def gen_path(n: int) -> Graph:
    """Path with n edges (n + 1 vertices v1..v{n+1})."""
    _require_size("path needs >= 1 edge", 1, n)
    _require_edge_count(f"path({n})", n)
    vertices = [f"v{k}" for k in range(1, n + 2)]
    edges = [(f"v{k}", f"v{k + 1}") for k in range(1, n + 1)]
    return build_graph(vertices, edges)


def gen_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices v1..vn."""
    _require_size("cycle needs >= 3 vertices", 3, n)
    _require_edge_count(f"cycle({n})", n)
    vertices = [f"v{k}" for k in range(1, n + 1)]
    edges = [(f"v{k}", f"v{k + 1}") for k in range(1, n)]
    edges.append((f"v{n}", "v1"))
    return build_graph(vertices, edges)


def gen_star(n: int) -> Graph:
    """Star with n >= 1 leaves: center "c", leaves l1..ln."""
    _require_size("star needs >= 1 leaf", 1, n)
    _require_edge_count(f"star({n})", n)
    vertices = ["c"] + [f"l{k}" for k in range(1, n + 1)]
    edges = [("c", f"l{k}") for k in range(1, n + 1)]
    return build_graph(vertices, edges)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts a1..a{a} and b1..b{b}, edges in (i, j) lex order."""
    _require_size("both sides need >= 1 vertex", 1, a, b)
    _require_edge_count(f"K({a}, {b})", a * b)
    vertices = [f"a{i}" for i in range(1, a + 1)] + [f"b{j}" for j in range(1, b + 1)]
    edges = [(f"a{i}", f"b{j}") for i in range(1, a + 1) for j in range(1, b + 1)]
    return build_graph(vertices, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices v1..vn, decoded from a
    random Pruefer sequence.

    The PRNG is Python's Mersenne Twister via random.Random(seed) drawing
    with randrange(n), fixed here so a seed reproduces the same tree in any
    environment running this artifact version.
    """
    _require_size("tree needs >= 1 vertex", 1, n)
    _require_edge_count(f"tree({n})", n - 1)
    # None would seed from the clock, and True would give seed 1's tree
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    vertices = [f"v{k}" for k in range(1, n + 1)]
    if n == 1:
        return build_graph(vertices, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]  # 0-based vertex ids
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [k for k in range(n) if degree[k] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[str, str]] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((f"v{leaf + 1}", f"v{x + 1}"))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((f"v{u + 1}", f"v{v + 1}"))
    return build_graph(vertices, edges)
