"""Finite simple undirected graphs with stable, ordered vertex and edge lists.

Edge order matters throughout the package: a coloring is a flat list of
colors aligned with a graph's edge list, so edge index i always means the
i-th edge as constructed (or as read from JSON). Nothing here reorders
edges behind the caller's back.

The graph core never calls the search: the chromatic index, which needs
it on non-bipartite graphs, lives in `cycolor.solver`.

`Graph.reach_ceiling` is the reach ceiling ρ(G), a bound on t above which
no cyclically interval t-coloring exists. Take a vertex h and a coloring:
h's palette is an arc of deg(h) colors. Along a vertex path h, v1, ..., vk,
consecutive edges share a palette, an arc of deg(v_i) colors, so their
colors lie within deg(v_i) - 1 of each other, and an edge at vk has its
color within sum over i of (deg(v_i) - 1) of h's arc. Let R_h be the
largest such distance over the edges, each taken along its shortest path:
a vertex-weighted Dijkstra from h, with weight deg - 1 on every vertex but
h. Every color is used, and every color lies within R_h of an arc of
deg(h) colors, so t <= deg(h) + 2 R_h. ρ(G) is the least of these over
the roots h tried; any set of roots gives a sound ceiling.

`Graph.tree_width` is W(T) for a tree T: the largest sum over the vertices
v of a path of deg(v) - 1, plus one, which is the number of edges at the
path. A tree is cyclically interval t-colorable exactly when
Δ <= t <= W(T). The width comes from two sweeps, each to the leaf farthest
from where it starts, with vertex weights deg - 1; leaves weigh 0, so the
second sweep ends a path of largest weight. The coloring comes from one
walk down from the path's first vertex a, along the second sweep's parent
pointers. Each vertex's palette is deg consecutive integers that starts
at the color of the edge that reaches it (a's starts at 1). The child
toward the path's far end takes the palette's top color, so the colors
along the path climb from 1 to W(T), and the other children take the
next colors up, in adjacency order. Two colors of an integer interval
coloring differ by at most the sum of deg - 1 over the vertices between
their edges, which is at most W(T) - 1, so every color stays in
[1, W(T)]. That coloring folded mod t is a cyclically interval
t-coloring for every t in [Δ, W(T)].
"""

from __future__ import annotations

import collections
import functools
import heapq
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError

# The reach ceiling tries every vertex as a root up to this many vertices
# (one Dijkstra each); a larger graph tries its first vertices of maximum
# and minimum degree, so the ceiling costs two Dijkstras however large it is.
_REACH_ALL_ROOTS = 128


@dataclass(frozen=True)
class ReachCeiling:
    """ρ(G) = `bound` = `arc` + 2 `radius`: every color of a valid coloring
    lies within `radius` of the arc of `arc` colors at the vertex `root`,
    so no t above `bound` has one. A graph without edges has bound 0 and
    no root."""

    bound: int
    root: Optional[str]
    arc: int
    radius: int


@dataclass(frozen=True)
class TreeWidth:
    """W(T) = `width` for a tree: `path` is a vertex path of largest
    weight, `width` - 1 = the sum of deg - 1 over its vertices, and `lift`
    colors each edge (aligned with the edge list) with an integer in
    [1, width] so that every vertex's colors are deg consecutive integers.
    A tree without edges has width 0, a path of its one vertex and no
    colors."""

    width: int
    path: tuple[str, ...]
    lift: tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Immutable graph, compared and hashed by its vertices and edges.

    Properties derived from them (`adjacency`, `incidence`, `max_degree`,
    `twin_classes`, `connected`, `reach_ceiling`, `tree_width`) are
    computed on first use and kept, since the graph never changes; a
    pickled copy carries the ones computed.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @functools.cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """Each vertex's (neighbour, edge index) pairs, in edge order."""
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return {v: tuple(pairs) for v, pairs in adj.items()}

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """The incident edge indices of each vertex, in vertex order."""
        return tuple(tuple(idx for _, idx in self.adjacency[v]) for v in self.vertices)

    @functools.cached_property
    def max_degree(self) -> int:
        """Δ, the largest vertex degree; 0 without vertices."""
        return max(map(len, self.incidence), default=0)

    @functools.cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The false-twin classes: the vertex indices (in vertex order) of
        each set of two or more vertices with the same nonempty open
        neighbourhood, ordered by their first vertex. Twins are never
        adjacent, and any permutation of a class is an automorphism."""
        classes: dict[frozenset[str], list[int]] = {}
        for i, v in enumerate(self.vertices):
            if self.adjacency[v]:
                classes.setdefault(frozenset(w for w, _ in self.adjacency[v]), []).append(i)
        return tuple(tuple(c) for c in classes.values() if len(c) > 1)

    @functools.cached_property
    def connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            u = stack.pop()
            for w, _ in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    @functools.cached_property
    def reach_ceiling(self) -> ReachCeiling:
        """The reach ceiling ρ(G) of a connected graph, with its witness
        root (see the module docstring)."""
        return _reach_ceiling(self)

    @functools.cached_property
    def tree_width(self) -> Optional[TreeWidth]:
        """W(T) with its path and interval coloring if the graph is a tree
        (see the module docstring), else None."""
        if not self.connected or len(self.edges) != len(self.vertices) - 1:
            return None
        return _tree_width(self)


def _reach_ceiling(g: Graph) -> ReachCeiling:
    """ρ over every root, or over the first vertices of maximum and minimum
    degree past _REACH_ALL_ROOTS vertices; ties keep the first root tried,
    in vertex order."""
    if not g.connected:
        raise InputError("reach ceiling requires a connected graph")
    if not g.edges:
        return ReachCeiling(bound=0, root=None, arc=0, radius=0)
    vid = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[vid[w] for w, _ in g.adjacency[v]] for v in g.vertices]
    weight = [len(ws) - 1 for ws in nbrs]
    if len(nbrs) <= _REACH_ALL_ROOTS:
        roots = range(len(nbrs))
    else:
        roots = sorted({weight.index(max(weight)), weight.index(min(weight))})
    bound, witness = math.inf, (0, 0, 0)
    for h in roots:
        arc = len(nbrs[h])
        radius = _reach_radius(nbrs, weight, h, bound - arc)
        if radius is not None:
            bound, witness = arc + 2 * radius, (h, arc, radius)
    h, arc, radius = witness
    return ReachCeiling(bound=arc + 2 * radius, root=g.vertices[h], arc=arc, radius=radius)


def _reach_radius(nbrs: list[list[int]], weight: list[int], h: int, cutoff: float) -> Optional[int]:
    """R_h: the largest distance from h to an edge, where an edge is as far
    as its nearer end and a path costs the weights of its vertices but h.
    None as soon as an edge lies at a distance d with 2d >= cutoff: h then
    cannot give a lower ceiling."""
    dist = [math.inf] * len(nbrs)
    dist[h] = 0
    done = [False] * len(nbrs)
    heap = [(0, h)]
    radius = 0
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w in nbrs[v]:
            if not done[w]:
                # the edge vw is first reached here, at d
                if 2 * d >= cutoff:
                    return None
                radius = d
                if d + weight[w] < dist[w]:
                    dist[w] = d + weight[w]
                    heapq.heappush(heap, (dist[w], w))
    return radius


def _tree_width(g: Graph) -> TreeWidth:
    """Two sweeps from the first vertex, then one walk down from the path's
    end a that colors every edge."""
    if not g.edges:
        return TreeWidth(width=0, path=g.vertices, lift=())
    vid = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[(vid[w], e) for w, e in g.adjacency[v]] for v in g.vertices]
    degree = [len(ws) for ws in nbrs]
    a, _ = _farthest_leaf(nbrs, degree, 0)
    b, parent = _farthest_leaf(nbrs, degree, a)
    path = [b]
    toward = [-1] * len(nbrs)  # each path vertex's child toward b
    while path[-1] != a:
        toward[parent[path[-1]]] = path[-1]
        path.append(parent[path[-1]])
    path.reverse()
    lift = [0] * len(g.edges)
    stack = [(a, 1)]  # (vertex, the color of the edge that reaches it)
    while stack:
        v, low = stack.pop()
        top = low + degree[v] - 1
        for w, e in nbrs[v]:
            if w == parent[v]:
                continue
            if w == toward[v]:
                c = top
            else:
                low += 1
                c = low
            lift[e] = c
            if degree[w] > 1:  # a leaf has no edge left to color
                stack.append((w, c))
    width = lift[nbrs[b][0][1]]  # b is a leaf: its one edge takes the top color
    return TreeWidth(width=width, path=tuple(g.vertices[v] for v in path), lift=tuple(lift))


def _farthest_leaf(nbrs: list[list[tuple[int, int]]], degree: list[int], root: int):
    """The leaf other than root that is farthest from root, where a path
    weighs the sum of deg - 1 over its vertices (the first in vertex order
    among ties), and the parent of each vertex on the way from root."""
    parent = [-1] * len(nbrs)
    parent[root] = root
    dist = [0] * len(nbrs)
    dist[root] = degree[root] - 1
    stack = [root]
    while stack:
        v = stack.pop()
        for w, _ in nbrs[v]:
            if parent[w] < 0:
                parent[w] = v
                dist[w] = dist[v] + degree[w] - 1
                stack.append(w)
    leaves = [v for v in range(len(nbrs)) if degree[v] == 1 and v != root]
    return max(leaves, key=dist.__getitem__), parent


@dataclass(frozen=True)
class Bipartition:
    left: frozenset[str]
    right: frozenset[str]


@dataclass(frozen=True)
class NotBipartite:
    odd_cycle: tuple[str, ...]


def build_graph(vertices: list[str], edges: list[tuple[str, str]]) -> Graph:
    """Validate and freeze a graph. Preserves vertex and edge order exactly."""
    if not all(isinstance(v, str) for v in vertices):
        raise InputError("'vertices' must be a list of strings")
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise InputError(f"malformed edge entry: {e!r}")
    seen_v: set[str] = set()
    for v in vertices:
        if v in seen_v:
            raise InputError(f"vertex {v!r} listed twice")
        seen_v.add(v)
    seen_e: set[frozenset[str]] = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at {u!r}")
        if u not in seen_v:
            raise InputError(f"edge endpoint {u!r} is not a vertex")
        if v not in seen_v:
            raise InputError(f"edge endpoint {v!r} is not a vertex")
        key = frozenset((u, v))
        if key in seen_e:
            raise InputError(f"edge {{{u!r}, {v!r}}} listed twice")
        seen_e.add(key)
    return Graph(vertices=tuple(vertices), edges=tuple((u, v) for u, v in edges))


def require_match(g: Graph, coloring) -> None:
    """Refuse a coloring that does not hold exactly one color per edge."""
    if len(coloring.colors) != len(g.edges):
        raise InputError(
            f"coloring has {len(coloring.colors)} entries but graph has {len(g.edges)} edges"
        )


def bipartition(g: Graph) -> Union[Bipartition, NotBipartite]:
    """Two-color the vertices by BFS, or return an odd cycle as a witness.

    Requires a connected graph. Sides are canonical: `left` is the side
    containing the first vertex.
    """
    if not g.connected:
        raise InputError("bipartition requires a connected graph")
    if not g.vertices:
        return Bipartition(frozenset(), frozenset())
    root = g.vertices[0]
    depth: dict[str, int] = {root: 0}
    parent: dict[str, Optional[str]] = {root: None}
    queue = collections.deque([root])
    while queue:
        u = queue.popleft()
        for w, _ in g.adjacency[u]:
            if w not in depth:
                depth[w] = depth[u] + 1
                parent[w] = u
                queue.append(w)
            elif depth[w] == depth[u] and w != parent[u]:
                # Same BFS level: the two root paths + this edge close an odd cycle.
                return NotBipartite(_odd_cycle_witness(u, w, parent))
    left = frozenset(v for v in g.vertices if depth[v] % 2 == 0)
    right = frozenset(v for v in g.vertices if depth[v] % 2 == 1)
    return Bipartition(left, right)


def _odd_cycle_witness(u: str, w: str, parent: dict[str, Optional[str]]) -> tuple[str, ...]:
    """Join the parent chains of u and w at their lowest common ancestor."""

    def chain(v: str) -> list[str]:
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])  # type: ignore[arg-type]
        return out

    up, wp = chain(u), chain(w)
    ancestors = set(up)
    meet = next(v for v in wp if v in ancestors)
    head = up[: up.index(meet) + 1]          # u .. meet
    tail = wp[: wp.index(meet)][::-1]        # meet-child .. w
    return tuple(head + tail)


# --- interchange -------------------------------------------------------------

def to_dict(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [[u, v] for u, v in g.edges]}


def from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise InputError("graph object needs 'vertices' and 'edges' keys")
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list):
        raise InputError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of two-element lists")
    return build_graph(vertices, edges)


def to_json(g: Graph) -> str:
    return json.dumps(to_dict(g), indent=2) + "\n"


def _read_json(text: str):
    """The object a JSON text holds; the one reader of graph and coloring JSON."""
    try:
        return json.loads(text)
    # ValueError: malformed JSON or an over-long integer; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc


def from_json(text: str) -> Graph:
    return from_dict(_read_json(text))


def to_dot(g: Graph, coloring=None) -> str:
    """Render as Graphviz source. With a coloring, edges get color indices as labels.

    Each vertex label is written as its JSON string, so a quote or a
    backslash is escaped and a control character cannot break the line.
    """
    if coloring is not None:
        require_match(g, coloring)
    ids = {v: json.dumps(v, ensure_ascii=False) for v in g.vertices}
    lines = ["graph g {"]
    for v in g.vertices:
        lines.append(f"  {ids[v]};")
    for idx, (u, v) in enumerate(g.edges):
        if coloring is not None:
            lines.append(f'  {ids[u]} -- {ids[v]} [label="{coloring.colors[idx]}"];')
        else:
            lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
