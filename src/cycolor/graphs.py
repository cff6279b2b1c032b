"""Finite simple undirected graphs with stable, ordered vertex and edge lists.

Edge order matters throughout the package: a coloring is a flat list of
colors aligned with a graph's edge list, so edge index i always means the
i-th edge as constructed (or as read from JSON). Nothing here reorders
edges behind the caller's back.

The graph core never calls the search: the chromatic index, which needs
it on non-bipartite graphs, lives in `cycolor.solver`.
"""

from __future__ import annotations

import collections
import functools
import json
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError


@dataclass(frozen=True)
class Graph:
    """Immutable graph. `adjacency` maps each vertex to (neighbor, edge_index) pairs.

    Properties derived from the structure (`incidence`, `twin_classes`,
    `connected`) are computed on first use and kept, since the graph never
    changes.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    adjacency: dict[str, tuple[tuple[str, int], ...]]

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """The incident edge indices of each vertex, in vertex order."""
        return tuple(tuple(idx for _, idx in self.adjacency[v]) for v in self.vertices)

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


@dataclass(frozen=True)
class Bipartition:
    left: frozenset[str]
    right: frozenset[str]


@dataclass(frozen=True)
class NotBipartite:
    odd_cycle: tuple[str, ...]


def build_graph(vertices: list[str], edges: list[tuple[str, str]]) -> Graph:
    """Validate and freeze a graph. Preserves vertex and edge order exactly."""
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
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in vertices}
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    return Graph(
        vertices=tuple(vertices),
        edges=tuple((u, v) for u, v in edges),
        adjacency={v: tuple(pairs) for v, pairs in adj.items()},
    )


def require_match(g: Graph, coloring) -> None:
    """Refuse a coloring that does not hold exactly one color per edge."""
    if len(coloring.colors) != len(g.edges):
        raise InputError(
            f"coloring has {len(coloring.colors)} entries but graph has {len(g.edges)} edges"
        )


def max_degree(g: Graph) -> int:
    if not g.vertices:
        return 0
    return max(len(g.adjacency[v]) for v in g.vertices)


def is_connected(g: Graph) -> bool:
    return g.connected


def bipartition(g: Graph) -> Union[Bipartition, NotBipartite]:
    """Two-color the vertices by BFS, or return an odd cycle as a witness.

    Requires a connected graph. Sides are canonical: `left` is the side
    containing the first vertex.
    """
    if not is_connected(g):
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
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of two-element lists")
    pairs: list[tuple[str, str]] = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise InputError(f"malformed edge entry: {e!r}")
        pairs.append((e[0], e[1]))
    return build_graph(vertices, pairs)


def to_json(g: Graph) -> str:
    return json.dumps(to_dict(g), indent=2) + "\n"


def from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    # ValueError: malformed JSON or an over-long integer; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    return from_dict(data)


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
