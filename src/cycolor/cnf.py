"""CNF encoding of the coloring problem, for hand-off to external SAT solvers.

Variables (1-based DIMACS indices):

    x(e, c) = e*t + c            edge e (0-based) gets color c (1-based)
    a(v, s) = |E|*t + v*t + s    the palette at vertex v (0-based position
                                 in the vertex list) is contained in the
                                 cyclic arc of length deg(v) starting at
                                 color s

Clauses: exactly one color per edge; at most one incident edge per
(vertex, color); exactly one arc start per vertex, with links forcing
every color used at v into the selected arc; and one clause per color
demanding some edge uses it (surjectivity). The arcs, and so the starts
that cover each color, come from `intervals.arc_masks`.

For deg(v) >= t every arc of length deg(v) is the whole palette, making
the a(v, s) interchangeable; a unit clause pins s = 1 there so satisfying
assignments correspond one-to-one with valid colorings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .coloring import Coloring, check_cyclically_interval
from .errors import InputError, UsageError
from .graphs import Graph, is_connected
from .intervals import arc_masks


@dataclass(frozen=True)
class CnfEncoding:
    g: Graph
    t: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def num_vars(self) -> int:
        return (len(self.g.edges) + len(self.g.vertices)) * self.t

    def edge_var(self, e: int, c: int) -> int:
        return e * self.t + c

    def arc_var(self, v_idx: int, s: int) -> int:
        return len(self.g.edges) * self.t + v_idx * self.t + s

    def to_dimacs(self) -> str:
        # a label is written as its JSON string without the quotes, so a
        # line break in it cannot end the comment line
        name = {v: json.dumps(v, ensure_ascii=False)[1:-1] for v in self.g.vertices}
        lines = []
        for e, (u, v) in enumerate(self.g.edges):
            for c in range(1, self.t + 1):
                lines.append(
                    f"c var {self.edge_var(e, c)} : edge {e} ({name[u]}--{name[v]}) color {c}"
                )
        for v_idx, v in enumerate(self.g.vertices):
            for s in range(1, self.t + 1):
                lines.append(f"c var {self.arc_var(v_idx, s)} : vertex {name[v]} arc-start {s}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(map(str, (*clause, 0))))
        return "\n".join(lines) + "\n"

    def decode_model(self, true_vars: set[int], verify: bool = True) -> Coloring:
        """Read a satisfying assignment back into a Coloring and re-check it."""
        colors = []
        for e in range(len(self.g.edges)):
            chosen = [c for c in range(1, self.t + 1) if self.edge_var(e, c) in true_vars]
            if len(chosen) != 1:
                raise InputError(f"model sets {len(chosen)} colors on edge {e}, expected 1")
            colors.append(chosen[0])
        cert = Coloring(t=self.t, colors=tuple(colors))
        if verify and not check_cyclically_interval(self.g, cert).ok:
            raise InputError("decoded model fails the checker")
        return cert

    def model_from_coloring(self, cert: Coloring) -> set[int]:
        """The satisfying assignment corresponding to a valid coloring.

        Lets tests assert SAT instances really are satisfiable without an
        external solver: the returned set of true variables must satisfy
        every clause.
        """
        if len(cert.colors) != len(self.g.edges) or cert.t != self.t:
            raise InputError("coloring does not match this encoding")
        true_vars: set[int] = set()
        for e, c in enumerate(cert.colors):
            true_vars.add(self.edge_var(e, c))
        for v_idx, v in enumerate(self.g.vertices):
            arcs = arc_masks(len(self.g.adjacency[v]), self.t)
            palette = 0
            for _, i in self.g.adjacency[v]:
                palette |= 1 << (cert.colors[i] - 1)
            start = next(
                (s for s in range(1, self.t + 1) if palette & ~arcs[s - 1] == 0), None
            )
            if start is None:
                raise InputError(f"palette at {v} fits no arc; coloring is not valid")
            true_vars.add(self.arc_var(v_idx, start))
        return true_vars


def encode(g: Graph, t: int) -> CnfEncoding:
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise UsageError(f"t must be a positive integer, got {t!r}")
    if not is_connected(g):
        raise InputError("CNF export accepts connected graphs only")
    n_edges = len(g.edges)
    layout = CnfEncoding(g=g, t=t, clauses=())
    x, a = layout.edge_var, layout.arc_var
    clauses: list[tuple[int, ...]] = []
    for e in range(n_edges):
        clauses.append(tuple(x(e, c) for c in range(1, t + 1)))
        for c1 in range(1, t + 1):
            for c2 in range(c1 + 1, t + 1):
                clauses.append((-x(e, c1), -x(e, c2)))
    for v in g.vertices:
        inc = [i for _, i in g.adjacency[v]]
        for c in range(1, t + 1):
            for p in range(len(inc)):
                for q in range(p + 1, len(inc)):
                    clauses.append((-x(inc[p], c), -x(inc[q], c)))
    for v_idx, v in enumerate(g.vertices):
        deg = len(g.adjacency[v])
        clauses.append(tuple(a(v_idx, s) for s in range(1, t + 1)))
        for s1 in range(1, t + 1):
            for s2 in range(s1 + 1, t + 1):
                clauses.append((-a(v_idx, s1), -a(v_idx, s2)))
        if deg >= t:
            clauses.append((a(v_idx, 1),))
        arcs = arc_masks(deg, t)
        covers = [
            [a(v_idx, s) for s in range(1, t + 1) if arcs[s - 1] >> (c - 1) & 1]
            for c in range(1, t + 1)
        ]
        for _, e in g.adjacency[v]:
            for c in range(1, t + 1):
                clauses.append((-x(e, c), *covers[c - 1]))
    for c in range(1, t + 1):
        clauses.append(tuple(x(e, c) for e in range(n_edges)))
    return replace(layout, clauses=tuple(clauses))


def export_cnf(g: Graph, t: int) -> str:
    return encode(g, t).to_dimacs()
