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

The clause count grows as t^2 per edge and vertex, so `encode` computes it
first (`_clause_count`) and refuses more than CLAUSE_CAP clauses. Every
clause holds the one int object of each of its literals, and `encode` builds
each at-most-one block with `itertools.combinations`. `to_dimacs` formats
each literal once and writes a chunk of clauses as one join over their
literals, each clause ended by a literal 0 that formats as the terminator,
so an encoding costs memory per clause, not per literal occurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat
from operator import add

from .coloring import Coloring, check_cyclically_interval
from .errors import BudgetError, InputError, require_positive_int
from .graphs import Graph
from .intervals import arc_masks

# encode refuses a formula of more clauses than this: about ten times the
# 208,311 of gm(4) at t=64.
CLAUSE_CAP = 2 * 10**6
# to_dimacs joins the text of this many clauses into one string at a time.
_DIMACS_CHUNK = 4096


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
                    f"c var {self.edge_var(e, c)} : edge {e} ({name[u]}--{name[v]}) color {c}\n"
                )
        for v_idx, v in enumerate(self.g.vertices):
            for s in range(1, self.t + 1):
                lines.append(f"c var {self.arc_var(v_idx, s)} : vertex {name[v]} arc-start {s}\n")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        # word[lit] is literal lit and the space after it, formatted once; a
        # negative lit indexes from the end of the list. No clause holds
        # literal 0, so word[0] is the clause terminator.
        n = self.num_vars
        word = [f"{lit} " for lit in range(n + 1)] + [f"{lit} " for lit in range(-n, 0)]
        word[0] = "0\n"
        for at in range(0, len(self.clauses), _DIMACS_CHUNK):
            ended = map(add, self.clauses[at : at + _DIMACS_CHUNK], repeat((0,)))
            lines.append("".join(map(word.__getitem__, chain.from_iterable(ended))))
        return "".join(lines)

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


def _clause_count(g: Graph, t: int) -> int:
    """The number of clauses `encode(g, t)` builds, in closed form: per edge
    and per vertex one at-least-one and C(t, 2) at-most-one clauses; per
    vertex and color one clause per pair of incident edges; per vertex,
    edge end and color one link; one unit clause per vertex of degree >= t;
    one surjectivity clause per color."""
    degrees = [len(g.adjacency[v]) for v in g.vertices]
    pairs = t * (t - 1) // 2
    return (
        (len(g.edges) + len(g.vertices)) * (1 + pairs)
        + t * sum(d * (d - 1) // 2 for d in degrees)
        + 2 * len(g.edges) * t
        + sum(d >= t for d in degrees)
        + t
    )


def encode(g: Graph, t: int) -> CnfEncoding:
    require_positive_int("t", t)
    if not g.connected:
        raise InputError("CNF export accepts connected graphs only")
    n_clauses = _clause_count(g, t)
    if n_clauses > CLAUSE_CAP:
        raise BudgetError(f"t={t} needs {n_clauses} clauses, past the cap {CLAUSE_CAP}")
    n_edges = len(g.edges)
    layout = CnfEncoding(g=g, t=t, clauses=())
    x, a = layout.edge_var, layout.arc_var
    # Each literal is one int object that every clause holding it shares:
    # pos[var] is var and neg[var] is -var.
    pos = list(range(layout.num_vars + 1))
    neg = [-var for var in pos]
    colors = range(1, t + 1)
    clauses: list[tuple[int, ...]] = []
    # Each at-most-one block is every pair of its negated literals, in the
    # order of nested loops over increasing indices.
    for e in range(n_edges):
        clauses.append(tuple(pos[x(e, c)] for c in colors))
        clauses.extend(combinations([neg[x(e, c)] for c in colors], 2))
    for v in g.vertices:
        inc = [i for _, i in g.adjacency[v]]
        for c in colors:
            clauses.extend(combinations([neg[x(i, c)] for i in inc], 2))
    for v_idx, v in enumerate(g.vertices):
        deg = len(g.adjacency[v])
        clauses.append(tuple(pos[a(v_idx, s)] for s in colors))
        clauses.extend(combinations([neg[a(v_idx, s)] for s in colors], 2))
        if deg >= t:
            clauses.append((pos[a(v_idx, 1)],))
        arcs = arc_masks(deg, t)
        covers = [
            tuple(pos[a(v_idx, s)] for s in colors if arcs[s - 1] >> (c - 1) & 1) for c in colors
        ]
        for _, e in g.adjacency[v]:
            for c in colors:
                clauses.append((neg[x(e, c)], *covers[c - 1]))
    for c in colors:
        clauses.append(tuple(pos[x(e, c)] for e in range(n_edges)))
    return replace(layout, clauses=tuple(clauses))


def export_cnf(g: Graph, t: int) -> str:
    return encode(g, t).to_dimacs()
