"""CNF encoding of the coloring problem, for hand-off to external SAT solvers.

Variables (1-based DIMACS indices):

    x(e, c) = e*t + c            edge e (0-based) gets color c (1-based)
    a(v, s) = |E|*t + v*t + s    the palette at vertex v (0-based position
                                 in the vertex list) is contained in the
                                 cyclic arc of length deg(v) starting at
                                 color s

then the auxiliary variables of the ladders below, block by block.

Clauses: exactly one color per edge; at most one incident edge per
(vertex, color); exactly one arc start per vertex, with links forcing
every color used at v into the selected arc; and one clause per color
demanding some edge uses it (surjectivity). The arcs, and so the starts
that cover each color, come from `intervals.arc_masks`.

An at-most-one block of n < 8 literals is every pair of them, C(n, 2)
clauses. From n = 8 on, where it is smaller, it is a ladder (Sinz's
sequential counter, CP 2005) of 4n - 7 clauses: auxiliary variables
s_1..s_{n-2} with s_i equivalent to b_0 or ... or b_i (s_0 is b_0 itself),
and no b_i true together with s_{i-1}. Each s_i is fixed by the b's, so
the ladders add no models.

For deg(v) >= t every arc of length deg(v) is the whole palette, making
the a(v, s) interchangeable; a unit clause pins s = 1 there so satisfying
assignments correspond one-to-one with valid colorings.

With the ladders the clause count grows linearly in t: a ladder of
4t - 7 clauses per edge and per vertex, 2t links per edge and t blocks
over each vertex's edges. `encode` computes it first (`_clause_count`)
and refuses more than CLAUSE_CAP clauses. One layout of the at-most-one
blocks (`_amo_families`) gives the clauses, the counts, the auxiliary
variables set by `model_from_coloring` and the comment block. It states
each family by one rule: block k is the family's `bases` shifted by
k * `step`, and its ladder's comment text is a head, a function of k and
the escaped vertex labels, and a tail around i. Every clause holds the one
int object of each of its literals, and `encode` builds the ladders and
links with `zip` and `map` over slices of those literals. `to_dimacs`
formats each literal once and writes a chunk of clauses as one join over
their literals, each clause ended by a literal 0 that formats as the
terminator, so an encoding costs memory per clause, not per literal
occurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import add
from typing import Callable, Iterator, NamedTuple, Sequence

from .coloring import Coloring, check_cyclically_interval
from .errors import BudgetError, InputError, require_positive_int
from .graphs import Graph
from .intervals import arc_masks, mask_colors

# encode refuses a formula of more clauses than this: about forty times the
# 49,398 of gm(4) at t=64.
CLAUSE_CAP = 2 * 10**6
# to_dimacs joins the text of this many clauses into one string at a time.
_DIMACS_CHUNK = 4096
# An at-most-one block of this many literals or more is a ladder: 4n - 7
# clauses against C(n, 2) pairs, 25 against 28 at n = 8 and 21 each at n = 7.
_LADDER_FROM = 8


def _amo_size(n: int) -> tuple[int, int]:
    """The clauses and auxiliary variables of an at-most-one block of n literals."""
    if n < _LADDER_FROM:
        return n * (n - 1) // 2, 0
    return 4 * n - 7, n - 2


class _AmoFamily(NamedTuple):
    """`count` at-most-one blocks of `len(bases)` literals each: block k is
    over the variables `bases` shifted by k * `step`. In the comment block
    the s_i of block k stands for `head(k, names)` + (i + 1) + `tail`, where
    `names` are the escaped vertex labels in vertex order."""

    bases: Sequence[int]
    step: int
    count: int
    head: Callable[[int, Sequence[str]], str]
    tail: str = ""

    def members(self, k: int) -> list[int]:
        shift = k * self.step
        return [base + shift for base in self.bases]


def _amo_families(g: Graph, t: int) -> list[_AmoFamily]:
    """The at-most-one blocks of `encode(g, t)`: each edge's colors; each
    vertex's incident edges at each color; each vertex's arc starts. The
    ladders' auxiliary variables follow x and a in this order."""
    n_edges = len(g.edges)
    families = [_AmoFamily(range(1, t + 1), t, n_edges, lambda k, names: f"edge {k} color <= ")]
    for v_idx, incident in enumerate(g.incidence):
        firsts = [i * t + 1 for i in incident]  # x(i, 1) of each edge i at v
        head = lambda k, names, v=v_idx: f"vertex {names[v]} color {k + 1} on its first "
        families.append(_AmoFamily(firsts, 1, t, head, " edges"))
    starts = range(n_edges * t + 1, n_edges * t + t + 1)  # a(v, s) is x(|E| + v, s)
    head = lambda k, names: f"vertex {names[k]} arc-start <= "
    families.append(_AmoFamily(starts, t, len(g.vertices), head))
    return families


def _ladders(g: Graph, t: int) -> Iterator[tuple[_AmoFamily, int, int]]:
    """Every ladder block, in the order of `_amo_families`: its family, its
    index k there and its first auxiliary variable, the one for s_1."""
    aux = (len(g.edges) + len(g.vertices)) * t + 1
    for family in _amo_families(g, t):
        if len(family.bases) >= _LADDER_FROM:
            for k in range(family.count):
                yield family, k, aux
                aux += len(family.bases) - 2


@dataclass(frozen=True)
class CnfEncoding:
    g: Graph
    t: int
    clauses: tuple[tuple[int, ...], ...]

    @cached_property
    def num_vars(self) -> int:
        aux = sum(f.count * _amo_size(len(f.bases))[1] for f in _amo_families(self.g, self.t))
        return (len(self.g.edges) + len(self.g.vertices)) * self.t + aux

    def edge_var(self, e: int, c: int) -> int:
        return e * self.t + c

    def arc_var(self, v_idx: int, s: int) -> int:
        return len(self.g.edges) * self.t + v_idx * self.t + s

    def to_dimacs(self) -> str:
        # a label is written as its JSON string without the quotes, so a
        # line break in it cannot end the comment line
        names = [json.dumps(v, ensure_ascii=False)[1:-1] for v in self.g.vertices]
        name = dict(zip(self.g.vertices, names))
        lines = []
        colors = range(1, self.t + 1)
        for e, (u, v) in enumerate(self.g.edges):
            var = self.edge_var(e, 0)
            about = f" : edge {e} ({name[u]}--{name[v]}) color "
            lines.extend(f"c var {var + c}{about}{c}\n" for c in colors)
        for v_idx, v in enumerate(self.g.vertices):
            var = self.arc_var(v_idx, 0)
            about = f" : vertex {name[v]} arc-start "
            lines.extend(f"c var {var + s}{about}{s}\n" for s in colors)
        for family, k, aux in _ladders(self.g, self.t):
            head = family.head(k, names)
            s_i = range(1, len(family.bases) - 1)
            lines.extend(f"c var {aux + i - 1} : {head}{i + 1}{family.tail}\n" for i in s_i)
        n = self.num_vars
        lines.append(f"p cnf {n} {len(self.clauses)}\n")
        # word[lit] is literal lit and the space after it, formatted once; a
        # negative lit indexes from the end of the list. No clause holds
        # literal 0, so word[0] is the clause terminator.
        word = list(map(add, map(str, range(n + 1)), repeat(" ")))
        word += map(add, repeat("-"), reversed(word[1:]))
        word[0] = "0\n"
        for at in range(0, len(self.clauses), _DIMACS_CHUNK):
            ended = map(add, self.clauses[at : at + _DIMACS_CHUNK], repeat((0,)))
            lines.append("".join(map(word.__getitem__, chain.from_iterable(ended))))
        return "".join(lines)

    def decode_model(self, true_vars: set[int], verify: bool = True) -> Coloring:
        """Read a satisfying assignment back into a Coloring and re-check it.
        The ladders' auxiliary variables are not read."""
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
        for v_idx, (v, incident) in enumerate(zip(self.g.vertices, self.g.incidence)):
            arcs = arc_masks(len(incident), self.t)
            palette = 0
            for i in incident:
                palette |= 1 << (cert.colors[i] - 1)
            start = next(
                (s for s in range(1, self.t + 1) if palette & ~arcs[s - 1] == 0), None
            )
            if start is None:
                raise InputError(f"palette at {v} fits no arc; coloring is not valid")
            true_vars.add(self.arc_var(v_idx, start))
        # s_i is true from the first true b on; s_i is variable aux + i - 1
        for family, k, aux in _ladders(self.g, self.t):
            members = family.members(k)
            n = len(members)
            first = next((i for i, var in enumerate(members) if var in true_vars), n)
            true_vars.update(range(aux + max(first, 1) - 1, aux + n - 2))
        return true_vars


def _clause_count(g: Graph, t: int) -> int:
    """The number of clauses `encode(g, t)` builds, in closed form: one
    at-least-one clause per edge and per vertex; the at-most-one blocks of
    `_amo_families`; per vertex, edge end and color one link; one unit
    clause per vertex of degree >= t; one surjectivity clause per color."""
    return (
        len(g.edges)
        + len(g.vertices)
        + sum(f.count * _amo_size(len(f.bases))[0] for f in _amo_families(g, t))
        + 2 * len(g.edges) * t
        + sum(len(incident) >= t for incident in g.incidence)
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
    clauses: list[tuple[int, ...]] = [tuple(pos[x(e, 1) : x(e, t) + 1]) for e in range(n_edges)]
    for family in _amo_families(g, t):
        if len(family.bases) < _LADDER_FROM:
            for k in range(family.count):
                clauses.extend(combinations(map(neg.__getitem__, family.members(k)), 2))
    for family, k, aux in _ladders(g, t):
        n = len(family.bases)
        members = family.members(k)
        nb = list(map(neg.__getitem__, members))
        pb = list(map(pos.__getitem__, members))
        # s_0 is b_0 and s_i (i = 1..n-2) is auxiliary variable aux + i - 1
        ps = [pb[0], *pos[aux : aux + n - 2]]
        ns = [nb[0], *neg[aux : aux + n - 2]]
        clauses.extend(zip(nb[1:-1], ps[1:]))  # b_i implies s_i
        clauses.extend(zip(ns, ps[1:]))  # s_{i-1} implies s_i
        clauses.extend(zip(ns[1:], ps, pb[1:-1]))  # s_i implies s_{i-1} or b_i
        clauses.extend(zip(nb[1:], ns))  # not both b_i and s_{i-1}
    cover_starts: dict[int, list[list[int]]] = {}  # per degree, per color
    for v_idx, incident in enumerate(g.incidence):
        deg = len(incident)
        clauses.append(tuple(pos[a(v_idx, 1) : a(v_idx, t) + 1]))
        if deg >= t:
            clauses.append((pos[a(v_idx, 1)],))
        if deg not in cover_starts:
            # The starts whose arc covers color c are the colors of the arc
            # of the same length that ends at c.
            arcs = arc_masks(deg, t)
            length = min(deg, t)
            cover_starts[deg] = [mask_colors(arcs[(c - length) % t]) for c in colors]
        starts = pos[a(v_idx, 1) - 1 : a(v_idx, t) + 1]  # starts[s] is a(v_idx, s)
        covers = [tuple(map(starts.__getitem__, cover)) for cover in cover_starts[deg]]
        # a color c on an edge at v puts v's arc start among covers[c - 1]
        for e in incident:
            clauses.extend(map(add, zip(neg[x(e, 1) : x(e, t) + 1]), covers))
    # color c on some edge: x(e, c) = c + e*t for every e
    clauses.extend(tuple(pos[c : c + n_edges * t : t]) for c in colors)
    return replace(layout, clauses=tuple(clauses))


def export_cnf(g: Graph, t: int) -> str:
    return encode(g, t).to_dimacs()
