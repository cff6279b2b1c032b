"""Exact search for cyclically-interval proper edge colorings.

`decide` answers "does this graph admit a valid t-coloring?" by depth-first
search over edge assignments with three sound prunes:

  (i)   a color may not repeat at a vertex (properness);
  (ii)  a vertex's partial palette must fit inside some cyclic arc of
        length deg(v) — i.e. cyclic_span(partial) <= deg(v) — since the
        finished palette has exactly deg(v) distinct colors and must be an
        arc;
  (iii) the number of still-unassigned edges must cover the number of
        still-unused colors (surjectivity).

Every search reads one plan of the graph (`_plan`), built on the graph's
first search and kept with it (`_plan_of`): a spectrum builds one plan,
and only if some t searches, and its worker processes receive it with the
graph. The plan places edges in a connected depth-first order from the
first vertex of maximum degree: its edges come first, and every later
edge shares a vertex with an earlier one, so prunes (i) and (ii) judge
each palette from its first edge on.

Symmetry breaking (`_symmetry_rules`) keeps one image of each valid
coloring under color rotation and the permutations of false twins
(vertices with the same open neighbourhood, `Graph.twin_classes`), in the
lex-leader style of Crawford, Ginsberg, Luks and Roy (KR 1996): for
t > Δ the root's Δ edges take colors in [1, Δ], at t = Δ one of them
takes color 1, and the edges from one common neighbour to a twin class
take increasing colors in search order. A position may then take only
the colors in allowed[p], and only those above the color at gt[p]; the
plan holds gt, which does not depend on t.

The search is iterative: an explicit stack holds the color placed at each
edge position, over integer vertex ids and bitmask palettes, so the depth
of a graph is not bounded by Python's recursion limit. It judges all colors
of a position at once (`_search`). Each vertex keeps a window: the colors c
with cyclic_span(palette | c) <= deg, set when a color is placed at the
vertex and restored on undo. A position's candidates are the proper colors
from the next one to try on; those in both endpoints' windows clear prune
(ii), and prune (iii) keeps all of them, only the unused ones, or none.
The lowest survivor is placed. One node is one color that clears prune (i),
so a position counts its proper colors up to the one placed, or all of them
when none survives; the node budget stops at exactly budget + 1 nodes, and
the clock is read whenever the count crosses a multiple of 1024 within the
node budget. The prefix replay (`certificate_prefix_survives`) is the same
search allowed only the certificate's color at each position, with no
symmetry rule, so the two cannot drift. Windows come from one memo made
for each search (`_window_kernel`), keyed on the palette rotated so that
its lowest color is color 1, and on the degree. A miss judges the palette
once by `cyclic_span`; a palette that fits takes its window from its runs
of absent colors (`intervals.arc_window`): with r = t - deg, no run of r
or more empties the window, two or more leave it full, and exactly one
cuts the colors that would split it into two pieces shorter than r.

The chromatic index asks the same search one question: at t = Δ, with
every degree raised to Δ, a valid coloring is a proper Δ-coloring
(`_proper_search`).

Certificates are re-verified with the checker before being returned.
"Not colorable" comes by one of five routes, each named by its `reason`:

  - t below the max degree Δ: "t=T below max degree D: properness
    impossible", as a vertex of degree Δ needs Δ colors;
  - t above |E|: "t=T exceeds edge count E: some color must go unused";
  - on a tree, t above its width W(T) (`Graph.tree_width`): "t=T exceeds
    tree width W, the most edges at one path (A to B): a coloring lifted
    along the tree spans at most W colors";
  - t above the reach ceiling ρ(G) (`Graph.reach_ceiling`, where the
    proof is): "t=T exceeds reach ceiling P: every color lies within R
    of the D-color arc of H, so t <= P". Each color is within R of the
    arc of the palette at H, and those colors number at most D + 2R;
  - an exhaustive search: "exhaustive search".

The tree-width refutation is this. Lift a valid t-coloring of a tree to
the integers along the tree: from one edge outward, each palette, an arc
of deg colors, becomes deg consecutive integers holding the lift of the
edge it was reached by. The lifts cover every residue mod t, so the
least and the largest lift differ by at least t - 1. Along the tree path
between their edges, consecutive edges share a palette, so the lift moves
by at most deg - 1 at each vertex, and t - 1 <= W(T) - 1.

On a tree, every t in [Δ, W(T)] is colorable: `Graph.tree_width` holds an
integer interval coloring of span W(T), and folded mod t, c -> (c - 1) % t
+ 1, each palette of deg <= t consecutive integers becomes an arc of deg
colors and the span covers every color. Its reason is "interval coloring
of tree width W folded mod T". All of these but the search report 0 nodes;
on a tree no t reads the reach ceiling or searches. Running out of budget
is its own outcome.

`brute_force_decide` is the deliberately independent ground truth: it
enumerates every assignment in lexicographic order and shares no search
logic with `decide`. Its default, vector, route is a blocked numpy sweep.
The assignments of the last k edges (t^k <= _CHUNK), the rows, and of the
first ones, the prefixes, are each laid out once as a digit table; the
prefix table holds t^split rows, at most ENUMERATION_CAP * t / _CHUNK. A
vertex's palette is the OR of its prefix part and its suffix part, the
color bits of its edges in each table, judged by one lookup in a per-degree
table over all 2^t bitmasks in which only the t arcs of deg colors
(`intervals.arc_masks`) are set; it is empty when deg > t. A vertex whose
edges all lie in one table filters that table once, and every other vertex
is judged on a grid of kept prefixes x kept rows, a block of prefixes at a
time. Its arcs are those tables, not `cyclic_span`, so it shares none of
`decide`'s prunes. The tables cap t at _MAX_VECTOR_T; past it a sweep is
refused. The literal route judges each assignment with the checker; the
tests use it as the reference for the vector sweep, with blocks as small as
a few assignments.

Two imports are deferred to the routes that use them: numpy loads on the
first vector sweep, and the process pool when `spectrum` fans out to more
than one worker. Importing the package loads neither, and no CLI command
but `spectrum --jobs` above 1 loads either.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .coloring import Coloring, check_cyclically_interval, check_proper
from .errors import BudgetError, InputError, InternalError, UsageError, require_positive_int
from .graphs import Bipartition, Graph, bipartition, require_match
from .intervals import ColorSet, arc_masks, arc_window, cyclic_span, mask_colors

COLORABLE = "colorable"
NOT_COLORABLE = "not-colorable"
BUDGET_EXCEEDED = "budget-exceeded"

ENUMERATION_CAP = 10**9
# chromatic_index searches non-bipartite graphs of at most this many edges.
_CHROMATIC_INDEX_EDGE_LIMIT = 64
# The vectorized path tabulates arc shapes over all 2^t palette bitmasks.
_MAX_VECTOR_T = 20
# The vectorized path judges blocks of at most this many assignments at once.
_CHUNK = 1 << 17


@dataclass(frozen=True)
class SolverConfig:
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_budget is not None:
            require_positive_int("node_budget", self.node_budget)
        seconds = self.time_budget
        # `not > 0` also refuses NaN, a deadline that never fires
        if seconds is not None and (
            not isinstance(seconds, (int, float)) or isinstance(seconds, bool) or not seconds > 0
        ):
            raise UsageError(f"time_budget must be a positive number, got {seconds!r}")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    coloring: Optional[Coloring] = None
    reason: str = ""
    nodes: int = 0
    # wall seconds `decide` took; outcomes compare equal without it
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SpectrumResult:
    graph_id: str
    t_min: int
    t_max: int
    outcomes: dict[int, SearchOutcome] = field(default_factory=dict)


def _window_kernel(t: int) -> Callable[[int, int], int]:
    """A memoized arc window for one palette size t.

    window(mask, d) is the bitmask of the colors c with
    cyclic_span(mask | c) <= d: the colors that a vertex of degree d whose
    palette is the nonempty `mask` may still take under prune (ii). The
    memo is keyed on the mask rotated until its lowest color is color 1
    (and on d), and a hit is rotated back. A miss takes the span of the
    palette (past d, the window is empty) and otherwise the window from
    the palette's runs of absent colors (`intervals.arc_window`). The memo
    lives only as long as the returned function: each search pays for its
    own misses.
    """
    full = (1 << t) - 1
    windows: dict[int, int] = {}

    def window(mask: int, d: int) -> int:
        if d >= t:
            return full
        low = (mask & -mask).bit_length() - 1
        key = mask >> low
        got = windows.get(key * t + d)
        if got is None:
            # arc_window alone would give 0 to a palette that does not fit;
            # the span test keeps the arc fit one `cyclic_span` per miss,
            # which is what the benchmark's tracer counts
            fits = cyclic_span(ColorSet.of(t, mask_colors(key))) <= d
            got = windows[key * t + d] = arc_window(key, d, t) if fits else 0
        return (got << low | got >> (t - low)) & full

    return window


@dataclass(frozen=True)
class _Plan:
    """What every search reads of one graph; built once by `_plan`."""

    order: tuple[int, ...]
    eu: tuple[int, ...]
    ev: tuple[int, ...]
    degree: tuple[int, ...]
    gt: tuple[int, ...]
    head: int


def _plan(g: Graph) -> _Plan:
    """The search order, with vertex ids and the parts of the symmetry rules
    that do not depend on t: position p places edge order[p], whose
    endpoints have vertex ids eu[p] and ev[p], and degree is per vertex id.

    The order is connected depth-first. Its root h is the first vertex of
    maximum degree. A stack of vertices starts with h; popping u appends
    u's edges not yet placed, sorted by (neighbour degree descending, edge
    index), and pushes each neighbour reached for the first time in that
    order, so the last one pushed is expanded next. h's edges lead, and on
    a connected graph every later edge shares a vertex with an earlier one,
    so prunes (i) and (ii) see each palette from its first edge on.

    Rule (b) of `_symmetry_rules` orders a false-twin class at a common
    neighbour x: h if h is one, else the first in vertex order. A class
    holding h is left alone, and so is one whose x lies in another such
    class, since sorting that class would move x's edges. gt[p] is the
    position before p on its class's edges at x, or the number of
    positions; head is the first such edge at h, or position 0.
    """
    n_edges = len(g.edges)
    if not g.vertices:
        return _Plan(order=(), eu=(), ev=(), degree=(), gt=(0,), head=0)
    vid = {v: i for i, v in enumerate(g.vertices)}
    degree = tuple(len(g.adjacency[v]) for v in g.vertices)
    nbrs = [
        sorted(((vid[w], e) for w, e in g.adjacency[v]), key=lambda we: (-degree[we[0]], we[1]))
        for v in g.vertices
    ]
    h = degree.index(max(degree))
    order: list[int] = []
    placed = [False] * n_edges
    seen = {h}
    stack = [h]
    while stack:
        for w, e in nbrs[stack.pop()]:
            if not placed[e]:
                placed[e] = True
                order.append(e)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    position = {e: p for p, e in enumerate(order)}
    classes = [c for c in g.twin_classes if h not in c]
    in_classes = {u for c in classes for u in c}
    gt = [n_edges] * (n_edges + 1)
    firsts_at_h = []
    for c in classes:
        common = {w for w, _ in nbrs[c[0]]}
        x = h if h in common else min(common)
        if x in in_classes:
            continue
        chain = sorted(position[e] for u in c for w, e in nbrs[u] if w == x)
        for a, b in zip(chain, chain[1:]):
            gt[b] = a
        if x == h:
            firsts_at_h.append(chain[0])
    eu = tuple(vid[g.edges[e][0]] for e in order)
    ev = tuple(vid[g.edges[e][1]] for e in order)
    return _Plan(tuple(order), eu, ev, degree, tuple(gt), min(firsts_at_h, default=0))


def _plan_of(g: Graph) -> _Plan:
    """g's plan: built by `_plan` on first use and kept in the graph's
    instance dict beside its cached properties, so every search of one graph
    reads one plan, and a pickled copy sent to a worker carries it."""
    plan = g.__dict__.get("_search_plan")
    if plan is None:
        plan = g.__dict__["_search_plan"] = _plan(g)
    return plan


def _symmetry_rules(plan: _Plan, t: int) -> list[int]:
    """The `allowed` that `decide` gives `_search`, for t from the max
    degree Δ to |E| on a connected graph; its `gt` is plan.gt.

    h is the root of the plan's order, the first vertex of degree Δ, whose
    Δ edges lead. Color rotation and permutations of a false-twin class map
    valid colorings to valid colorings, so the search may keep one image of
    each:
      (a) if Δ < t, h's palette, an arc of Δ colors, is rotated to [1, Δ]:
          the first Δ positions take colors <= Δ;
      (b) the edges from a common neighbour x to a twin class take strictly
          increasing colors in search order (`_plan` picks the classes);
      (c) if Δ = t, rotation is still free: the first edge of a twin class
          at h, or position 0 when h has no ordered class, takes color 1.
    The image is reached by a rotation followed by sorting each ordered
    class, which changes neither h's palette nor another ordered class.
    """
    n_edges = len(plan.order)
    delta = max(plan.degree)
    allowed = [(1 << t) - 1] * n_edges
    if delta < t:
        allowed[:delta] = [(1 << delta) - 1] * delta
    else:
        allowed[plan.head] = 1
    return allowed


def _search(
    plan: _Plan,
    t: int,
    allowed: list[int],
    cfg: SolverConfig,
    gt: Optional[tuple[int, ...]] = None,
) -> tuple[SearchOutcome, list[int]]:
    """The depth-first search over the positions of a `_plan`, with the
    prunes judged a whole position at a time on bitmasks (bit c-1 = color c).

    allowed[p] holds the colors the search may place at position p: `decide`
    narrows it by the symmetry-breaking rules (`_symmetry_rules`),
    `_proper_search` narrows position 0 to color 1, and the prefix replay
    allows each position only its certificate's color. gt[p], when it is
    below the number of positions, is an earlier position whose color p
    must exceed (gt has one more entry than there are positions); `decide`
    passes plan.gt, and without gt no position has such a bound. Returns
    the outcome, without a coloring, and the color bit placed at each
    position, which is a complete assignment when the outcome is COLORABLE.
    """
    eu, ev, degree = plan.eu, plan.ev, plan.degree
    n_edges = len(eu)
    if gt is None:
        gt = [n_edges] * (n_edges + 1)
    full = (1 << t) - 1
    window = _window_kernel(t)
    masks = [0] * len(degree)
    # A vertex's window is the set of colors that keep its palette within
    # an arc of deg colors, prune (ii). It stays full when deg >= t, and
    # nothing reads it after the vertex's last edge, so grow_u[p] says
    # whether placing at p narrows eu[p]'s window.
    wins = [full] * len(degree)
    # Kept out of the plan: CPython 3.11 must quicken _search here, not mid main loop (1.5x slower).
    last = {}
    for p in range(n_edges):
        last[eu[p]] = last[ev[p]] = p
    grow_u = [degree[u] < t and last[u] > p for p, u in enumerate(eu)]
    grow_v = [degree[v] < t and last[v] > p for p, v in enumerate(ev)]
    saved_u = [0] * n_edges  # the window each placement replaced
    saved_v = [0] * n_edges
    # Prune (iii): with k colors used before p, a new color leaves t-k-1 and
    # a used one t-k unused colors for the n_edges-p-1 edges after p.
    lack = [t - n_edges + p + 1 for p in range(n_edges)]
    used_before = [0] * (n_edges + 1)  # the colors placed before each position
    # The color bit at each position, and a 0 past the last one, which is
    # the bound gt names for a position that has none.
    placed = [0] * (n_edges + 1)

    budget = cfg.node_budget
    limit = math.inf if budget is None else budget + 1  # the count that stops the search
    deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget
    # The node count at which the limit or the clock is next checked: the
    # clock is read when the count crosses a multiple of 1024 below the limit.
    check = min(limit, 1024)
    nodes = 0

    pos, nxt = 0, 1  # nxt: the lowest color bit still to try at pos
    while pos < n_edges:
        u = eu[pos]
        v = ev[pos]
        proper = allowed[pos] & -nxt & ~(masks[u] | masks[v])
        fit = proper & wins[u] & wins[v]
        used = used_before[pos]
        short = lack[pos] - used.bit_count()
        if short > 0:
            fit = fit & ~used if short == 1 else 0
        # A node is a color that clears prune (i): each proper color up to
        # the first one that fits, or all of them when none fits.
        if fit:
            bit = fit & -fit
            n = nodes + (proper & ((bit << 1) - 1)).bit_count()
        else:
            n = nodes + proper.bit_count()
        if n >= check:
            mark = (nodes | 1023) + 1
            if n >= mark and mark < limit and deadline is not None and time.monotonic() > deadline:
                reason = f"time budget {cfg.time_budget}s exhausted"
                return SearchOutcome(BUDGET_EXCEEDED, reason=reason, nodes=mark), placed
            if n >= limit:
                reason = f"node budget {budget} exhausted"
                return SearchOutcome(BUDGET_EXCEEDED, reason=reason, nodes=limit), placed
            check = min((n | 1023) + 1, limit)
        nodes = n
        if fit:
            placed[pos] = bit
            masks[u] |= bit
            masks[v] |= bit
            if grow_u[pos]:
                saved_u[pos] = wins[u]
                wins[u] = window(masks[u], degree[u])
            if grow_v[pos]:
                saved_v[pos] = wins[v]
                wins[v] = window(masks[v], degree[v])
            used_before[pos + 1] = used | bit
            pos += 1
            nxt = placed[gt[pos]] << 1 or 1  # above the color of gt[pos], if any
        else:  # every color at pos is cut: undo the previous position
            if pos == 0:
                return SearchOutcome(NOT_COLORABLE, reason="exhaustive search", nodes=nodes), placed
            pos -= 1
            bit = placed[pos]
            u = eu[pos]
            v = ev[pos]
            masks[u] ^= bit
            masks[v] ^= bit
            if grow_u[pos]:
                wins[u] = saved_u[pos]
            if grow_v[pos]:
                wins[v] = saved_v[pos]
            nxt = bit << 1
    return SearchOutcome(COLORABLE, nodes=nodes), placed


def _certificate(
    g: Graph, order: tuple[int, ...], t: int, placed: list[int], check: Callable
) -> Coloring:
    """The coloring a COLORABLE `_search` placed along `order`, re-verified
    by the checker `check` (`check_proper` or `check_cyclically_interval`)."""
    colors = [0] * len(order)
    for p, e in enumerate(order):
        colors[e] = placed[p].bit_length()
    return _reverified(g, Coloring(t=t, colors=tuple(colors)), check)


def _reverified(g: Graph, cert: Coloring, check: Callable) -> Coloring:
    """cert, once the checker `check` has passed it."""
    if not check(g, cert).ok:
        raise InternalError("certificate failed re-verification")
    return cert


def decide(g: Graph, t: int, cfg: Optional[SolverConfig] = None) -> SearchOutcome:
    """Exact decision: by argument where t is below the max degree or above
    the edge count, by the tree width on a tree, by argument above the reach
    ceiling, else by backtracking; see the module docstring for the routes
    and the prunes."""
    start = time.perf_counter()
    cfg = cfg or SolverConfig()
    require_positive_int("t", t)
    if not g.connected:
        raise InputError("decide accepts connected graphs only")
    n_edges = len(g.edges)
    delta = g.max_degree
    coloring, nodes = None, 0
    if t < delta:
        status, reason = NOT_COLORABLE, f"t={t} below max degree {delta}: properness impossible"
    elif t > n_edges:
        status = NOT_COLORABLE
        reason = f"t={t} exceeds edge count {n_edges}: some color must go unused"
    elif (tree := g.tree_width) is not None:
        if t > tree.width:
            status = NOT_COLORABLE
            reason = (
                f"t={t} exceeds tree width {tree.width}, the most edges at one path"
                f" ({tree.path[0]} to {tree.path[-1]}): a coloring lifted along the tree"
                f" spans at most {tree.width} colors"
            )
        else:
            status = COLORABLE
            reason = f"interval coloring of tree width {tree.width} folded mod {t}"
            folded = Coloring(t=t, colors=tuple([(c - 1) % t + 1 for c in tree.lift]))
            coloring = _reverified(g, folded, check_cyclically_interval)
    elif t > (ceiling := g.reach_ceiling).bound:
        status = NOT_COLORABLE
        reason = (
            f"t={t} exceeds reach ceiling {ceiling.bound}: every color lies within"
            f" {ceiling.radius} of the {ceiling.arc}-color arc of {ceiling.root},"
            f" so t <= {ceiling.bound}"
        )
    else:
        plan = _plan_of(g)
        outcome, placed = _search(plan, t, _symmetry_rules(plan, t), cfg, plan.gt)
        status, reason, nodes = outcome.status, outcome.reason, outcome.nodes
        if status == COLORABLE:
            coloring = _certificate(g, plan.order, t, placed, check_cyclically_interval)
    return SearchOutcome(status, coloring, reason, nodes, time.perf_counter() - start)


def certificate_prefix_survives(g: Graph, cert: Coloring) -> bool:
    """Replay a complete coloring along the solver's edge order and report
    whether every prefix clears the search's own prunes.

    A sound pruner never cuts a prefix of a valid coloring, so this must
    return True for every certificate that passes the checker (the tests
    lean on exactly that). The replay is the search itself, allowed only the
    certificate's color at each position, so prunes (i)-(iii) are judged by
    the same masks; the symmetry-breaking restriction is a search-space
    choice, not a prune.
    """
    if not g.connected:  # the edge order covers one component only
        raise InputError("certificate_prefix_survives accepts connected graphs only")
    require_match(g, cert)
    plan = _plan_of(g)
    allowed = [1 << (cert.colors[e] - 1) for e in plan.order]
    outcome, _ = _search(plan, cert.t, allowed, SolverConfig())
    return outcome.status == COLORABLE


# --- independent ground truth -------------------------------------------------

def _vector_sweep(
    g: Graph, t: int, count_all: bool
) -> tuple[int, Optional[Coloring]]:
    """Enumerate all t^|E| assignments in lex order with numpy, a block at a time.

    The suffix is the last k edges, k the largest with t^k <= _CHUNK, and the
    prefix the first split = |E| - k. The assignments of each are laid out
    once per call as a digit table in lex order: t^k suffix rows and t^split
    prefixes. Unless split is 0, t^(k+1) > _CHUNK, so the prefix table has at
    most ENUMERATION_CAP * t / _CHUNK rows, about 1.5 * 10^5 with the default
    chunk. A vertex has a prefix part, the OR of its prefix edges' color bits
    with one entry per prefix, and a suffix part, the same over its suffix
    edges with one entry per row. Its palette is the OR of the two, judged by
    one lookup in ok[deg], which is True exactly at the arcs of deg colors:
    deg distinct colors (properness) forming an arc. The cover, all edges at
    once, is judged the same way by a table True only where every color is
    used. One with edges in a single part filters that part's table once;
    every other one is judged on a grid of kept prefixes x kept rows, taken
    a block of prefixes at a time so that no block holds more than
    max(_CHUNK, kept rows) cells. Prefixes and rows both increase, so the
    first true cell of the first block that has one is the lex-first valid
    assignment.

    Returns (count, first certificate). With count_all False, stops at the
    first valid assignment.
    """
    import numpy as np  # deferred: ~150 ms and ~14 MB, and only the oracle needs it

    n_edges = len(g.edges)
    if t > _MAX_VECTOR_T:
        raise BudgetError(
            f"vector sweep tabulates 2^t palette shapes; t={t} exceeds {_MAX_VECTOR_T}"
        )
    k = 0
    while k < n_edges and t ** (k + 1) <= _CHUNK:
        k += 1
    split = n_edges - k
    # table 0 holds the prefixes, table 1 the suffix rows; row r of each holds
    # the digits (0-based colors) of r written in base t
    digits = [np.indices((t,) * n, dtype=np.int8).reshape(n, t**n).T for n in (split, k)]
    bits = [np.int32(1) << d.astype(np.int32) for d in digits]
    columns = [*bits[0].T, *bits[1].T]  # edge e's color bit in its part's table

    ok: dict[int, np.ndarray] = {}
    for deg in {len(incident) for incident in g.incidence}:
        ok[deg] = np.zeros(1 << t, dtype=bool)
        if deg <= t:  # more edges than colors cannot be proper
            ok[deg][arc_masks(deg, t)] = True
    cover = np.zeros(1 << t, dtype=bool)
    cover[-1] = True  # every color used
    keep = [np.ones(len(d), dtype=bool) for d in digits]
    mixed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for ok_d, edges in [(cover, range(n_edges)), *((ok[len(inc)], inc) for inc in g.incidence)]:
        parts = [0, 0]  # the first |= of a part makes it an array of its own
        for e in edges:
            parts[e >= split] |= columns[e]
        sides = {e >= split for e in edges}
        if len(sides) == 2:
            mixed.append((ok_d, *parts))
        else:
            side = True in sides
            keep[side] &= ok_d[parts[side]]
    prefixes, rows = (np.flatnonzero(kept) for kept in keep)
    mixed = [(ok_d, head[prefixes, None], tail[rows]) for ok_d, head, tail in mixed]

    count = 0
    first: Optional[Coloring] = None
    step = max(1, _CHUNK // max(1, len(rows)))
    for lo in range(0, len(prefixes), step):
        valid = np.ones((len(prefixes[lo : lo + step]), len(rows)), dtype=bool)
        for ok_d, head, tail in mixed:
            valid &= ok_d[head[lo : lo + step] | tail]
        block_count = int(np.count_nonzero(valid))
        if block_count and first is None:
            i, j = divmod(int(np.argmax(valid)), len(rows))
            cells = (*digits[0][prefixes[lo + i]], *digits[1][rows[j]])
            first = Coloring(t=t, colors=tuple(int(d) + 1 for d in cells))
            if not count_all:
                return 1, first
        count += block_count
    return count, first


def _literal_sweep(g: Graph, t: int, count_all: bool) -> tuple[int, Optional[Coloring]]:
    count = 0
    first: Optional[Coloring] = None
    for combo in itertools.product(range(1, t + 1), repeat=len(g.edges)):
        cert = Coloring(t=t, colors=combo)
        if check_cyclically_interval(g, cert).ok:
            if first is None:
                first = cert
                if not count_all:
                    return 1, first
            count += 1
    return count, first


def _sweep(g: Graph, t: int, method: str, count_all: bool) -> tuple[int, Optional[Coloring]]:
    require_positive_int("t", t)
    if not g.connected:
        raise InputError("brute force accepts connected graphs only")
    if method not in ("literal", "vector"):
        raise UsageError(f"unknown method {method!r}")
    space = t ** len(g.edges)
    if space > ENUMERATION_CAP:
        raise BudgetError(
            f"{t}^{len(g.edges)} = {space} assignments exceed the cap {ENUMERATION_CAP}"
        )
    if method == "literal":
        return _literal_sweep(g, t, count_all)
    return _vector_sweep(g, t, count_all)


def brute_force_decide(g: Graph, t: int, method: str = "vector") -> SearchOutcome:
    """Ground-truth decision by exhaustive enumeration of all t^|E| assignments.

    Shares no reasoning with `decide`. The vector route judges every vertex
    palette of every assignment by a lookup in a table whose only true
    entries are the `arc_masks` of its degree, not by `cyclic_span`; it
    refuses t > 20 with a BudgetError. The literal route judges each
    assignment with check_cyclically_interval. The certificate, when one
    exists, is the lexicographically first valid assignment.
    """
    count, first = _sweep(g, t, method, count_all=False)
    if count:
        return SearchOutcome(COLORABLE, coloring=first, reason="enumeration")
    return SearchOutcome(NOT_COLORABLE, reason="exhaustive enumeration")


def count_colorings(g: Graph, t: int, method: str = "vector") -> int:
    """Number of valid colorings among all t^|E| assignments."""
    count, _ = _sweep(g, t, method, count_all=True)
    return count


# --- spectra ------------------------------------------------------------------

def _proper_search(g: Graph) -> SearchOutcome:
    """Search a connected graph with an edge for a proper coloring in Δ colors.

    This is `_search` at t = Δ with every degree raised to Δ. An arc of Δ
    colors is then the whole cycle, so every palette fits one: no window
    narrows and prune (ii) never cuts. The Δ edges at a max-degree vertex
    use every color, and they lead the order, so prune (iii) never cuts
    either. Properness is all that is left. The certificate is re-verified
    by `check_proper`.
    """
    delta = g.max_degree
    plan = _plan_of(g)
    allowed = [(1 << delta) - 1] * len(plan.order)
    allowed[0] = 1  # color rotation: the first edge may as well take color 1
    saturated = replace(plan, degree=(delta,) * len(plan.degree))
    outcome, placed = _search(saturated, delta, allowed, SolverConfig())
    if outcome.status != COLORABLE:
        return outcome
    return replace(outcome, coloring=_certificate(g, plan.order, delta, placed, check_proper))


def chromatic_index(g: Graph) -> int:
    """Exact minimum number of colors in a proper edge coloring.

    Bipartite graphs, trees among them, need exactly max-degree colors;
    everything else needs max-degree or one more (Vizing), decided by an
    exact search for a proper coloring in max-degree colors
    (`_proper_search`). Connected graphs with at least one edge only. The
    search path refuses non-bipartite graphs with more than 64 edges.
    """
    if not g.edges:
        raise InputError("chromatic index needs at least one edge")
    if not g.connected:
        raise InputError("chromatic index requires a connected graph")
    delta = g.max_degree
    # a tree is bipartite, and spectrum has its width already
    if g.tree_width is not None or isinstance(bipartition(g), Bipartition):
        return delta
    if len(g.edges) > _CHROMATIC_INDEX_EDGE_LIMIT:
        raise BudgetError(
            f"exact chromatic index search limited to {_CHROMATIC_INDEX_EDGE_LIMIT} edges; "
            f"graph has {len(g.edges)}"
        )
    return delta if _proper_search(g).status == COLORABLE else delta + 1


def spectrum(
    g: Graph,
    t_min: Optional[int] = None,
    t_max: Optional[int] = None,
    cfg: Optional[SolverConfig] = None,
    jobs: int = 1,
    graph_id: str = "",
) -> SpectrumResult:
    """Decide every t in a range, defaulting to the full meaningful window
    [chromatic index, |E|]. Where the chromatic index is out of reach (a
    non-bipartite graph past its exact-search limit) the window starts at
    the max degree instead, and `decide` settles the low end itself: below
    the chromatic index it finds no proper coloring. Ranges outside the
    window are clamped with a warning; a range left empty is a UsageError.
    Each t is decided independently, against one tree width (on a tree) or
    reach ceiling and one search plan (on any other graph; the plan only
    if some t searches) computed before any t is decided; jobs > 1 fans
    them out to at most min(jobs, number of t, CPU count)
    worker processes. t_min, t_max and jobs other than a positive integer
    are a UsageError.
    """
    cfg = cfg or SolverConfig()
    require_positive_int("jobs", jobs)
    for name, value in (("t_min", t_min), ("t_max", t_max)):
        if value is not None:
            require_positive_int(name, value)
    try:
        lo_bound = chromatic_index(g)
    except BudgetError:
        lo_bound = g.max_degree
    hi_bound = len(g.edges)
    lo = lo_bound if t_min is None else t_min
    hi = hi_bound if t_max is None else t_max
    if lo < lo_bound or hi > hi_bound:
        warnings.warn(
            f"spectrum range [{lo}, {hi}] clamped to [{max(lo, lo_bound)}, {min(hi, hi_bound)}]"
            f" (meaningful window is [{lo_bound}, {hi_bound}])",
            stacklevel=2,
        )
        lo, hi = max(lo, lo_bound), min(hi, hi_bound)
    if lo > hi:
        raise UsageError(
            f"spectrum range [{lo}, {hi}] is empty"
            f" (meaningful window is [{lo_bound}, {hi_bound}])"
        )
    ts = list(range(lo, hi + 1))
    # computed once here, so every pickled copy sent to a worker carries
    # them: no t of a tree reads the reach ceiling, and the plan is built
    # only if some t searches, that is, if t_min is within the ceiling
    if g.tree_width is None and lo <= g.reach_ceiling.bound:
        _plan_of(g)
    tasks = (itertools.repeat(g), ts, itertools.repeat(cfg))
    # the pool forks all its workers up front, so start no more than can run
    workers = min(jobs, len(ts), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: ~30 ms of multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(decide, *tasks))
    else:
        outs = list(map(decide, *tasks))
    return SpectrumResult(graph_id=graph_id, t_min=lo, t_max=hi, outcomes=dict(zip(ts, outs)))
