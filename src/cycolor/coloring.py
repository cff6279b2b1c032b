"""Edge-coloring certificates and the two checkers.

A Coloring is a flat tuple of colors over a graph's edge indices plus the
palette size t. `check_proper` demands that adjacent edges differ and that
every color in [1, t] actually appears. `check_cyclically_interval`
additionally demands that every vertex's palette — the set of colors on
its incident edges — be a plain interval of [1, t] or have a plain-interval
complement. Verdicts enumerate every violation so handmade certificates
can be repaired in one pass.

The palette condition here is written out directly from its two-clause
form on purpose, independently of intervals.is_cyclic_interval, which is
the span test of intervals.cyclic_span; the test suite asserts the two
formulations agree. Only that test is the checker's own: a failure's
text lists a palette's colors with intervals.mask_colors.

Both checkers are one pass over the graph's per-vertex incidence, with each
palette held as a bitmask; the graph's connectivity is computed once per
graph and kept. Failure objects are built only for a coloring that fails.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import BudgetError, InputError, UsageError
from .graphs import Graph, _read_json, require_match
from .intervals import ColorSet, mask_colors

KIND_NOT_PROPER = "not-proper"
KIND_COLOR_UNUSED = "color-unused"
KIND_BAD_PALETTE = "bad-palette"

# A verdict lists every unused color, and at least t - |E| colors go unused,
# so the checkers refuse a coloring whose t exceeds |E| by more than this.
MAX_UNUSED_COLORS = 10**5


@dataclass(frozen=True)
class Coloring:
    t: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        t, colors = self.t, self.colors
        # Fast path: a plain int t and a nonempty tuple of plain ints in
        # [1, t], which the checks below accept. Anything else takes them,
        # and they accept or refuse it with their message as before.
        if type(t) is int and type(colors) is tuple and set(map(type, colors)) == {int}:
            ordered = sorted(colors)
            if 1 <= ordered[0] and ordered[-1] <= t:
                return
        if not isinstance(self.t, int) or isinstance(self.t, bool) or self.t < 1:
            raise InputError(f"t must be a positive integer, got {self.t!r}")
        for idx, c in enumerate(self.colors):
            if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= self.t:
                raise InputError(f"color {c!r} at edge {idx} outside [1, {self.t}]")
        # Last, so colors the loop refuses keep its message. A list would be
        # kept unhashable and unequal to the same colors as a tuple, and a
        # generator would be kept consumed.
        if not isinstance(self.colors, tuple):
            raise InputError(f"colors must be a tuple, got {type(self.colors).__name__}")


@dataclass(frozen=True)
class Failure:
    kind: str
    location: str
    detail: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failures: tuple[Failure, ...]


def _require_connected(g: Graph) -> None:
    if not g.connected:
        raise InputError("checkers accept connected graphs only")


def palette(g: Graph, c: Coloring, v: str) -> ColorSet:
    """The set of colors appearing on edges incident to v."""
    require_match(g, c)
    if v not in g.adjacency:
        raise UsageError(f"no vertex {v!r}")
    return ColorSet.of(c.t, (c.colors[idx] for _, idx in g.adjacency[v]))


def check_proper(g: Graph, c: Coloring) -> Verdict:
    """Adjacent edges must differ and every color in [1, t] must be used.

    Failure order is deterministic: per-vertex clashes in graph vertex
    order (colors ascending within a vertex), then unused colors ascending.
    """
    return _scan(g, c, palettes=False)


def check_cyclically_interval(g: Graph, c: Coloring) -> Verdict:
    """check_proper plus the per-vertex palette condition.

    Palette failures follow the check_proper failures, in graph vertex order.
    """
    return _scan(g, c, palettes=True)


_PASS = Verdict(ok=True, failures=())


def _scan(g: Graph, c: Coloring, palettes: bool) -> Verdict:
    """Both checkers in one pass over the vertices.

    Each vertex palette is a bitmask, bit c for color c. The vertex is proper
    when its mask holds one color per incident edge, and every color is used
    when the union of the masks is full. Failures are spelled out only when
    something fails. A t more than MAX_UNUSED_COLORS past the edge count is
    a BudgetError, raised before any mask is built.
    """
    _require_connected(g)
    require_match(g, c)
    if c.t - len(g.edges) > MAX_UNUSED_COLORS:
        raise BudgetError(
            f"t={c.t} leaves at least {c.t - len(g.edges)} of its colors unused on"
            f" {len(g.edges)} edges; a verdict lists at most {MAX_UNUSED_COLORS}"
        )
    colors = c.colors
    full = (2 << c.t) - 2  # bits 1..t
    used = 0
    clashes: list[tuple[str, tuple[int, ...]]] = []
    bad: list[tuple[str, int]] = []
    for v, incident in zip(g.vertices, g.incidence):
        mask = 0
        for idx in incident:
            mask |= 1 << colors[idx]
        used |= mask
        if mask.bit_count() != len(incident):
            clashes.append((v, incident))
        # Condition (a): the palette is a run of consecutive colors; or
        # (b): its complement in [1, t] is, or is empty, since the full
        # palette is itself a run. A mask in bits 1..t that is no run is
        # not full, so its complement is not empty. An edgeless vertex's
        # empty palette has the full complement.
        if palettes and mask:
            run = mask // (mask & -mask)  # the lowest color moved down to bit 0
            if run & (run + 1):
                comp = full ^ mask
                run = comp // (comp & -comp)
                if run & (run + 1):
                    bad.append((v, mask))
    if not clashes and not bad and used == full:
        return _PASS

    failures: list[Failure] = []
    for v, incident in clashes:
        by_color: dict[int, list[int]] = {}
        for idx in incident:
            by_color.setdefault(colors[idx], []).append(idx)
        for color in sorted(by_color):
            if len(by_color[color]) > 1:
                failures.append(
                    Failure(
                        kind=KIND_NOT_PROPER,
                        location=v,
                        detail=f"color {color} repeats on edges {by_color[color]}",
                    )
                )
    for color in mask_colors((full ^ used) >> 1):
        failures.append(
            Failure(
                kind=KIND_COLOR_UNUSED,
                location=str(color),
                detail=f"color {color} appears on no edge",
            )
        )
    for v, mask in bad:
        failures.append(
            Failure(
                kind=KIND_BAD_PALETTE,
                location=v,
                detail=(
                    f"palette {mask_colors(mask >> 1)} is not an interval of [1, {c.t}] "
                    f"and neither is its complement {mask_colors((full ^ mask) >> 1)}"
                ),
            )
        )
    return Verdict(ok=False, failures=tuple(failures))


# --- interchange -------------------------------------------------------------

def to_dict(c: Coloring) -> dict:
    return {"t": c.t, "colors": list(c.colors)}


def from_dict(data: dict) -> Coloring:
    if not isinstance(data, dict) or "t" not in data or "colors" not in data:
        raise InputError("coloring object needs 't' and 'colors' keys")
    t = data["t"]
    colors = data["colors"]
    if not isinstance(colors, list):
        raise InputError("'colors' must be a list of integers")
    return Coloring(t=t, colors=tuple(colors))


def to_json(c: Coloring) -> str:
    return json.dumps(to_dict(c)) + "\n"


def from_json(text: str) -> Coloring:
    return from_dict(_read_json(text))


def verdict_to_dict(v: Verdict) -> dict:
    """The verdict as a dict; its `failures` is a tuple of dicts."""
    return asdict(v)
