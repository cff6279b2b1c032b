"""Freeze the benchmark's reference answers in references.json.

Every answer comes from a route that shares no code with the backtracking
search (`cycolor.solver.decide`):

* the brute-force oracle (`count_colorings` / `brute_force_decide`) for gm(2)
  and the small graphs, with the vector sweep and the literal sweep made to
  agree wherever the literal sweep is affordable;
* scipy's HiGHS (`scipy.optimize.milp`) on `cnf.encode`, one 0-1 row per
  clause, for gm(3) and the trees, and as a second opinion on gm(2) and the
  small graphs. Its models are decoded with `decode_model(verify=True)`, so
  every colorable answer carries a certificate the checker accepted;
* the window [chromatic index, |E|] from the graph itself: König's theorem
  (Δ colors) when the graph's own BFS finds it bipartite, otherwise a
  brute-force proper coloring attempt with Δ colors.

Every HiGHS answer records in its route the time limit per t it ran under.
The oracle's graphs, gm(3), the 20-vertex trees and tree-24-4 were frozen
under 900 s; the other trees under 60 s, so some of their large t stay
"unknown". The script only adds graphs that are missing from the file and
never replaces a frozen answer; delete a graph's entry to recompute it under
the limits below. Run it from the root of the checkout:

    python3 bench/make_references.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import checkout

REFERENCES = Path(__file__).resolve().parent / "references.json"
# HiGHS time limits per t. gm(3) must be decided (up to about 45 s per t).
# A tree's infeasible t can take minutes and no budgeted search reaches it
# yet, so a tree added now gets 60 s and its answer may stay "unknown",
# which the benchmark counts as unverified.
HIGHS_LIMIT_S = 900.0
TREE_HIGHS_LIMIT_S = 60.0
# Largest t^|E| the literal sweep (about 80 µs per assignment) also runs.
LITERAL_CHECK_LIMIT = 70_000


def _degrees(g) -> dict[str, int]:
    return {v: len(g.adjacency[v]) for v in g.vertices}


def _is_bipartite(g) -> bool:
    side = {g.vertices[0]: 0}
    stack = [g.vertices[0]]
    while stack:
        u = stack.pop()
        for w, _ in g.adjacency[u]:
            if w not in side:
                side[w] = 1 - side[u]
                stack.append(w)
            elif side[w] == side[u]:
                return False
    return True


def _has_proper_coloring(g, k: int) -> bool:
    for colors in itertools.product(range(k), repeat=len(g.edges)):
        if all(
            len({colors[i] for _, i in g.adjacency[v]}) == len(g.adjacency[v])
            for v in g.vertices
        ):
            return True
    return False


def window(g) -> tuple[list[int], str]:
    delta = max(_degrees(g).values())
    if _is_bipartite(g):
        return [delta, len(g.edges)], "König: bipartite, chromatic index = max degree"
    if _has_proper_coloring(g, delta):
        return [delta, len(g.edges)], "brute-force proper coloring with max-degree colors"
    return [delta + 1, len(g.edges)], "no proper coloring with max-degree colors (brute force)"


def highs_decide(cy, g, t: int, time_limit: float):
    """(status, coloring or None, seconds) from HiGHS on the CNF of (g, t)."""
    import numpy as np
    from scipy import optimize, sparse

    enc = cy.cnf.encode(g, t)
    rows, cols, vals, lower = [], [], [], []
    for r, clause in enumerate(enc.clauses):
        negated = 0
        for lit in clause:
            rows.append(r)
            cols.append(abs(lit) - 1)
            vals.append(1.0 if lit > 0 else -1.0)
            negated += lit < 0
        lower.append(1.0 - negated)  # Σ x_pos + Σ (1 - x_neg) >= 1
    a = sparse.csr_array((vals, (rows, cols)), shape=(len(enc.clauses), enc.num_vars))
    start = time.perf_counter()
    res = optimize.milp(
        np.zeros(enc.num_vars),
        constraints=optimize.LinearConstraint(a, np.array(lower), np.inf),
        integrality=np.ones(enc.num_vars),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    seconds = round(time.perf_counter() - start, 2)
    if res.status == 0:
        true_vars = {i + 1 for i, x in enumerate(res.x) if x > 0.5}
        return "colorable", enc.decode_model(true_vars, verify=True), seconds
    if res.status == 2:
        return "not-colorable", None, seconds
    return "unknown", None, seconds


def oracle_answer(cy, g, t: int) -> dict:
    solver = cy.solver
    count = solver.count_colorings(g, t, method="vector")
    routes = ["oracle vector sweep"]
    if t ** len(g.edges) <= LITERAL_CHECK_LIMIT:
        literal = solver.count_colorings(g, t, method="literal")
        if literal != count:
            raise SystemExit(f"oracle sweeps disagree at t={t}: {literal} vs {count}")
        routes.append("oracle literal sweep")
    answer = {"status": "colorable" if count else "not-colorable", "count": count, "routes": routes}
    if count:
        first = solver.brute_force_decide(g, t, method="vector").coloring
        answer["coloring"] = list(first.colors)
    return answer


def graph_references(cy, key: str, use_oracle: bool, limit: float) -> dict:
    import inputs

    g = inputs.build(key, cy)
    (lo, hi), route = window(g)
    highs = f"HiGHS milp on cnf.encode, {limit:.0f} s limit per t"
    answers = {}
    for t in range(lo, hi + 1):
        status, cert, seconds = highs_decide(cy, g, t, limit)
        if use_oracle:
            answer = oracle_answer(cy, g, t)
            if status != "unknown" and status != answer["status"]:
                raise SystemExit(f"{key} t={t}: HiGHS says {status}, oracle {answer['status']}")
            answer["routes"].append(highs)
        elif status == "unknown":
            answer = {"status": "unknown", "routes": [f"HiGHS hit its {limit:.0f} s limit per t"]}
        else:
            answer = {"status": status, "routes": [highs]}
            if cert is not None:
                answer["coloring"] = list(cert.colors)
        answer["highs_s"] = seconds
        answers[str(t)] = answer
        print(f"{key} t={t}: {answer['status']} (HiGHS {seconds} s)", file=sys.stderr, flush=True)
    return {"edges": len(g.edges), "window": [lo, hi], "window_route": route, "t": answers}


def main() -> int:
    cy = checkout.import_cycolor()
    import inputs

    data = {"graphs": {}}
    if REFERENCES.exists():
        data = json.loads(REFERENCES.read_text())
    oracle_keys = [inputs.GM_ORACLE, *inputs.SMALL_GRAPHS]
    keys = oracle_keys + inputs.tree_keys() + ["gm-3"]
    for key in keys:
        if key in data["graphs"]:
            continue
        limit = TREE_HIGHS_LIMIT_S if key.startswith("tree") else HIGHS_LIMIT_S
        data["graphs"][key] = graph_references(cy, key, key in oracle_keys, limit)
        data["about"] = __doc__.split("\n\n")[1].replace("\n", " ")
        REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
