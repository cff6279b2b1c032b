"""The benchmark's inputs: which graphs each workload runs and how the
workload seed picks among them. Shared by the runner and by the script that
freezes the reference answers, so the two can never disagree on a graph."""

from __future__ import annotations

import random

# One node budget for every search decision of both spectrum workloads.
# gm(3) needs 6,600 nodes at t=13 and exhausts any budget below ~1.9M at
# t >= 14, so this budget decides exactly 10 of gm's 24 decisions.
NODE_BUDGET = 10_000

GM_SPECTRUM = ("gm-2", "gm-3")

# Random trees, grouped so that every tree of a group has the same size, max
# degree and number of decisions the budgeted search settles (5 of 16, 5 of
# 21 and 3 of 23). The workload seed picks one tree from each group: inputs
# change with the seed while the amount of search work stays comparable.
TREE_GROUPS = (
    (20, (1, 5, 6, 9)),
    (24, (4, 15, 32)),
    (28, (1, 7, 11, 27)),
)

# Small graphs the brute-force oracle can sweep at every t of their window.
# The 5-cycle and the diamond are not bipartite, so chromatic_index searches.
SMALL_GRAPHS = ("cycle-5", "diamond", "cycle-4", "path-3", "star-3", "tree-6-0")

GM_ORACLE = "gm-2"
CNF_CASES = (("gm-3", tuple(range(9, 28))), ("gm-4", (16, 32, 64)))
AUDIT_RANGE = (2, 1000)

# Corrupted certificate copies the checker must reject, per pass.
CORRUPTIONS_PER_KIND = 8


def tree_key(n: int, seed: int) -> str:
    return f"tree-{n}-{seed}"


def tree_keys() -> list[str]:
    """Every tree of every group: the set the references cover."""
    return [tree_key(n, s) for n, seeds in TREE_GROUPS for s in seeds]


def tree_picks(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [tree_key(n, seeds[rng.randrange(len(seeds))]) for n, seeds in TREE_GROUPS]


def build(key: str, cy):
    """The graph named by `key`, built with the cycolor module `cy`."""
    fam = cy.families
    kind, _, rest = key.partition("-")
    if kind == "gm":
        return fam.gen_gm(int(rest))
    if kind == "tree":
        n, seed = rest.split("-")
        return fam.gen_random_tree(int(n), int(seed))
    if kind == "cycle":
        return fam.gen_cycle(int(rest))
    if kind == "path":
        return fam.gen_path(int(rest))
    if kind == "star":
        return fam.gen_star(int(rest))
    if key == "diamond":
        return cy.build_graph(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]
        )
    raise KeyError(key)
