"""Acceptance gate: the eight headline guarantees, each timed and reported.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Every expected value here was produced by an independent route
(exhaustive enumeration, the brute-force oracle, or direct evaluation of
the closed-form arithmetic) before being frozen into an assertion.
"""

from __future__ import annotations

import itertools
import time

from cycolor.audit import STEP_BOUNDS, AuditParams, audit, audit_range
from cycolor.cnf import encode
from cycolor.coloring import Coloring, check_cyclically_interval
from cycolor.families import (
    gen_complete_bipartite,
    gen_cycle,
    gen_gm,
    gen_path,
    gen_random_tree,
    gen_star,
)
from cycolor.graphs import Bipartition, bipartition
from cycolor.intervals import (
    ColorSet,
    CyclicIntervalSpec,
    cyclic_span,
    intcyc_contains,
    is_cyclic_interval,
)
from cycolor.solver import (
    COLORABLE,
    NOT_COLORABLE,
    brute_force_decide,
    chromatic_index,
    decide,
    spectrum,
)


class _criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, num: int, name: str, budget: float | None = None) -> None:
        self.num, self.name, self.budget = num, name, budget
        self.detail = ""

    def __enter__(self) -> "_criterion":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.start
        over = self.budget is not None and elapsed >= self.budget
        ok = exc_type is None and not over
        budget_txt = f", budget {self.budget:g}s" if self.budget is not None else ""
        tail = f" — {self.detail}" if self.detail else ""
        print(
            f"[criterion {self.num}] {self.name}: "
            f"{'PASS' if ok else 'FAIL'}{tail} ({elapsed:.2f}s{budget_txt})"
        )
        if over and exc_type is None:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_family_structure():
    with _criterion(1, "family-structure", budget=1.0) as c:
        for m in range(2, 13):
            g = gen_gm(m)
            assert len(g.vertices) == (3 * m * m - m) // 2 + 1
            assert len(g.edges) == m**3
            assert g.max_degree == m * m
            assert isinstance(bipartition(g), Bipartition)
            assert chromatic_index(g) == m * m
        c.detail = "m in [2, 12]: vertex/edge counts, max degree, bipartite, chromatic index"


def test_criterion_2_interval_definitions_consistent():
    with _criterion(2, "interval-definitions", budget=5.0) as c:
        checked = 0
        for t in range(1, 11):
            full = set(range(1, t + 1))
            for i1 in range(1, t + 1):
                for i2 in range(1, t + 1):
                    lo, hi = min(i1, i2), max(i1, i2)
                    closed1 = set(range(lo, hi + 1))
                    open1 = closed1 - {i1, i2}
                    open2 = full - closed1
                    closed2 = full - open1
                    want = {
                        (1, True): closed1,
                        (1, False): open1,
                        (2, False): open2,
                        (2, True): closed2,
                    }
                    for (j0, closed), expected in want.items():
                        spec = CyclicIntervalSpec(j0=j0, i1=i1, i2=i2, t=t, closed=closed)
                        got = {k for k in range(0, t + 2) if intcyc_contains(spec, k)}
                        assert got == expected
                        checked += 1
                    assert closed2 == set(range(1, lo + 1)) | set(range(hi, t + 1))
                    assert open2 | closed1 == full and not (open2 & closed1)
        c.detail = f"{checked} membership sweeps across t <= 10, zero mismatches"


def test_criterion_3_arc_predicate_vs_reachability():
    with _criterion(3, "arc-predicate", budget=30.0) as c:
        subsets = 0
        for t in range(1, 11):
            reachable = set()
            for i1 in range(1, t + 1):
                for i2 in range(1, t + 1):
                    for j0 in (1, 2):
                        for closed in (True, False):
                            spec = CyclicIntervalSpec(j0=j0, i1=i1, i2=i2, t=t, closed=closed)
                            members = frozenset(
                                k for k in range(1, t + 1) if intcyc_contains(spec, k)
                            )
                            if members:
                                reachable.add(members)
            for mask in range(1, 1 << t):
                members = frozenset(i + 1 for i in range(t) if mask >> i & 1)
                q = ColorSet.of(t, members)
                assert is_cyclic_interval(q) == (members in reachable)
                assert is_cyclic_interval(q) == (cyclic_span(q) == len(members))
                subsets += 1
        c.detail = f"{subsets} nonempty subsets across t <= 10, zero disagreements"


def _arc_masks(t: int) -> list[int]:
    masks = set()
    for length in range(1, t + 1):
        for start in range(t):
            mask = 0
            for i in range(length):
                mask |= 1 << ((start + i) % t)
            masks.add(mask)
    return sorted(masks)


def test_criterion_4_chained_arc_union():
    with _criterion(4, "chained-arc-union", budget=60.0) as c:
        total = 0
        within_size_bound = 0
        for t in range(2, 10):
            arcs = _arc_masks(t)
            arc_set = set(arcs)
            for a in arcs:
                b_choices = [b for b in arcs if a & b]
                for b in b_choices:
                    for cm in arcs:
                        if not (b & cm):
                            continue
                        union = a | b | cm
                        assert union in arc_set, (t, a, b, cm)
                        total += 1
                        if bin(union).count("1") < t:
                            within_size_bound += 1
        c.detail = (
            f"{total} chained triples across t <= 9 all union to arcs "
            f"({within_size_bound} meet the strict size bound)"
        )


def _oracle_corpus():
    graphs = [gen_path(n) for n in range(1, 6)]
    graphs += [gen_cycle(n) for n in (3, 4, 5)]
    graphs += [gen_star(3), gen_star(4), gen_complete_bipartite(2, 2)]
    sizes = itertools.cycle([4, 5, 6, 7])
    graphs += [gen_random_tree(next(sizes), seed) for seed in range(10)]
    graphs.append(gen_gm(2))
    return graphs


def test_criterion_5_solver_vs_oracle():
    with _criterion(5, "solver-vs-oracle", budget=600.0) as c:
        pairs = 0
        for g in _oracle_corpus():
            for t in range(1, len(g.edges) + 1):
                fast = decide(g, t)
                slow = brute_force_decide(g, t)
                assert fast.status == slow.status, (g.vertices, t, fast.status, slow.status)
                assert fast.status in (COLORABLE, NOT_COLORABLE)
                if fast.status == COLORABLE:
                    assert check_cyclically_interval(g, fast.coloring).ok
                    assert check_cyclically_interval(g, slow.coloring).ok
                pairs += 1
        c.detail = f"zero disagreements over {pairs} (graph, t) decisions"


def test_criterion_6_audit_boundary():
    with _criterion(6, "audit-boundary", budget=5.0) as c:
        for m in range(8, 1001):
            for k0 in (0, m**3 - m**2):
                assert audit(AuditParams(m=m, k0=k0)).passed, m
        for m in range(2, 8):
            for k0 in (0, m**3 - m**2):
                rep = audit(AuditParams(m=m, k0=k0))
                assert not rep.passed
                assert rep.failing_step == STEP_BOUNDS
        summary = audit_range(8, 12)  # exhaustive k0 sweep regime
        assert summary.all_passed
        c.detail = (
            "m in [8, 1000] passes at both k0 endpoints; m in [2, 7] fails at "
            "the mid-color lower bound; full k0 sweep for m in [8, 12]"
        )


def test_criterion_7_certificate_soundness():
    with _criterion(7, "certificate-soundness") as c:
        cases = [
            (gen_path(3), 2),
            (gen_path(3), 3),
            (gen_cycle(4), 2),
            (gen_cycle(4), 3),
            (gen_cycle(4), 4),
            (gen_cycle(5), 3),
            (gen_cycle(5), 5),
            (gen_star(4), 4),
            (gen_complete_bipartite(2, 2), 2),
            (gen_complete_bipartite(2, 2), 3),
            (gen_complete_bipartite(2, 2), 4),
            (gen_gm(2), 4),
            (gen_gm(2), 5),
            (gen_gm(2), 6),
        ]
        certified = 0
        for g, t in cases:
            out = decide(g, t)
            assert out.status == COLORABLE, (g.vertices, t)
            cert = out.coloring
            assert check_cyclically_interval(g, cert).ok
            rotated = cert
            for _ in range(t):
                rotated = Coloring(t, tuple((x % t) + 1 for x in rotated.colors))
                assert check_cyclically_interval(g, rotated).ok
            enc = encode(g, t)
            model = enc.model_from_coloring(cert)
            for clause in enc.clauses:
                assert any((lit > 0) == (abs(lit) in model) for lit in clause)
            decoded = enc.decode_model(model, verify=False)
            assert decoded == cert
            assert check_cyclically_interval(g, decoded).ok
            certified += 1
        c.detail = (
            f"{certified} searched certificates re-verified, every rotation "
            f"re-verified, CNF models decode back to checked colorings"
        )


def test_criterion_8_tree_and_cycle_sanity():
    with _criterion(8, "tree-cycle-sanity", budget=300.0) as c:
        specs = [(13, s) for s in range(10)] + [(9, s) for s in range(5)] + [
            (12, s) for s in range(5)
        ]
        for n, seed in specs:
            g = gen_random_tree(n, seed)
            assert len(g.edges) <= 12
            res = spectrum(g, graph_id=f"tree-{n}-{seed}")
            delta = g.max_degree
            assert res.t_min == delta and res.t_max == len(g.edges)
            colorable = [t for t, o in res.outcomes.items() if o.status == COLORABLE]
            assert colorable, (n, seed)
            for t in colorable:
                assert check_cyclically_interval(g, res.outcomes[t].coloring).ok

        c4 = decide(gen_cycle(4), 2)
        assert c4.status == COLORABLE
        assert check_cyclically_interval(gen_cycle(4), c4.coloring).ok
        c5 = decide(gen_cycle(5), 3)
        assert c5.status == COLORABLE
        assert check_cyclically_interval(gen_cycle(5), c5.coloring).ok
        c.detail = (
            "20 seeded trees (<= 12 edges) have nonempty spectra with verified "
            "certificates; the 4-cycle colors at t=2 and the 5-cycle at t=3"
        )
