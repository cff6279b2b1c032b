"""The three workloads: set-up, one timed pass, and the answer checks.

A pass runs a workload's fixed list of operations once. Only the calls into
cycolor are timed; every answer is checked right after its call, outside the
timed region. The checks use reference answers frozen by make_references.py
and a copy of the checker taken before any tracing wrapper is installed, so
checking never shows up in a traced layer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs

COLORABLE = "colorable"
NOT_COLORABLE = "not-colorable"
BUDGET_EXCEEDED = "budget-exceeded"
# Exit codes of `cycolor spectrum` that are answers, not failures.
ANSWER_EXITS = (0, 1, 4)
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass
class PassResult:
    timed_s: float = 0.0
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    # span name -> (calls, seconds, self seconds), filled in traced passes
    spans: dict = field(default_factory=dict)

    def fail(self, op, reason: str) -> None:
        """Mark operation `op` failed; an operation fails at most once."""
        self.failures.setdefault(op, reason)

    def call(self, fn, *args, **kwargs):
        """Run one timed call into cycolor; return (result, seconds)."""
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self.timed_s += took
        return result, took


def is_arc(colors: set, t: int) -> bool:
    """Whether `colors` is a cyclic arc of 1..t, by trying every start."""
    k = len(colors)
    return k > 0 and any(all((s + i) % t + 1 in colors for i in range(k)) for s in range(t))


class Workload:
    """Common set-up: build the graphs and load the references."""

    name = ""

    def __init__(self, cy, keys) -> None:
        self.cy = cy
        self.verify = cy.coloring.check_cyclically_interval
        self.refs = json.loads(REFERENCES.read_text())["graphs"]
        self.graphs = {}
        self.gen_s = 0.0
        for key in keys:
            start = perf_counter()
            self.graphs[key] = inputs.build(key, cy)
            self.gen_s += perf_counter() - start

    def reference(self, key: str, t: int) -> dict:
        return self.refs.get(key, {}).get("t", {}).get(str(t), {})

    def judge(self, pr: PassResult, key: str, t: int, status: str, nodes: int, colors) -> None:
        """Check one search decision against the checker and the reference."""
        op = (key, t)
        pr.attempted += 1
        pr.fingerprint[op] = (status, nodes)
        c = pr.counts
        c["decisions"] += 1
        c["solver.nodes"] += nodes
        expected = self.reference(key, t).get("status")
        if status == BUDGET_EXCEEDED:
            c["solver.budget_nodes"] += nodes
            return
        if status not in (COLORABLE, NOT_COLORABLE):
            return pr.fail(op, f"unknown status {status!r}")
        c["decided"] += 1
        if status == COLORABLE:
            try:
                cert = self.cy.Coloring(t=t, colors=tuple(colors))
                ok = self.verify(self.graphs[key], cert).ok
            except (TypeError, self.cy.CycolorError) as exc:
                return pr.fail(op, f"malformed certificate: {exc}")
            if not ok:
                pr.fail(op, "certificate fails the checker")
            elif expected == NOT_COLORABLE:
                pr.fail(op, "colorable, but the reference says not-colorable")
        elif expected == COLORABLE:
            pr.fail(op, "not-colorable, but the reference has a coloring")
        elif expected != NOT_COLORABLE:
            c["reference.unverified"] += 1

    def check_window(self, pr: PassResult, key: str, lo: int, hi: int, ts) -> bool:
        """The spectrum covered the reference window, every t of it once."""
        want = self.refs.get(key, {}).get("window")
        if (want is not None and [lo, hi] != want) or sorted(ts) != list(range(lo, hi + 1)):
            pr.attempted += 1
            pr.fail((key, "window"), f"t {sorted(ts)} over [{lo}, {hi}], reference window {want}")
            return False
        return True


class SpectrumWorkload(Workload):
    """`cycolor spectrum` in process, one call per graph, closed loop."""

    def __init__(self, cy, workdir: Path, keys) -> None:
        super().__init__(cy, keys)
        self.workdir = workdir
        self.keys = list(keys)
        self.cli = importlib.import_module("cycolor.cli")
        self.paths = {key: workdir / f"{key}.json" for key in self.keys}
        for key in self.keys:
            self.paths[key].write_text(cy.graphs.to_json(self.graphs[key]))

    def run_pass(self) -> PassResult:
        pr = PassResult()
        for key in self.keys:
            out = self.workdir / f"{key}.out.json"
            argv = [
                "spectrum", "--graph", str(self.paths[key]), "--jobs", "1",
                "--budget-nodes", str(inputs.NODE_BUDGET), "--graph-id", key, "--out", str(out),
            ]  # fmt: skip
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    rc, _ = pr.call(self.cli.main, argv)
                payload = json.loads(out.read_text())
            except Exception as exc:  # a failed operation is counted, the run goes on
                pr.attempted += 1
                pr.fail(key, f"raised {exc!r}")
                continue
            pr.counts[f"cli.exit_{rc}"] += 1
            if rc not in ANSWER_EXITS:
                pr.attempted += 1
                pr.fail(key, f"exit code {rc}")
                continue
            ts = [int(t) for t in payload["outcomes"]]
            if not self.check_window(pr, key, payload["t_min"], payload["t_max"], ts):
                continue
            for t_text, o in payload["outcomes"].items():
                colors = (o.get("coloring") or {}).get("colors")
                self.judge(pr, key, int(t_text), o["status"], o["nodes"], colors)
            statuses = {o["status"] for o in payload["outcomes"].values()}
            documented = 0 if COLORABLE in statuses else 4 if BUDGET_EXCEEDED in statuses else 1
            if rc != documented:
                pr.attempted += 1
                pr.fail(key, f"exit code {rc}, documented {documented}")
        return pr


class GmSpectrum(SpectrumWorkload):
    name = "gm-spectrum"

    def __init__(self, cy, seed, workdir) -> None:
        super().__init__(cy, workdir, inputs.GM_SPECTRUM)


class TreeSpectrum(SpectrumWorkload):
    name = "tree-spectrum"

    def __init__(self, cy, seed, workdir) -> None:
        super().__init__(cy, workdir, inputs.tree_picks(seed))


class Crosscheck(Workload):
    """The independent routes through the library API: oracle, checker, CNF, audit."""

    name = "crosscheck"

    def __init__(self, cy, seed, workdir) -> None:
        cnf_keys = [key for key, _ in inputs.CNF_CASES]
        keys = dict.fromkeys([inputs.GM_ORACLE, *inputs.SMALL_GRAPHS, *cnf_keys, *inputs.tree_keys()])
        super().__init__(cy, keys)
        # Spaces up to this size go to the oracle's literal sweep, the rest to
        # the vector sweep; read from the package so the split follows it.
        self.small_space = getattr(cy.solver, "_LITERAL_SWEEP_LIMIT", 200_000)
        self.certificates = self._certificates()
        self.corrupted = self._corrupted(random.Random(seed))

    def _certificates(self) -> list:
        """Every frozen certificate and all of its t color rotations."""
        items = []
        for key in self.graphs:
            for t_text, answer in self.refs.get(key, {}).get("t", {}).items():
                if "coloring" not in answer:
                    continue
                t = int(t_text)
                for r in range(t):
                    colors = tuple((c - 1 + r) % t + 1 for c in answer["coloring"])
                    items.append((key, self.cy.Coloring(t=t, colors=colors), None))
        return items

    def _corrupted(self, rng: random.Random) -> list:
        """Seeded broken copies, each with the failure kind it must produce."""
        items = []
        bases = [(key, cert) for key, cert, _ in self.certificates]
        if not bases:
            return items
        for kind in ("not-proper", "color-unused", "bad-palette"):
            made = 0
            while made < inputs.CORRUPTIONS_PER_KIND:
                key, cert = bases[rng.randrange(len(bases))]
                g = self.graphs[key]
                colors = list(cert.colors)
                t = cert.t
                if kind == "color-unused":
                    items.append((key, self.cy.Coloring(t=t + 1, colors=cert.colors), kind))
                    made += 1
                    continue
                v = g.vertices[rng.randrange(len(g.vertices))]
                incident = [e for _, e in g.adjacency[v]]
                if len(incident) < 2:
                    continue
                e1, e2 = rng.sample(incident, 2)
                if kind == "not-proper":
                    colors[e2] = colors[e1]
                else:
                    palette = {colors[e] for e in incident}
                    new = [c for c in range(1, t + 1) if c not in palette]
                    new = [c for c in new if not is_arc(palette - {colors[e2]} | {c}, t)]
                    if not new:
                        continue
                    colors[e2] = new[rng.randrange(len(new))]
                items.append((key, self.cy.Coloring(t=t, colors=tuple(colors)), kind))
                made += 1
        return items

    def run_pass(self) -> PassResult:
        pr = PassResult()
        for step in (self._oracle, self._small_graphs, self._checker, self._cnf, self._audit):
            try:
                step(pr)
            except Exception as exc:  # a failed operation is counted, the run goes on
                pr.attempted += 1
                pr.fail(step.__name__, f"raised {exc!r}")
        return pr

    def _count(self, pr: PassResult, key: str, t: int) -> int:
        g = self.graphs[key]
        count, took = pr.call(self.cy.solver.count_colorings, g, t)
        space = t ** len(g.edges)
        size = "small" if space <= self.small_space else "large"
        c = pr.counts
        c["solver.oracle.calls"] += 1
        c["solver.oracle.assignments"] += space
        c[f"solver.oracle.{size}.assignments"] += space
        c[f"solver.oracle.{size}.s"] += took
        op = ("oracle", key, t)
        pr.attempted += 1
        pr.fingerprint[op] = count
        want = self.reference(key, t).get("count")
        if want is not None and count != want:
            pr.fail(op, f"{count} colorings, reference {want}")
        return count

    def _oracle(self, pr: PassResult) -> None:
        lo, hi = self.refs[inputs.GM_ORACLE]["window"]
        for t in range(lo, hi + 1):
            self._count(pr, inputs.GM_ORACLE, t)

    def _small_graphs(self, pr: PassResult) -> None:
        cfg = self.cy.SolverConfig(node_budget=inputs.NODE_BUDGET)
        for key in inputs.SMALL_GRAPHS:
            result, _ = pr.call(self.cy.solver.spectrum, self.graphs[key], cfg=cfg, graph_id=key)
            if not self.check_window(pr, key, result.t_min, result.t_max, result.outcomes):
                continue
            for t, o in sorted(result.outcomes.items()):
                colors = None if o.coloring is None else o.coloring.colors
                self.judge(pr, key, t, o.status, o.nodes, colors)
                oracle = COLORABLE if self._count(pr, key, t) else NOT_COLORABLE
                if o.status in (COLORABLE, NOT_COLORABLE) and o.status != oracle:
                    pr.fail((key, t), f"search says {o.status}, oracle {oracle}")

    def _checker(self, pr: PassResult) -> None:
        items = self.certificates + self.corrupted
        check = self.cy.coloring.check_cyclically_interval
        graphs = self.graphs
        start = perf_counter()
        verdicts = [check(graphs[key], cert) for key, cert, _ in items]
        pr.timed_s += perf_counter() - start
        for (key, cert, kind), verdict in zip(items, verdicts):
            op = ("check", key, cert.t, cert.colors)
            pr.attempted += 1
            kinds = sorted({f.kind for f in verdict.failures})
            pr.fingerprint[op] = (verdict.ok, kinds)
            if kind is None and not verdict.ok:
                pr.fail(op, f"valid certificate rejected: {kinds}")
            elif kind is not None and (verdict.ok or kind not in kinds):
                pr.fail(op, f"corruption {kind} not reported: {kinds}")

    def _cnf(self, pr: PassResult) -> None:
        c = pr.counts
        for key, ts in inputs.CNF_CASES:
            g = self.graphs[key]
            for t in ts:
                op = ("cnf", key, t)
                enc, took = pr.call(self.cy.cnf.encode, g, t)
                text, took_dimacs = pr.call(enc.to_dimacs)
                n_clauses = len(enc.clauses)
                literals = sum(map(len, enc.clauses))
                c["cnf.encode.s"] += took
                c["cnf.to_dimacs.s"] += took_dimacs
                c["cnf.vars"] += enc.num_vars
                c["cnf.clauses"] += n_clauses
                c["cnf.literals"] += literals
                c["cnf.dimacs_bytes"] += len(text)
                pr.attempted += 1
                pr.fingerprint[op] = (enc.num_vars, n_clauses, literals, len(text))
                problem = self._dimacs_problem(enc, text) or self._model_problem(enc, key, t)
                if problem:
                    pr.fail(op, problem)

    @staticmethod
    def _dimacs_problem(enc, text: str):
        lines = text.splitlines()
        if f"p cnf {enc.num_vars} {len(enc.clauses)}" not in lines:
            return "DIMACS header does not match the encoding"
        body = [line for line in lines if line[:1] not in ("c", "p")]
        if len(body) != len(enc.clauses):
            return f"DIMACS has {len(body)} clause lines for {len(enc.clauses)} clauses"
        for line, clause in ((body[0], enc.clauses[0]), (body[-1], enc.clauses[-1])):
            if [int(x) for x in line.split()] != [*clause, 0]:
                return f"DIMACS line {line!r} is not clause {clause}"
        return None

    def _model_problem(self, enc, key: str, t: int):
        """A frozen valid coloring must satisfy the CNF and decode back unchanged."""
        colors = self.reference(key, t).get("coloring")
        if colors is None:
            return None
        cert = self.cy.Coloring(t=t, colors=tuple(colors))
        model = enc.model_from_coloring(cert)
        for clause in enc.clauses:
            if not any((lit > 0) == (abs(lit) in model) for lit in clause):
                return f"the reference coloring violates clause {clause}"
        if enc.decode_model(model, verify=False).colors != cert.colors:
            return "model does not decode back to the reference coloring"
        return None

    def _audit(self, pr: PassResult) -> None:
        lo, hi = inputs.AUDIT_RANGE
        summary, took = pr.call(self.cy.audit_range, lo, hi)
        pr.counts["audit.audit_range.s"] += took
        pr.attempted += 1
        # The argument's mid-color bound 4m - 1 <= floor(m^2 / 2) holds exactly for m >= 8.
        want = [(m, 4 * m - 1 <= m * m // 2) for m in range(lo, hi + 1)]
        got = [(e.m, e.passed) for e in summary.entries]
        pr.fingerprint["audit"] = tuple(got)
        if got != want:
            return pr.fail("audit", "pass/fail boundary differs from 4m - 1 <= floor(m^2 / 2)")
        steps = {e.failing_step for e in summary.entries if not e.passed}
        if steps != {"mid-color-bounds"}:
            pr.fail("audit", f"failing steps {sorted(map(str, steps))}, expected mid-color-bounds")


WORKLOADS = {w.name: w for w in (GmSpectrum, TreeSpectrum, Crosscheck)}
