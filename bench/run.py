"""Run one cycolor benchmark workload and print its metrics.

    python3 bench/run.py --workload gm-spectrum --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. With `--trace 0` the timed passes run untraced and the
end-to-end metrics are printed; with `--trace 1` half the time runs
untraced, half traced, and the per-layer metrics are printed. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The full result, with the environment record, is
also written under `.bench/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkout
import inputs
from tracer import Target, Tracer

# Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 5
# A healthy pass takes a second or more. A build whose every call fails at
# once would otherwise pile up passes for the whole run.
MAX_PASSES = 200
HERE = Path(__file__).resolve()
BENCH_DIR = checkout.ROOT / ".bench"

# Public names replaced by timing wrappers in a traced run. The arc-fit test
# is seen where the solver calls it; the checker wherever it is called from.
TARGETS = (
    Target("cli.main", "cycolor.cli", "main"),
    Target("graphs.from_json", "cycolor.graphs", "from_json"),
    Target("graphs.chromatic_index", "cycolor.solver", "chromatic_index"),
    Target("solver.decide", "cycolor.solver", "decide"),
    Target("intervals.cyclic_span", "cycolor.solver", "cyclic_span"),
    Target("intervals.ColorSet.of", "cycolor.solver", "ColorSet.of"),
    Target("coloring.check", "cycolor.coloring", "check_cyclically_interval"),
    Target("coloring.check", "cycolor.solver", "check_cyclically_interval"),
    Target("coloring.check", "cycolor.cnf", "check_cyclically_interval"),
    Target("audit.audit", "cycolor.audit", "audit"),
    Target("intervals.intcyc_contains", "cycolor.audit", "intcyc_contains"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready-to-time, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE), "--workload", workload, "--seed", str(seed), "--setup-probe"]
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(took)
    return times


def run_passes(workload, seconds: float, tracer=None) -> list:
    """Timed passes until `seconds` have gone by; at least one.

    With a tracer, each pass also snapshots the spans it recorded.
    """
    results = []
    start = perf_counter()
    while not results or (perf_counter() - start < seconds and len(results) < MAX_PASSES):
        if tracer is not None:
            tracer.reset()
        pr = workload.run_pass()
        if tracer is not None:
            pr.spans = {name: (s.calls, s.s, s.self_s) for name, s in tracer.stats.items()}
        results.append(pr)
    return results


def determinism_gate(passes) -> None:
    """Every pass must repeat the first pass's answers, node and clause counts."""
    first = passes[0].fingerprint
    for pr in passes[1:]:
        for op in first.keys() | pr.fingerprint.keys():
            if first.get(op) != pr.fingerprint.get(op):
                pr.attempted += op not in pr.fingerprint
                pr.fail(op, f"drift: {first.get(op)} in the first pass, {pr.fingerprint.get(op)} here")


def env_record(args, load_at_start) -> dict:
    """Where and on what a result was measured. A checkout without git
    history is identified by the hash of its source tree."""
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    commit = None
    if (checkout.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()  # fmt: skip
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(checkout.SRC.rglob("*.py")):
        digest.update(path.relative_to(checkout.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(load_at_start),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "node_budget": inputs.NODE_BUDGET,
    }


def end_to_end(untraced, passes, setup_times) -> dict:
    """Timings from the untraced passes; failures from every pass of the run."""
    decisions = sum(pr.counts["decisions"] for pr in untraced)
    decided = sum(pr.counts["decided"] for pr in untraced)
    attempted = sum(pr.attempted for pr in passes)
    failed = sum(len(pr.failures) for pr in passes)
    return {
        "setup_s": (_median(setup_times), "s"),
        "run_s": (_median([pr.timed_s for pr in untraced]), "s"),
        "decided_frac": (_ratio(decided, decisions), "ratio"),
        "ok_frac": (1.0 - _ratio(failed, attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(pr, absent: set, gen_s: float) -> dict:
    """Per-layer values of one traced pass; None marks a layer that is absent."""
    c = pr.counts
    spans = pr.spans

    def span(name, field):
        if name in absent:
            return None
        calls, s, self_s = spans.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": s, "self_s": self_s}[field]

    def needs(*names):
        return any(name in absent for name in names)

    decide_s = span("solver.decide", "s")
    check_calls, check_s = span("coloring.check", "calls"), span("coloring.check", "s")
    arc = ("intervals.cyclic_span", "intervals.ColorSet.of", "solver.decide")
    return {
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "cli.exit_0": (c["cli.exit_0"], "count"),
        "cli.exit_1": (c["cli.exit_1"], "count"),
        "cli.exit_4": (c["cli.exit_4"], "count"),
        "graphs.chromatic_index.calls": (span("graphs.chromatic_index", "calls"), "count"),
        "graphs.chromatic_index.s": (span("graphs.chromatic_index", "s"), "s"),
        "graphs.from_json.s": (span("graphs.from_json", "s"), "s"),
        "families.gen.s": (gen_s, "s"),
        "solver.decide.calls": (span("solver.decide", "calls"), "count"),
        "solver.decide.s": (decide_s, "s"),
        "solver.decide.self_s": (span("solver.decide", "self_s"), "s"),
        "solver.nodes": (c["solver.nodes"], "count"),
        "solver.nodes_per_s": (
            None if needs("solver.decide") else _ratio(c["solver.nodes"], decide_s), "1/s"
        ),
        "solver.budget_node_frac": (_ratio(c["solver.budget_nodes"], c["solver.nodes"]), "ratio"),
        "intervals.cyclic_span.calls": (span("intervals.cyclic_span", "calls"), "count"),
        "intervals.cyclic_span.s": (span("intervals.cyclic_span", "s"), "s"),
        "intervals.ColorSet.of.calls": (span("intervals.ColorSet.of", "calls"), "count"),
        "intervals.ColorSet.of.s": (span("intervals.ColorSet.of", "s"), "s"),
        "intervals.arc_share": (
            None if needs(*arc) else _ratio(
                span("intervals.cyclic_span", "s") + span("intervals.ColorSet.of", "s"), decide_s
            ),
            "ratio",
        ),
        "intervals.intcyc_contains.calls": (span("intervals.intcyc_contains", "calls"), "count"),
        "coloring.check.calls": (check_calls, "count"),
        "coloring.check.s": (check_s, "s"),
        "coloring.check.us_per_call": (
            None if needs("coloring.check") else 1e6 * _ratio(check_s, check_calls), "us"
        ),
        "solver.oracle.calls": (c["solver.oracle.calls"], "count"),
        "solver.oracle.assignments": (c["solver.oracle.assignments"], "count"),
        "solver.oracle.small.assignments_per_s": (
            _ratio(c["solver.oracle.small.assignments"], c["solver.oracle.small.s"]), "1/s"
        ),
        "solver.oracle.large.assignments_per_s": (
            _ratio(c["solver.oracle.large.assignments"], c["solver.oracle.large.s"]), "1/s"
        ),
        "cnf.encode.s": (c["cnf.encode.s"], "s"),
        "cnf.vars": (c["cnf.vars"], "count"),
        "cnf.clauses": (c["cnf.clauses"], "count"),
        "cnf.literals": (c["cnf.literals"], "count"),
        "cnf.clauses_per_s": (_ratio(c["cnf.clauses"], c["cnf.encode.s"]), "1/s"),
        "cnf.to_dimacs.s": (c["cnf.to_dimacs.s"], "s"),
        "cnf.dimacs_bytes": (c["cnf.dimacs_bytes"], "bytes"),
        "audit.audit_range.s": (c["audit.audit_range.s"], "s"),
        "audit.audit.calls": (span("audit.audit", "calls"), "count"),
        "audit.audits_per_s": (
            None if needs("audit.audit") else _ratio(span("audit.audit", "calls"), c["audit.audit_range.s"]),
            "1/s",
        ),
        "reference.unverified": (c["reference.unverified"], "count"),
    }


def per_layer(traced, absent, gen_s, untraced_run_s) -> dict:
    """Median over the traced passes of each per-layer value."""
    snapshots = [layer_metrics(pr, absent, gen_s) for pr in traced]
    out = {}
    for name, (_, unit) in snapshots[0].items():
        values = [snap[name][0] for snap in snapshots]
        out[name] = (None if None in values else _median(values), unit)
    traced_run_s = _median([pr.timed_s for pr in traced])
    out["trace.overhead_frac"] = (_ratio(traced_run_s, untraced_run_s) - 1.0, "ratio")
    return out


def _as_json(metrics: dict) -> dict:
    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if value is None:
            out[name]["absent"] = True
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cycolor benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        cy = checkout.import_cycolor()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](cy, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_times = measure_setup(args.workload, args.seed)
        workload = workloads.WORKLOADS[args.workload](cy, args.seed, workdir)
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2)
            with Tracer(TARGETS) as tracer:
                traced = run_passes(workload, args.seconds / 2, tracer)
            absent = tracer.absent
        else:
            untraced, traced, absent = run_passes(workload, args.seconds), [], set()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    determinism_gate(passes)
    e2e = end_to_end(untraced, passes, setup_times)
    layers = per_layer(traced, absent, workload.gen_s, e2e["run_s"][0]) if traced else {}
    attempted = sum(pr.attempted for pr in passes)
    failures = [f"{op}: {why}" for pr in passes for op, why in pr.failures.items()]
    env = env_record(args, load_at_start)
    record = {
        "env": env,
        "end_to_end": _as_json(e2e),
        "per_layer": _as_json(layers),
        "absent_spans": sorted(absent),
        "setup_probes_s": setup_times,
        "passes": [{"timed_s": pr.timed_s, "traced": i >= len(untraced)} for i, pr in enumerate(passes)],
        "attempted": attempted,
        "failures": failures,
    }
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": _as_json(layers if args.trace else e2e),
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
