"""Command-line front end.

Subcommands: gen, check, solve, spectrum, audit, export-cnf, export-dot.
The primary payload (JSON, DIMACS, or DOT) goes to stdout or --out;
human-oriented tables and progress lines go to stderr so pipelines stay
clean.

Exit codes:
    0  success / checked and true
    1  checked and false (coloring invalid, not colorable, audit failed)
    2  UsageError: a flag is missing, or a parameter is malformed or out
       of range
    3  InputError: a file cannot be read or written, or a graph or
       coloring is malformed or not accepted; also InternalError, a failed
       self-check, reported as "internal error"
    4  the search gave up before reaching an answer: a node or time budget
       ran out, or BudgetError (a generator refused a graph over its edge
       cap, the exact chromatic-index search a graph over its edge limit,
       CNF export a formula over its clause cap, the audit an m range over
       its cap, or `check` a coloring whose t exceeds the edge count by
       more than 10^5, as a verdict lists every unused color)

The error kind alone decides the exit code (see `cycolor.errors`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import warnings
from typing import Callable, Collection, Optional, TypeVar

from . import cnf as cnf_mod
from . import coloring as coloring_mod
from . import families, graphs, solver
from .audit import audit_range, summary_to_dict
from .errors import BudgetError, CycolorError, InputError, InternalError, UsageError

EXIT_OK = 0
EXIT_CHECKED_FALSE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4

# Each error kind's exit code and the label its message is printed under;
# an InternalError is a failed self-check, a bug, not a refused input.
_EXIT_FOR_ERROR = {
    UsageError: (EXIT_USAGE, "error"),
    InputError: (EXIT_IO, "error"),
    BudgetError: (EXIT_BUDGET, "error"),
    InternalError: (EXIT_IO, "internal error"),
}

# Each `gen --family`: its generator and the flags it takes, in call order.
_FAMILIES = {
    "gm": (families.gen_gm, ("m",)),
    "path": (families.gen_path, ("n",)),
    "cycle": (families.gen_cycle, ("n",)),
    "star": (families.gen_star, ("n",)),
    "kab": (families.gen_complete_bipartite, ("a", "b")),
    "tree": (families.gen_random_tree, ("n", "seed")),
}

T = TypeVar("T")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            # Overwrite in place, then cut a regular file's tail (a FIFO or
            # tty has none): truncating a non-empty file on open (O_TRUNC)
            # makes ext4 flush its data on close, ~30 ms per rewrite of a
            # 3 kB file against ~0.01 ms this way.
            fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Read a file and parse it, naming the file in any InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _exit_for(statuses: Collection[str]) -> int:
    """0 when some outcome is colorable, else 4 when a budget ran out, else 1."""
    if solver.COLORABLE in statuses:
        return EXIT_OK
    if solver.BUDGET_EXCEEDED in statuses:
        return EXIT_BUDGET
    return EXIT_CHECKED_FALSE


def _outcome_dict(out: solver.SearchOutcome) -> dict:
    return {
        "status": out.status,
        "reason": out.reason,
        "nodes": out.nodes,
        "seconds": out.seconds,
        "coloring": None if out.coloring is None else coloring_mod.to_dict(out.coloring),
    }


def _cmd_gen(args: argparse.Namespace) -> int:
    gen, flags = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        need = " and ".join(f"--{flag}" for flag in flags)
        verb = "is" if len(flags) == 1 else "are"
        raise UsageError(f"{need} {verb} required for --family {args.family}")
    _emit(graphs.to_json(gen(*values)), args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load(args.graph, graphs.from_json)
    cert = _load(args.coloring, coloring_mod.from_json)
    verdict = coloring_mod.check_cyclically_interval(g, cert)
    _emit(json.dumps(coloring_mod.verdict_to_dict(verdict), indent=2) + "\n", args.out)
    return EXIT_OK if verdict.ok else EXIT_CHECKED_FALSE


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load(args.graph, graphs.from_json)
    cfg = solver.SolverConfig(
        node_budget=args.budget_nodes, time_budget=args.budget_seconds
    )
    out = solver.decide(g, args.t, cfg)
    if out.status == solver.COLORABLE:
        assert out.coloring is not None
        _emit(coloring_mod.to_json(out.coloring), args.out)
        print(f"colorable: t={args.t}, {out.nodes} nodes", file=sys.stderr)
    else:
        _emit(json.dumps(_outcome_dict(out), indent=2) + "\n", args.out)
    return _exit_for({out.status})


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load(args.graph, graphs.from_json)
    cfg = solver.SolverConfig(
        node_budget=args.budget_nodes, time_budget=args.budget_seconds
    )
    # a clamped range is one plain stderr line, not Python's warning format
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solver.spectrum(
                g,
                t_min=args.t_min,
                t_max=args.t_max,
                cfg=cfg,
                jobs=args.jobs,
                graph_id=args.graph_id or args.graph,
            )
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    payload = {
        "graph_id": result.graph_id,
        "t_min": result.t_min,
        "t_max": result.t_max,
        "outcomes": {
            str(t): _outcome_dict(result.outcomes[t]) for t in sorted(result.outcomes)
        },
    }
    # one compact line, like `solve`'s certificate: indented output runs
    # json's pure-Python encoder, several times the cost of the C one
    _emit(json.dumps(payload) + "\n", args.out)
    sys.stderr.write(
        "".join(
            f"t={t:>4}  {out.status:<16} nodes={out.nodes:<12} {out.seconds:.3f} s\n"
            for t, out in sorted(result.outcomes.items())
        )
    )
    return _exit_for({o.status for o in result.outcomes.values()})


def _cmd_audit(args: argparse.Namespace) -> int:
    summary = audit_range(args.m_min, args.m_max)
    _emit(json.dumps(summary_to_dict(summary), indent=2) + "\n", args.out)
    for entry in summary.entries:
        verdict = "pass" if entry.passed else f"FAIL at {entry.failing_step}"
        sweep = " (full k0 sweep)" if entry.exhaustive_checked else ""
        print(f"m={entry.m:>5}  k0 in [0, {entry.k0_hi}]  {verdict}{sweep}", file=sys.stderr)
    return EXIT_OK if summary.all_passed else EXIT_CHECKED_FALSE


def _cmd_export_cnf(args: argparse.Namespace) -> int:
    g = _load(args.graph, graphs.from_json)
    _emit(cnf_mod.export_cnf(g, args.t), args.out)
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load(args.graph, graphs.from_json)
    cert = None
    if args.coloring is not None:
        cert = _load(args.coloring, coloring_mod.from_json)
    _emit(graphs.to_dot(g, cert), args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call (about 1 ms) and kept.
    Each subcommand runs the module's `_cmd_<name>`, looked up when it is
    called."""
    parser = argparse.ArgumentParser(
        prog="cycolor",
        description="Generate, check, search, and audit cyclically-interval edge colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as JSON")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--m", type=int, help="size parameter for the gm family")
    p.add_argument("--n", type=int, help="size for path (edges), cycle/tree (vertices), star (leaves)")
    p.add_argument("--a", type=int, help="left side size for kab")
    p.add_argument("--b", type=int, help="right side size for kab")
    p.add_argument("--seed", type=int, help="PRNG seed for tree")
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("check", help="verify a coloring certificate against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--out", help="write verdict JSON to file")

    p = sub.add_parser("solve", help="decide one t by exact search")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--out", help="write certificate/outcome JSON to file")

    p = sub.add_parser("spectrum", help="decide a whole t range")
    p.add_argument("--graph", required=True)
    p.add_argument("--t-min", type=int, default=None)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--graph-id", default=None)
    p.add_argument("--out", help="write spectrum JSON to file")

    p = sub.add_parser("audit", help="audit the impossibility argument over an m range")
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--out", help="write summary JSON to file")

    p = sub.add_parser("export-cnf", help="emit DIMACS CNF for (graph, t)")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", help="write DIMACS to file")

    p = sub.add_parser("export-dot", help="emit Graphviz DOT, optionally color-labeled")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", default=None)
    p.add_argument("--out", help="write DOT to file")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except CycolorError as exc:
        code, label = _EXIT_FOR_ERROR[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
