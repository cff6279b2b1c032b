"""End-to-end tests of the command-line interface via main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycolor import cli
from cycolor import coloring as coloring_mod
from cycolor import graphs, solver
from cycolor.cli import EXIT_BUDGET, EXIT_CHECKED_FALSE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cycolor.coloring import check_cyclically_interval
from cycolor.errors import BudgetError, InputError, InternalError, UsageError
from cycolor.families import gen_cycle, gen_gm, gen_path, gen_random_tree


def _write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(graphs.to_json(g), encoding="utf-8")
    return str(path)


def _write_coloring(tmp_path, cert, name="coloring.json"):
    path = tmp_path / name
    path.write_text(coloring_mod.to_json(cert), encoding="utf-8")
    return str(path)


def test_gen_round_trips_the_family(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", "gm", "--m", "3", "--out", str(out)]) == EXIT_OK
    assert graphs.from_json(out.read_text(encoding="utf-8")) == gen_gm(3)
    capsys.readouterr()

    assert main(["gen", "--family", "path", "--n", "4"]) == EXIT_OK
    captured = capsys.readouterr()
    assert graphs.from_json(captured.out) == gen_path(4)


def test_gen_other_families(capsys):
    for argv in (
        ["gen", "--family", "cycle", "--n", "5"],
        ["gen", "--family", "star", "--n", "3"],
        ["gen", "--family", "kab", "--a", "2", "--b", "3"],
        ["gen", "--family", "tree", "--n", "6", "--seed", "11"],
    ):
        assert main(argv) == EXIT_OK
        graphs.from_json(capsys.readouterr().out)


def test_gen_usage_errors(tmp_path, capsys):
    # Every usage-error path of the CLI: a missing flag or a parameter out of range.
    gp = _write_graph(tmp_path, gen_gm(2))
    rows = [
        ["gen", "--family", "gm"],  # missing --m
        ["gen", "--family", "gm", "--m", "1"],
        ["gen", "--family", "path"],  # missing --n
        ["gen", "--family", "path", "--n", "0"],
        ["gen", "--family", "cycle", "--n", "2"],
        ["gen", "--family", "star", "--n", "0"],
        ["gen", "--family", "kab", "--a", "2"],  # missing --b
        ["gen", "--family", "kab", "--a", "0", "--b", "2"],
        ["gen", "--family", "tree", "--n", "5"],  # missing --seed
        ["gen", "--family", "tree", "--n", "0", "--seed", "1"],
        ["solve", "--graph", gp, "--t", "0"],
        ["solve", "--graph", gp, "--t", "4", "--budget-nodes", "0"],
        ["solve", "--graph", gp, "--t", "4", "--budget-seconds", "0"],
        ["solve", "--graph", gp, "--t", "4", "--budget-seconds", "nan"],
        ["spectrum", "--graph", gp, "--budget-nodes", "0"],
        ["spectrum", "--graph", gp, "--budget-seconds", "-1"],
        ["spectrum", "--graph", gp, "--budget-seconds", "nan"],
        ["export-cnf", "--graph", gp, "--t", "0"],
        ["audit", "--m-min", "1", "--m-max", "3"],
        ["audit", "--m-min", "9", "--m-max", "8"],
        ["spectrum", "--graph", gp, "--t-min", "10", "--t-max", "5"],  # an empty t range
        ["spectrum", "--graph", gp, "--jobs", "0", "--t-min", "4", "--t-max", "4"],
        ["spectrum", "--graph", gp, "--jobs", "-3", "--t-min", "4", "--t-max", "4"],
    ]
    for argv in rows:
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, argv
    # the k0 sweep limit is a constant, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--m-min", "2", "--m-max", "3", "--exhaustive-limit", "5"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --exhaustive-limit 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--family", "gm"], "--m is required for --family gm"),
        (["--family", "path"], "--n is required for --family path"),
        (["--family", "cycle"], "--n is required for --family cycle"),
        (["--family", "star", "--m", "3"], "--n is required for --family star"),
        (["--family", "kab"], "--a and --b are required for --family kab"),
        (["--family", "kab", "--a", "2"], "--a and --b are required for --family kab"),
        (["--family", "kab", "--b", "2"], "--a and --b are required for --family kab"),
        (["--family", "tree", "--n", "5"], "--n and --seed are required for --family tree"),
        (["--family", "tree", "--seed", "1"], "--n and --seed are required for --family tree"),
    ],
)
def test_gen_names_the_flags_a_family_needs(capsys, flags, message):
    assert main(["gen", *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_check_accepts_and_rejects(tmp_path, capsys):
    g = gen_cycle(5)
    gp = _write_graph(tmp_path, g)
    good = _write_coloring(tmp_path, coloring_mod.Coloring(3, (1, 2, 1, 2, 3)), "good.json")
    bad = _write_coloring(tmp_path, coloring_mod.Coloring(3, (1, 1, 2, 3, 2)), "bad.json")

    assert main(["check", "--graph", gp, "--coloring", good]) == EXIT_OK
    first = capsys.readouterr().out
    verdict = json.loads(first)
    assert verdict["ok"] is True and verdict["failures"] == []

    assert main(["check", "--graph", gp, "--coloring", good]) == EXIT_OK
    assert capsys.readouterr().out == first  # deterministic byte-for-byte

    assert main(["check", "--graph", gp, "--coloring", bad]) == EXIT_CHECKED_FALSE
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is False
    assert verdict["failures"]
    assert all({"kind", "location", "detail"} <= set(f) for f in verdict["failures"])


def test_solve_emits_a_checkable_certificate(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_gm(2))
    assert main(["solve", "--graph", gp, "--t", "4"]) == EXIT_OK
    captured = capsys.readouterr()
    cert = coloring_mod.from_json(captured.out)
    assert check_cyclically_interval(gen_gm(2), cert).ok
    assert "colorable" in captured.err


def test_solve_reports_not_colorable(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_gm(2))
    assert main(["solve", "--graph", gp, "--t", "7"]) == EXIT_CHECKED_FALSE
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "not-colorable"
    assert payload["coloring"] is None
    # gm(2)'s reach ceiling is 6, so t=7 is refuted with no search
    assert payload["nodes"] == 0
    assert payload["reason"] == (
        "t=7 exceeds reach ceiling 6: every color lies within 1 of the 4-color arc of x0,"
        " so t <= 6"
    )


def test_solve_refutes_a_tree_above_its_width(tmp_path, capsys):
    # three legs of two edges at c: 6 edges, but at most 5 at one path
    legs = [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
    g = graphs.build_graph(["c", "a1", "a2", "b1", "b2", "d1", "d2"], legs)
    gp = _write_graph(tmp_path, g)
    assert main(["solve", "--graph", gp, "--t", "6"]) == EXIT_CHECKED_FALSE
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["nodes"], payload["coloring"]) == ("not-colorable", 0, None)
    assert payload["reason"] == (
        "t=6 exceeds tree width 5, the most edges at one path (a2 to b2):"
        " a coloring lifted along the tree spans at most 5 colors"
    )
    assert main(["solve", "--graph", gp, "--t", "5"]) == EXIT_OK
    captured = capsys.readouterr()
    assert check_cyclically_interval(g, coloring_mod.from_json(captured.out)).ok
    assert captured.err == "colorable: t=5, 0 nodes\n"


def test_spectrum_reports_the_reach_ceiling(tmp_path, capsys):
    # gm(3)'s ceiling is 13: t=9..13 are colorable and t=14..27 need no search
    gp = _write_graph(tmp_path, gen_gm(3))
    assert main(["spectrum", "--graph", gp]) == EXIT_OK
    outcomes = json.loads(capsys.readouterr().out)["outcomes"]
    assert sorted(map(int, outcomes)) == list(range(9, 28))
    for t in range(9, 14):
        assert outcomes[str(t)]["status"] == "colorable", t
    for t in range(14, 28):
        reason = (
            f"t={t} exceeds reach ceiling 13: every color lies within 2 of the 9-color arc"
            " of x0, so t <= 13"
        )
        assert (outcomes[str(t)]["status"], outcomes[str(t)]["nodes"]) == ("not-colorable", 0)
        assert outcomes[str(t)]["reason"] == reason, t


def test_solve_budget_exit(tmp_path, capsys):
    # gm(4) at t=19 is below its reach ceiling of 22 and runs past 3M nodes
    gp = _write_graph(tmp_path, gen_gm(4))
    assert main(["solve", "--graph", gp, "--t", "19", "--budget-nodes", "3"]) == EXIT_BUDGET
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "budget-exceeded"
    assert main(["solve", "--graph", gp, "--t", "19", "--budget-seconds", "0.05"]) == EXIT_BUDGET
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == "time budget 0.05s exhausted"


def test_solve_deep_graph(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_path(1200))
    assert main(["solve", "--graph", gp, "--t", "2"]) == EXIT_OK
    cert = coloring_mod.from_json(capsys.readouterr().out)
    assert check_cyclically_interval(gen_path(1200), cert).ok


def test_spectrum_past_the_chromatic_index_search_limit(tmp_path, capsys):
    # An odd cycle over 64 edges: the exact chromatic-index search refuses it,
    # so the window starts at the max degree and the search settles t = 2.
    gp = _write_graph(tmp_path, gen_cycle(71))
    assert main(["spectrum", "--graph", gp, "--t-max", "3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["t_min"], payload["t_max"]) == (2, 3)
    outcomes = payload["outcomes"]
    assert (outcomes["2"]["status"], outcomes["2"]["nodes"]) == ("not-colorable", 70)
    assert (outcomes["3"]["status"], outcomes["3"]["nodes"]) == ("colorable", 71)
    # a budget still ends in its own exit code
    argv = ["spectrum", "--graph", gp, "--t-min", "4", "--t-max", "4", "--budget-nodes", "1000"]
    assert main(argv) == EXIT_BUDGET
    assert json.loads(capsys.readouterr().out)["outcomes"]["4"]["status"] == "budget-exceeded"


def test_solve_flag_variants(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_cycle(5))
    assert main(["solve", "--graph", gp, "--t", "3"]) == EXIT_OK
    cert = coloring_mod.from_json(capsys.readouterr().out)
    assert check_cyclically_interval(gen_cycle(5), cert).ok
    # the search has one edge order and one set of symmetry rules, so there
    # is no flag to choose either
    for flag in (["--edge-order", "input"], ["--no-symmetry-breaking"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", gp, "--t", "3", *flag])
        assert exc.value.code == EXIT_USAGE, flag


def test_spectrum_payload(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_path(3))
    assert main(["spectrum", "--graph", gp, "--graph-id", "p3"]) == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["graph_id"] == "p3"
    assert (payload["t_min"], payload["t_max"]) == (2, 3)
    assert payload["outcomes"]["2"]["status"] == "colorable"
    assert payload["outcomes"]["3"]["status"] == "colorable"
    # each t reports the seconds its decision took, in the JSON and the table
    for t in ("2", "3"):
        seconds = payload["outcomes"][t]["seconds"]
        assert isinstance(seconds, float) and seconds > 0
        assert f"t={t:>4}  colorable" in captured.err and f"{seconds:.3f} s" in captured.err


@pytest.mark.parametrize("g", [gen_gm(2), gen_random_tree(12, 3)], ids=["gm-2", "tree"])
def test_spectrum_payload_is_one_compact_line(tmp_path, capsys, g):
    """Through --out and through stdout, `spectrum` writes its payload as
    one line of compact JSON, which parses to the solver's spectrum apart
    from each t's seconds."""
    gp = _write_graph(tmp_path, g)
    res = solver.spectrum(g, graph_id="g")
    want = {
        "graph_id": "g",
        "t_min": res.t_min,
        "t_max": res.t_max,
        "outcomes": {
            str(t): {
                "status": o.status,
                "reason": o.reason,
                "nodes": o.nodes,
                "coloring": None if o.coloring is None else coloring_mod.to_dict(o.coloring),
            }
            for t, o in res.outcomes.items()
        },
    }
    out = tmp_path / "s.json"
    argv = ["spectrum", "--graph", gp, "--graph-id", "g"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    for text in (out.read_text(encoding="utf-8"), capsys.readouterr().out):
        payload = json.loads(text)
        assert text == json.dumps(payload) + "\n"
        for o in payload["outcomes"].values():
            assert isinstance(o.pop("seconds"), float)
        assert payload == want


def test_spectrum_clamped_range_warns_in_one_plain_line(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_path(3))
    assert main(["spectrum", "--graph", gp, "--t-min", "1", "--t-max", "99"]) == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["t_min"], payload["t_max"]) == (2, 3)
    warned = [line for line in captured.err.splitlines() if "clamped" in line]
    assert warned == [
        "warning: spectrum range [1, 99] clamped to [2, 3] (meaningful window is [2, 3])"
    ]
    assert "UserWarning" not in captured.err and "cli.py" not in captured.err
    # a range left empty once clamped still warns before the usage error
    assert main(["spectrum", "--graph", gp, "--t-min", "20", "--t-max", "99"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: spectrum range [20, 99] clamped to [20, 3]")
    assert err[1].startswith("error: spectrum range [20, 3] is empty")


def test_spectrum_all_not_colorable_exit(tmp_path, capsys):
    # pin the window to the 5-cycle's single not-colorable point
    gp = _write_graph(tmp_path, gen_cycle(5))
    code = main(["spectrum", "--graph", gp, "--t-min", "4", "--t-max", "4"])
    assert code == EXIT_CHECKED_FALSE
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcomes"]["4"]["status"] == "not-colorable"


def test_audit_exits_by_verdict(tmp_path, capsys):
    assert main(["audit", "--m-min", "8", "--m-max", "9"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True

    assert main(["audit", "--m-min", "2", "--m-max", "9"]) == EXIT_CHECKED_FALSE
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False
    assert "FAIL at mid-color-bounds" in captured.err

    assert main(["audit", "--m-min", "9", "--m-max", "8"]) == EXIT_USAGE


def test_audit_past_the_range_cap_exits_4(capsys):
    # ten million values of m would keep about 67 GB of reports
    assert main(["audit", "--m-min", "2", "--m-max", "10000000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_gen_past_the_edge_cap_exits_4(capsys):
    # gm(5000) would have 1.25 * 10^11 edges; the count is refused, not built
    assert main(["gen", "--family", "gm", "--m", "5000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "125000000000 edges, past the cap" in captured.err


def test_export_cnf(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_path(2))
    assert main(["export-cnf", "--graph", gp, "--t", "2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "p cnf 10 23" in text


def test_export_dot(tmp_path, capsys):
    g = gen_cycle(4)
    gp = _write_graph(tmp_path, g)
    assert main(["export-dot", "--graph", gp]) == EXIT_OK
    plain = capsys.readouterr().out
    assert plain.startswith("graph ") and "--" in plain

    cp = _write_coloring(tmp_path, coloring_mod.Coloring(2, (1, 2, 1, 2)))
    assert main(["export-dot", "--graph", gp, "--coloring", cp]) == EXIT_OK
    labeled = capsys.readouterr().out
    assert 'label="1"' in labeled

    short = _write_coloring(tmp_path, coloring_mod.Coloring(2, (1, 2)), "short.json")
    assert main(["export-dot", "--graph", gp, "--coloring", short]) == EXIT_IO


def test_io_error_exits(tmp_path, capsys):
    # Every input-error path of the CLI: a file that cannot be read, or a
    # graph or coloring that is malformed or not accepted.
    def write(name, payload):
        path = tmp_path / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    missing = str(tmp_path / "nope.json")
    gp = _write_graph(tmp_path, gen_cycle(4))
    split = write("split.json", {"vertices": list("abcd"), "edges": [["a", "b"], ["c", "d"]]})
    split_coloring = _write_coloring(tmp_path, coloring_mod.Coloring(1, (1, 1)), "split-c.json")
    graph_rows = {
        "mangled": "{not json",
        "not-an-object": [],
        "no-edges-key": {"vertices": ["a"]},
        "vertex-not-a-string": {"vertices": [1], "edges": []},
        "edge-not-a-pair": {"vertices": ["a", "b"], "edges": [["a"]]},
        "unknown-endpoint": {"vertices": ["a"], "edges": [["a", "zzz"]]},
        "duplicate-vertex": {"vertices": ["a", "a"], "edges": []},
        "duplicate-edge": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
        "self-loop": {"vertices": ["a"], "edges": [["a", "a"]]},
        "nested-too-deep": "[" * 100_000,
        "utf-16-bom": b"\xff\xfe{}",
        "int-too-long": '{"vertices": [], "edges": [], "n": 1' + "0" * 5000 + "}",
    }
    coloring_rows = {
        "mangled": "{not json",
        "not-an-object": [],
        "colors-not-a-list": {"t": 2, "colors": 1},
        "t-not-positive": {"t": 0, "colors": []},
        "color-out-of-range": {"t": 2, "colors": [1, 2, 3, 1]},
        "too-short": {"t": 2, "colors": [1, 2]},
        "nested-too-deep": "[" * 100_000,
        "utf-16-bom": b"\xff\xfe{}",
        "int-too-long": '{"t": 1' + "0" * 5000 + ', "colors": []}',
    }
    rows = [
        ["check", "--graph", missing, "--coloring", missing],
        ["check", "--graph", gp, "--coloring", missing],
        ["solve", "--graph", str(tmp_path), "--t", "2"],  # a directory
        ["solve", "--graph", split, "--t", "2"],
        ["spectrum", "--graph", split],
        ["check", "--graph", split, "--coloring", split_coloring],
        ["export-cnf", "--graph", split, "--t", "2"],
        # a graph without edges has no chromatic index, so no spectrum window
        ["spectrum", "--graph", write("edgeless.json", {"vertices": ["a"], "edges": []})],
    ]
    for name, payload in graph_rows.items():
        path = write(f"graph-{name}.json", payload)
        rows += [["solve", "--graph", path, "--t", "2"]]
        rows += [["export-cnf", "--graph", path, "--t", "2"]]
    for name, payload in coloring_rows.items():
        path = write(f"coloring-{name}.json", payload)
        rows += [["check", "--graph", gp, "--coloring", path]]
    for argv in rows:
        assert main(argv) == EXIT_IO, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, argv


def test_check_refuses_a_t_far_past_the_edge_count(tmp_path, capsys):
    # A verdict lists every unused color, so a t of a billion on two edges is
    # refused before any palette mask is built.
    gp = _write_graph(tmp_path, gen_path(2))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"t": 10**9, "colors": [1, 2]}), encoding="utf-8")
    assert main(["check", "--graph", gp, "--coloring", str(huge)]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # a few colors past the edge count are still checked, and listed in order
    cp = _write_coloring(tmp_path, coloring_mod.Coloring(5, (1, 2)))
    assert main(["check", "--graph", gp, "--coloring", cp]) == EXIT_CHECKED_FALSE
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert [f["location"] for f in failures] == ["3", "4", "5"]
    assert {f["kind"] for f in failures} == {coloring_mod.KIND_COLOR_UNUSED}


@pytest.mark.parametrize(
    "kind, code, prefix",
    [
        (UsageError, EXIT_USAGE, "error: "),
        (InputError, EXIT_IO, "error: "),
        (BudgetError, EXIT_BUDGET, "error: "),
        (InternalError, EXIT_IO, "internal error: "),
    ],
)
def test_each_error_kind_has_one_exit_code(monkeypatch, capsys, kind, code, prefix):
    def fail(args):
        raise kind("boom")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    assert main(["check", "--graph", "g.json", "--coloring", "c.json"]) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


def test_two_main_calls_build_the_parser_once(monkeypatch, tmp_path):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "cycolor":  # not a subcommand's parser
            built.append(self)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        for n in ("2", "3"):
            out = tmp_path / f"path{n}.json"
            assert main(["gen", "--family", "path", "--n", n, "--out", str(out)]) == EXIT_OK
            assert graphs.from_json(out.read_text(encoding="utf-8")) == gen_path(int(n))
    finally:
        cli._build_parser.cache_clear()
    assert len(built) == 1


def test_out_flag_failure(tmp_path, capsys):
    gp = _write_graph(tmp_path, gen_path(2))
    bad_out = str(tmp_path / "no" / "such" / "dir" / "x.json")
    assert main(["solve", "--graph", gp, "--t", "2", "--out", bad_out]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    assert main(["solve", "--graph", gp, "--t", "2", "--out", str(tmp_path)]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


def test_out_overwrites_a_longer_file(tmp_path):
    out = tmp_path / "g.json"
    out.write_text("x" * 10_000, encoding="utf-8")
    assert main(["gen", "--family", "path", "--n", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == graphs.to_json(gen_path(2))


def _checkout_env() -> dict[str, str]:
    """The environment with this checkout's `src` first on PYTHONPATH, so a
    fresh interpreter imports the package under test, installed or not."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_runs_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "cycolor.cli", "gen", "--family", "path", "--n", "2"],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert graphs.from_json(proc.stdout) == gen_path(2)


# Runs in a fresh interpreter: the package and these commands leave numpy and
# the process pool unloaded, and the oracle still loads numpy when it runs.
_COLD_START = """
import os, sys
import cycolor, cycolor.cli
from cycolor.cli import main

heavy = ("numpy", "concurrent.futures.process", "multiprocessing")

os.chdir(sys.argv[1])
runs = [
    (["gen", "--family", "gm", "--m", "2", "--out", "g.json"], 0),
    (["solve", "--graph", "g.json", "--t", "4", "--out", "c.json"], 0),
    (["check", "--graph", "g.json", "--coloring", "c.json", "--out", "v.json"], 0),
    (["spectrum", "--graph", "g.json", "--jobs", "1", "--out", "s.json"], 0),
    (["export-cnf", "--graph", "g.json", "--t", "4", "--out", "g.cnf"], 0),
    (["export-dot", "--graph", "g.json", "--coloring", "c.json", "--out", "g.dot"], 0),
    # the argument's bounds do not hold at m = 2: a verdict, exit 1
    (["audit", "--m-min", "2", "--m-max", "2", "--out", "a.json"], 1),
]
for argv, code in runs:
    assert main(argv) == code, argv
    loaded = [m for m in heavy if m in sys.modules]
    assert not loaded, (argv, loaded)

from cycolor.families import gen_gm
from cycolor.solver import count_colorings

assert count_colorings(gen_gm(2), 4) == 96
assert "numpy" in sys.modules
"""


def test_cold_start_loads_no_numpy_or_pool(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
