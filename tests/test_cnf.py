"""Unit tests for the DIMACS CNF export and its model decoding."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from cycolor import graphs
from cycolor.cli import EXIT_BUDGET, main
from cycolor.cnf import CLAUSE_CAP, _clause_count, encode, export_cnf
from cycolor.coloring import Coloring
from cycolor.errors import BudgetError, InputError, UsageError
from cycolor.families import gen_cycle, gen_gm, gen_path, gen_random_tree, gen_star
from cycolor.graphs import build_graph
from cycolor.solver import COLORABLE, count_colorings, decide


def _satisfies(enc, true_vars):
    for clause in enc.clauses:
        if not any((lit > 0) == (abs(lit) in true_vars) for lit in clause):
            return False
    return True


def test_variable_numbering_frozen():
    enc = encode(gen_path(2), 2)
    assert enc.num_vars == 10
    assert len(enc.clauses) == 23
    assert enc.edge_var(0, 1) == 1
    assert enc.edge_var(0, 2) == 2
    assert enc.edge_var(1, 1) == 3
    assert enc.arc_var(0, 1) == 5
    assert enc.arc_var(2, 2) == 10


def test_encode_validates_inputs():
    with pytest.raises(UsageError, match='t must be a positive integer, got 0'):
        encode(gen_path(2), 0)
    with pytest.raises(UsageError, match='t must be a positive integer, got True'):
        encode(gen_path(2), True)
    with pytest.raises(InputError, match='CNF export accepts connected graphs only'):
        encode(build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]), 2)


def test_valid_colorings_satisfy_the_encoding():
    cases = [
        (gen_cycle(5), 3),
        (gen_gm(2), 4),
        (gen_star(4), 4),
        (gen_path(3), 2),
    ]
    for g, t in cases:
        out = decide(g, t)
        assert out.status == COLORABLE
        enc = encode(g, t)
        model = enc.model_from_coloring(out.coloring)
        assert _satisfies(enc, model)
        assert enc.decode_model(model) == out.coloring


def test_model_from_coloring_rejects_mismatch():
    enc = encode(gen_path(2), 2)
    with pytest.raises(InputError, match='coloring does not match this encoding'):
        enc.model_from_coloring(Coloring(3, (1, 2)))
    with pytest.raises(InputError, match='coloring does not match this encoding'):
        enc.model_from_coloring(Coloring(2, (1, 2, 1)))


def test_decode_model_demands_exactly_one_color():
    enc = encode(gen_path(2), 2)
    with pytest.raises(InputError, match='model sets 0 colors on edge 0'):
        enc.decode_model(set())
    with pytest.raises(InputError, match='model sets 2 colors on edge 0'):
        enc.decode_model({enc.edge_var(0, 1), enc.edge_var(0, 2), enc.edge_var(1, 1)})


def test_exhaustive_model_count_matches_coloring_count():
    g = gen_path(2)
    enc = encode(g, 2)
    assert enc.num_vars <= 14
    models = 0
    decoded = set()
    for bits in itertools.product((False, True), repeat=enc.num_vars):
        tv = {i + 1 for i, b in enumerate(bits) if b}
        if _satisfies(enc, tv):
            models += 1
            decoded.add(enc.decode_model(tv).colors)
    assert models == count_colorings(g, 2) == 2
    assert decoded == {(1, 2), (2, 1)}


def test_exhaustive_unsat_when_no_coloring_exists():
    g = gen_star(3)  # center degree 3 cannot be properly colored with 2 colors
    enc = encode(g, 2)
    assert enc.num_vars == 14
    for bits in itertools.product((False, True), repeat=enc.num_vars):
        tv = {i + 1 for i, b in enumerate(bits) if b}
        assert not _satisfies(enc, tv)


def test_dimacs_shape():
    text = export_cnf(gen_path(2), 2)
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("p cnf ")]
    assert header == ["p cnf 10 23"]
    p_at = lines.index(header[0])
    assert all(ln.startswith("c var ") for ln in lines[:p_at])
    body = lines[p_at + 1 :]
    assert len(body) == 23
    assert all(ln.endswith(" 0") for ln in body)
    assert text.endswith("\n")
    # first edge clause: edge 0 takes color 1 or 2
    assert body[0] == "1 2 0"
    # a lone vertex at t=1: its one arc start, then an empty surjectivity clause
    text = export_cnf(build_graph(["a"], []), 1)
    assert text.splitlines()[-3:] == ["p cnf 1 2", "1 0", "0"]


def test_comment_block_names_every_variable():
    enc = encode(gen_path(2), 2)
    text = enc.to_dimacs()
    for var in range(1, enc.num_vars + 1):
        assert f"c var {var} :" in text


def test_clause_count_closed_form_matches_the_encoding():
    cases = [(gen_gm(2), t) for t in range(1, 10)]
    cases += [(gen_star(4), t) for t in range(1, 6)]  # deg >= t pins a start
    cases += [(gen_random_tree(20, 1), t) for t in (2, 4, 7)]
    cases += [(gen_random_tree(24, 4), t) for t in (3, 11)]
    for g, t in cases:
        assert _clause_count(g, t) == len(encode(g, t).clauses), (g.edges, t)
    frozen = {
        (3, 13): 5_279,
        (3, 27): 18_481,
        (4, 16): 18_736,
        (4, 64): 208_311,
    }
    for (m, t), count in frozen.items():
        g = gen_gm(m)
        assert _clause_count(g, t) == count
        assert len(encode(g, t).clauses) == count


def test_encode_refuses_past_the_clause_cap():
    g = gen_path(3)
    # 7 * (1 + C(99999, 2)) + 99999 * (1 + 6 + 2): 34,999,850,005 clauses
    with pytest.raises(BudgetError, match=r"t=99999 needs 34999850005 clauses, past the cap"):
        encode(g, 99_999)
    t = next(t for t in itertools.count(1) if _clause_count(g, t) > CLAUSE_CAP)
    with pytest.raises(BudgetError, match="past the cap"):
        encode(g, t)


def test_export_cnf_past_the_clause_cap_exits_4(tmp_path, capsys):
    gp = tmp_path / "path3.json"
    gp.write_text(graphs.to_json(gen_path(3)), encoding="utf-8")
    assert main(["export-cnf", "--graph", str(gp), "--t", "99999"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_dimacs_clause_lines_match_the_clauses():
    names = ["a\np cnf 1 1", 'b"c', "d\\e", "f\rg"]
    cases = [
        (gen_gm(3), 13),
        (gen_gm(4), 16),
        (build_graph(["a"], []), 1),  # its surjectivity clause is empty: the line "0"
        (build_graph(names, list(zip(names, names[1:]))), 2),
    ]
    for g, t in cases:
        enc = encode(g, t)
        lines = enc.to_dimacs().split("\n")
        assert lines[-1] == ""
        body = lines[-1 - len(enc.clauses) : -1]
        assert lines[-2 - len(enc.clauses)] == f"p cnf {enc.num_vars} {len(enc.clauses)}"
        assert body == [" ".join(map(str, (*clause, 0))) for clause in enc.clauses]


def test_cnf_export_memory_peak():
    # Each literal is one shared int and DIMACS is written in joined chunks:
    # encoding gm(4) at t=64 (208,311 clauses) and writing it peaks near
    # 22 MB; one int per literal occurrence and one string per line took 47 MB.
    g = gen_gm(4)
    tracemalloc.start()
    try:
        text = encode(g, 64).to_dimacs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") > 208_311
    assert peak < 32_000_000, peak
