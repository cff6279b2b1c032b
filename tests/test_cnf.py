"""Unit tests for the DIMACS CNF export and its model decoding."""

from __future__ import annotations

import bisect
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
    # ladders on every edge's colors and vertex's starts, and on the hub's
    # 9 and 16 edges at each color
    cases += [(gen_gm(3), t) for t in range(9, 14)] + [(gen_gm(4), 16)]
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
    # colors 1 and 3 at v2 fit no arc of 2 of 4 colors
    with pytest.raises(InputError, match='palette at v2 fits no arc; coloring is not valid'):
        encode(gen_path(2), 4).model_from_coloring(Coloring(4, (1, 3)))


def test_decode_model_demands_exactly_one_color():
    enc = encode(gen_path(2), 2)
    with pytest.raises(InputError, match='model sets 0 colors on edge 0'):
        enc.decode_model(set())
    with pytest.raises(InputError, match='model sets 2 colors on edge 0'):
        enc.decode_model({enc.edge_var(0, 1), enc.edge_var(0, 2), enc.edge_var(1, 1)})
    # one color on each edge, but the same one at v2: the checker refuses it
    clash = {enc.edge_var(0, 1), enc.edge_var(1, 1)}
    with pytest.raises(InputError, match='decoded model fails the checker'):
        enc.decode_model(clash)
    assert enc.decode_model(clash, verify=False) == Coloring(2, (1, 1))


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
    # gm(3) at t=9 has ladders, so auxiliary variables, on every block of t
    # literals and on the hub's 9 edges at each color
    for g, t in ((gen_path(2), 2), (gen_gm(3), 9)):
        enc = encode(g, t)
        named = [ln.split(" : ")[0] for ln in enc.to_dimacs().splitlines() if ln.startswith("c var ")]
        assert named == [f"c var {var}" for var in range(1, enc.num_vars + 1)]


def test_ladder_comments_name_each_vertex_by_its_label():
    # labels that read as format fields must come out as written; at t=8
    # every edge's colors, the hub's 8 edges at each color and every
    # vertex's arc starts are ladders of 6 auxiliary variables
    hub, leaves = "{k}", ["{names[0]}", "}", "{", "{{c}}", "l4", "l5", "l6", "l7"]
    g = build_graph([hub, *leaves], [(hub, leaf) for leaf in leaves])
    t = 8
    lines = encode(g, t).to_dimacs().splitlines()
    comments = [ln.split(" : ", 1)[1] for ln in lines if ln.startswith("c var ")]
    s_i = range(2, 8)  # the comment of s_i reads i + 1
    want = [f"edge {e} color <= {n}" for e in range(8) for n in s_i]
    want += [
        f"vertex {hub} color {c} on its first {n} edges" for c in range(1, 9) for n in s_i
    ]
    want += [f"vertex {v} arc-start <= {n}" for v in g.vertices for n in s_i]
    assert comments[(len(g.edges) + len(g.vertices)) * t :] == want


def test_a_ladder_fixes_its_auxiliary_variables():
    """Edge 0 of a one-edge path at t=8 is a ladder over x = 1..8 with the
    auxiliary variables 25..30, after the 24 of x and a. Every assignment of
    all 14 is tried against the ladder's clauses: those within these
    variables that hold a negative literal, which leaves out the edge's
    at-least-one clause."""
    enc = encode(gen_path(1), 8)
    b, s = range(1, 9), range(25, 31)
    ladder = [c for c in enc.clauses if {abs(lit) for lit in c} <= {*b, *s} and min(c) < 0]
    assert len(ladder) == 4 * 8 - 7
    for b_true in itertools.chain.from_iterable(itertools.combinations(b, r) for r in range(9)):
        extensions = []
        for r in range(7):
            for s_true in itertools.combinations(s, r):
                true_vars = {*b_true, *s_true}
                if all(any((lit > 0) == (abs(lit) in true_vars) for lit in c) for c in ladder):
                    extensions.append(s_true)
        if len(b_true) <= 1:
            # s_i, variable 24 + i, is true from the true b on: b_i is variable i + 1
            first = b_true[0] if b_true else 9
            assert extensions == [tuple(range(23 + max(first, 2), 31))], b_true
        else:
            assert extensions == [], b_true


def test_clause_count_closed_form_matches_the_encoding():
    cases = [(gen_gm(2), t) for t in range(1, 10)]
    cases += [(gen_star(4), t) for t in range(1, 6)]  # deg >= t pins a start
    # a block of 7 literals is every pair, one of 8 a ladder
    cases += [(gen_star(n), t) for n in (7, 8) for t in range(7, 10)]
    cases += [(gen_random_tree(20, 1), t) for t in (2, 4, 7)]
    cases += [(gen_random_tree(24, 4), t) for t in (3, 11)]
    for g, t in cases:
        enc = encode(g, t)
        assert _clause_count(g, t) == len(enc.clauses), (g.edges, t)
        # every variable up to num_vars appears in some clause, and no other
        used = {abs(lit) for clause in enc.clauses for lit in clause}
        assert used == set(range(1, enc.num_vars + 1)), (g.edges, t)
    # gm(3) has 27 edges and 13 vertices: nine of degree 3, three of 6 and
    # the hub of 9. gm(4) has 64 and 23: sixteen of degree 4, six of 8 and
    # the hub of 16. Per edge and vertex: one at-least-one clause and an
    # at-most-one block of t literals; per vertex and color, a block over
    # its edges; 2t links per edge; a unit per vertex of degree >= t; t
    # surjectivity clauses. A block of n literals is n(n-1)/2 pairs below
    # n = 8 and a ladder of 4n - 7 clauses and n - 2 variables from there.
    frozen = {
        (3, 13): (
            40 * (1 + 45) + 13 * (9 * 3 + 3 * 15 + 29) + 2 * 27 * 13 + 13,
            40 * 13 + 40 * 11 + 13 * 7,
        ),
        (3, 27): (
            40 * (1 + 101) + 27 * (9 * 3 + 3 * 15 + 29) + 2 * 27 * 27 + 27,
            40 * 27 + 40 * 25 + 27 * 7,
        ),
        (4, 16): (
            87 * (1 + 57) + 16 * (16 * 6 + 6 * 25 + 57) + 2 * 64 * 16 + 1 + 16,
            87 * 16 + 87 * 14 + 16 * (6 * 6 + 14),
        ),
        (4, 64): (
            87 * (1 + 249) + 64 * (16 * 6 + 6 * 25 + 57) + 2 * 64 * 64 + 64,
            87 * 64 + 87 * 62 + 64 * (6 * 6 + 14),
        ),
    }
    assert frozen == {
        (3, 13): (3_868, 1_051),
        (3, 27): (8_292, 2_269),
        (4, 16): (11_959, 3_410),
        (4, 64): (49_398, 14_162),
    }
    for (m, t), (count, n_vars) in frozen.items():
        g = gen_gm(m)
        enc = encode(g, t)
        assert _clause_count(g, t) == count
        assert len(enc.clauses) == count
        assert enc.num_vars == n_vars


def test_encode_refuses_past_the_clause_cap():
    g = gen_path(3)
    # 7 * (1 + 4 * 99999 - 7) + 99999 * (2 + 6 + 1): 3,699,921 clauses, the
    # 7 blocks of t literals being ladders and the two middle vertices'
    # blocks of 2 one pair per color
    with pytest.raises(BudgetError, match=r"t=99999 needs 3699921 clauses, past the cap"):
        encode(g, 99_999)
    # the first t past the cap; the count grows with t
    t = 1 + bisect.bisect_right(range(1, 99_999), CLAUSE_CAP, key=lambda t: _clause_count(g, t))
    assert _clause_count(g, t - 1) <= CLAUSE_CAP < _clause_count(g, t)
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
    # encoding gm(4) at t=64 (49,398 clauses) and writing it peaks near
    # 11 MB. With every at-most-one block pairwise (208,311 clauses) it
    # peaked near 22 MB, and one int per literal occurrence and one string
    # per line took 47 MB.
    g = gen_gm(4)
    tracemalloc.start()
    try:
        text = encode(g, 64).to_dimacs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") > 49_398
    assert peak < 32_000_000, peak
