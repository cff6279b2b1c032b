"""Unit tests for the impossibility-argument audit."""

from __future__ import annotations

import importlib

import pytest

from cycolor.audit import (
    STEP_ARC,
    STEP_BOUNDS,
    STEP_CLASH,
    STEP_GAP,
    STEP_MEMBER,
    STEP_ORDER,
    STEP_UNION,
    AuditParams,
    _facts,
    audit,
    audit_range,
    report_to_dict,
    step_to_dict,
    summary_to_dict,
)
from cycolor.errors import BudgetError, UsageError


def _step(report, name):
    return next(s for s in report.steps if s.name == name)


def test_params_validation():
    with pytest.raises(UsageError, match='m must be an integer >= 2'):
        AuditParams(m=1, k0=0)
    with pytest.raises(UsageError, match='k0=-1 outside'):
        AuditParams(m=2, k0=-1)
    with pytest.raises(UsageError, match='k0=5 outside'):
        AuditParams(m=2, k0=5)  # max is m^3 - m^2 = 4
    with pytest.raises(UsageError, match="m must be an integer >= 2, got '3'"):
        AuditParams(m="3", k0=0)
    with pytest.raises(UsageError, match='k0 must be an integer'):
        AuditParams(m=3, k0=True)
    assert AuditParams(m=3, k0=5).t0 == 14
    assert AuditParams(m=2, k0=4).t0 == 8


def test_m8_k0_zero_passes_with_expected_witnesses():
    rep = audit(AuditParams(m=8, k0=0))
    assert rep.passed and rep.failing_step is None
    assert [s.name for s in rep.steps] == list(STEP_ORDER)
    assert all(s.holds for s in rep.steps)

    bounds = _step(rep, STEP_BOUNDS)
    assert bounds.witnesses == {
        "lower": 31,
        "mid": 32,
        "upper": 35,
        "lower_holds": True,
        "upper_holds": True,
    }

    gap = _step(rep, STEP_GAP)
    assert gap.witnesses == {"left": 36, "right": 30}

    member = _step(rep, STEP_MEMBER)
    assert member.witnesses == {"mid": 32, "i1": 30, "i2": 36}

    union = _step(rep, STEP_UNION)
    assert union.witnesses == {"bound": 30, "t0": 64, "shared_edges": 2}

    arc = _step(rep, STEP_ARC)
    assert arc.witnesses["bound"] == 30
    assert arc.witnesses["cover_hi"] == 36
    assert (arc.witnesses["target_lo"], arc.witnesses["target_hi"]) == (30, 36)
    assert arc.witnesses["instantiable"] is True
    assert arc.witnesses["gap_interior_empty"] is False

    clash = _step(rep, STEP_CLASH)
    assert clash.witnesses == {"mid": 32, "mid_in_complement": False}


def test_m7_fails_at_the_lower_mid_bound():
    rep = audit(AuditParams(m=7, k0=0))
    assert not rep.passed
    assert rep.failing_step == STEP_BOUNDS
    bounds = _step(rep, STEP_BOUNDS)
    assert bounds.witnesses["lower"] == 27
    assert bounds.witnesses["mid"] == 24
    assert bounds.witnesses["lower_holds"] is False
    assert bounds.witnesses["upper_holds"] is True


def test_m8_upper_k0_endpoint_passes():
    rep = audit(AuditParams(m=8, k0=448))
    assert rep.params.t0 == 512
    assert rep.passed


def test_small_m_always_fails_at_bounds():
    for m in range(2, 8):
        for k0 in (0, m**3 - m**2):
            rep = audit(AuditParams(m=m, k0=k0))
            assert not rep.passed
            assert rep.failing_step == STEP_BOUNDS


def test_large_m_spot_checks_pass():
    for m in (50, 333, 1000):
        for k0 in (0, m**3 - m**2):
            assert audit(AuditParams(m=m, k0=k0)).passed


def test_assumptions_and_notes_are_reported():
    rep = audit(AuditParams(m=8, k0=0))
    assert len(rep.assumptions) == 3
    assert any("rotation" in a for a in rep.assumptions)
    assert len(rep.notes) == 1
    assert "shar" in rep.notes[0]  # the union-bound reading is flagged


def test_arc_step_agrees_with_brute_force_enumeration():
    """The symbolic containment argument versus literally trying every arc."""
    for m in (2, 3):
        for k0 in range(0, m**3 - m**2 + 1):
            params = AuditParams(m=m, k0=k0)
            t0 = params.t0
            assert t0 <= 40
            bound = 4 * m - 2
            i1, i2 = 4 * m - 2, t0 - 4 * m + 4
            step = _step(audit(params), STEP_ARC)
            if not (1 <= i1 <= t0 and 1 <= i2 <= t0):
                assert step.holds is False
                assert step.witnesses["instantiable"] is False
                continue
            lo, hi = min(i1, i2), max(i1, i2)
            target = set(range(1, lo + 1)) | set(range(hi, t0 + 1))
            brute = True
            for length in range(1, min(bound, t0) + 1):
                for s in range(1, t0 + 1):
                    arc = {((s - 1 + i) % t0) + 1 for i in range(length)}
                    if 1 in arc and not arc <= target:
                        brute = False
            assert step.holds == brute, (m, k0)


# every k0 of every m the range sweeps, then a stride through m <= 60
_SWEPT = [(m, k0) for m in range(2, 13) for k0 in range(m**3 - m**2 + 1)]
_SWEPT += [
    (m, k0)
    for m in range(13, 61)
    for k0 in (*range(0, m**3 - m**2, (m**3 - m**2) // 17), m**3 - m**2)
]


def test_verdicts_name_the_failing_step_of_the_full_report():
    for m, k0 in _SWEPT:
        flags = _facts(m, k0).steps
        report = audit(AuditParams(m=m, k0=k0))
        assert flags == tuple(s.holds for s in report.steps), (m, k0)
        first = next((name for name, ok in zip(STEP_ORDER, flags) if not ok), None)
        assert first == report.failing_step, (m, k0)


def test_each_verdict_follows_from_the_witnesses_of_its_step():
    for m, k0 in _SWEPT:
        report = audit(AuditParams(m=m, k0=k0))
        holds = {s.name: s.holds for s in report.steps}
        w = {s.name: s.witnesses for s in report.steps}
        bounds = w[STEP_BOUNDS]
        assert bounds["lower_holds"] == (bounds["lower"] <= bounds["mid"]), (m, k0)
        assert bounds["upper_holds"] == (bounds["mid"] <= bounds["upper"]), (m, k0)
        assert holds[STEP_BOUNDS] == (bounds["lower_holds"] and bounds["upper_holds"]), (m, k0)
        assert holds[STEP_GAP] == (w[STEP_GAP]["left"] > w[STEP_GAP]["right"]), (m, k0)
        assert holds[STEP_UNION] == (w[STEP_UNION]["bound"] < w[STEP_UNION]["t0"]), (m, k0)
        arc = w[STEP_ARC]
        covered = arc["cover_lo"] <= arc["target_lo"] and arc["cover_hi"] >= arc["target_hi"]
        assert holds[STEP_ARC] == (
            arc["instantiable"] and (arc["gap_interior_empty"] or covered)
        ), (m, k0)
        assert holds[STEP_CLASH] == (
            holds[STEP_MEMBER]
            and holds[STEP_UNION]
            and holds[STEP_ARC]
            and not w[STEP_CLASH]["mid_in_complement"]
        ), (m, k0)


def test_range_entries_read_fresh_reports():
    for entry in audit_range(2, 20).entries:
        lo, hi = entry.report_lo, entry.report_hi
        assert lo == audit(AuditParams(m=entry.m, k0=0))
        assert hi == audit(AuditParams(m=entry.m, k0=entry.k0_hi))
        assert entry.passed == (lo.passed and hi.passed)
        assert entry.failing_step == (None if entry.passed else lo.failing_step)


def test_range_summary_dict_equals_one_built_from_audit():
    entries = []
    for m, passed, failing in ((7, False, STEP_BOUNDS), (8, True, None)):
        k0_hi = m**3 - m**2
        entries.append(
            {
                "m": m,
                "k0_endpoints": [0, k0_hi],
                "passed": passed,
                "failing_step": failing,
                "exhaustive_k0_sweep": True,
                "report_k0_lo": report_to_dict(audit(AuditParams(m=m, k0=0))),
                "report_k0_hi": report_to_dict(audit(AuditParams(m=m, k0=k0_hi))),
            }
        )
    want = {"m_lo": 7, "m_hi": 8, "all_passed": False, "entries": entries}
    assert summary_to_dict(audit_range(7, 8)) == want


def test_audit_range_over_the_boundary():
    summary = audit_range(2, 9)
    assert (summary.m_lo, summary.m_hi) == (2, 9)
    assert not summary.all_passed
    assert len(summary.entries) == 8
    for entry in summary.entries:
        assert entry.exhaustive_checked  # all m here are <= the default limit
        if entry.m <= 7:
            assert not entry.passed
            assert entry.failing_step == STEP_BOUNDS
        else:
            assert entry.passed
            assert entry.failing_step is None
            assert entry.report_lo.passed and entry.report_hi.passed


def test_audit_range_exhaustive_at_m8():
    summary = audit_range(8, 8)
    entry = summary.entries[0]
    assert entry.k0_hi == 448  # 449 audited cases, k0 = 0..448
    assert entry.exhaustive_checked
    assert summary.all_passed


def test_audit_range_beyond_exhaustive_limit():
    summary = audit_range(13, 14)
    assert summary.all_passed
    assert all(not e.exhaustive_checked for e in summary.entries)


def test_audit_range_over_the_benchmark_range():
    # the argument's mid-color bound 4m - 1 <= floor(m^2 / 2) holds exactly for m >= 8
    summary = audit_range(2, 1000)
    assert [(e.m, e.passed) for e in summary.entries] == [
        (m, 4 * m - 1 <= m * m // 2) for m in range(2, 1001)
    ]
    assert {e.failing_step for e in summary.entries if not e.passed} == {STEP_BOUNDS}
    assert [e.m for e in summary.entries if e.exhaustive_checked] == list(range(2, 13))


def test_audit_range_refuses_more_m_than_its_cap(monkeypatch):
    with pytest.raises(BudgetError, match=r"holds 9999999 values, past the cap 10000$"):
        audit_range(2, 10_000_000)
    # the package exports the function `audit`, which hides the module
    monkeypatch.setattr(importlib.import_module("cycolor.audit"), "RANGE_CAP", 3)
    assert [e.m for e in audit_range(2, 4).entries] == [2, 3, 4]
    with pytest.raises(BudgetError, match=r"\[2, 5\] holds 4 values"):
        audit_range(2, 5)


def test_audit_range_validation():
    with pytest.raises(UsageError, match='need 2 <= m_lo <= m_hi'):
        audit_range(5, 4)
    with pytest.raises(UsageError, match='need 2 <= m_lo <= m_hi'):
        audit_range(1, 3)
    with pytest.raises(UsageError, match='need 2 <= m_lo <= m_hi'):
        audit_range("2", 3)


def test_serialization_shapes():
    rep = audit(AuditParams(m=8, k0=0))
    d = report_to_dict(rep)
    assert d["m"] == 8 and d["k0"] == 0 and d["t0"] == 64
    assert d["passed"] is True and d["failing_step"] is None
    assert [s["name"] for s in d["steps"]] == list(STEP_ORDER)
    assert len(d["assumptions"]) == 3 and len(d["notes"]) == 1

    sd = step_to_dict(rep.steps[0])
    assert set(sd) == {"name", "statement", "holds", "witnesses"}

    summary = summary_to_dict(audit_range(7, 8))
    assert summary["all_passed"] is False
    assert [e["m"] for e in summary["entries"]] == [7, 8]
    assert summary["entries"][0]["failing_step"] == STEP_BOUNDS
    assert summary["entries"][0]["k0_endpoints"] == [0, 294]
    assert summary["entries"][1]["report_k0_hi"]["t0"] == 512


def test_statements_are_instantiated_text():
    rep = audit(AuditParams(m=8, k0=0))
    assert _step(rep, STEP_BOUNDS).statement == "31 <= 32 <= 35"
    assert _step(rep, STEP_GAP).statement == "36 > 30"
