"""The tracer must survive names that later versions of cycolor drop, report
them as absent rather than zero, and leave every replaced name restored.

    python3 -m pytest -q bench/test_bench_tracer.py
"""

import importlib

import checkout

cy = checkout.import_cycolor()

import run  # noqa: E402  (needs cycolor importable first)
from tracer import Target, Tracer  # noqa: E402
from workloads import PassResult  # noqa: E402


def _resolve(target):
    """The object a target replaces: a function, or the class a proxy stands in for."""
    owner = importlib.import_module(target.module)
    return getattr(owner, target.path.partition(".")[0])


def test_missing_names_are_absent_and_do_not_stop_the_run():
    targets = (
        Target("gone.function", "cycolor.solver", "no_such_function"),
        Target("gone.module", "cycolor.no_such_module", "anything"),
        Target("gone.member", "cycolor.solver", "ColorSet.no_such_member"),
        Target("solver.decide", "cycolor.solver", "decide"),
    )
    with Tracer(targets) as tracer:
        cy.solver.spectrum(cy.gen_cycle(5))
    assert tracer.absent == {"gone.function", "gone.module", "gone.member"}
    assert tracer.stats["solver.decide"].calls > 0


def test_shared_span_is_present_while_any_of_its_names_exists():
    targets = (
        Target("coloring.check", "cycolor.solver", "check_cyclically_interval"),
        Target("coloring.check", "cycolor.solver", "no_longer_imported_here"),
    )
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == set()


def test_wrappers_are_removed_after_the_traced_run():
    before = [_resolve(t) for t in run.TARGETS]
    with Tracer(run.TARGETS) as tracer:
        during = [_resolve(t) for t in run.TARGETS]
        cy.solver.spectrum(cy.gen_cycle(5))
    assert not tracer.absent
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, [_resolve(t) for t in run.TARGETS]))
    assert tracer.stats["intervals.cyclic_span"].calls > 0
    assert tracer.stats["intervals.ColorSet.of"].calls > 0


def test_absent_layers_are_reported_as_absent_not_zero():
    pr = PassResult(spans={"solver.decide": (3, 2.0, 1.0)})
    values = run.layer_metrics(pr, {"intervals.cyclic_span"}, gen_s=0.0)
    assert values["intervals.cyclic_span.calls"][0] is None
    assert values["intervals.arc_share"][0] is None
    assert values["solver.decide.calls"][0] == 3
    assert values["intervals.ColorSet.of.calls"][0] == 0
    shown = run._as_json({"intervals.cyclic_span.calls": values["intervals.cyclic_span.calls"]})
    assert shown["intervals.cyclic_span.calls"] == {"value": None, "unit": "count", "absent": True}
