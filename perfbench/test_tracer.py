"""Tests of the outside-in tracer.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fakepkg():
    """A package `fakepkg` whose `mod.__all__` names a function that is gone."""

    class Result:
        iterations = 3
        ridged = True
        drop_reasons = {"cox": 2}

    mod = types.ModuleType("fakepkg.mod")

    def leaf():
        return Result()

    def outer():  # looks leaf up in its module, as module code does
        mod.leaf()
        return mod.leaf()

    def fails():
        raise ValueError("no")

    for fn in (leaf, outer, fails):
        fn.__module__ = "fakepkg.mod"
        setattr(mod, fn.__name__, fn)
    mod.__all__ = ["leaf", "outer", "fails", "gone", "CONSTANT"]
    mod.CONSTANT = 1.5
    user = types.ModuleType("fakepkg._user")
    user.__all__ = []
    user.leaf_alias = leaf
    pkg = types.ModuleType("fakepkg")
    pkg.__all__ = ["leaf"]
    pkg.leaf = leaf
    modules = {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg._user": user}
    sys.modules.update(modules)
    yield types.SimpleNamespace(pkg=pkg, mod=mod, user=user, leaf=leaf, outer=outer)
    for name in modules:
        del sys.modules[name]


def test_self_times_of_nested_spans_add_up():
    clock = FakeClock()
    tracer = Tracer("fakepkg", clock=clock)
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("b"):
            clock.now = 6.0
            with tracer.span("c"):
                clock.now = 7.0
            clock.now = 9.0
        clock.now = 10.0
    selfs = self_times(tracer.spans)
    assert selfs == [3.0, 3.0, 3.0, 1.0]
    assert sum(selfs) == tracer.roots_total() == 10.0
    stats = tracer.function_stats()
    assert stats["b"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, None), ("x", 1.0, 5.0, 0), ("y", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


def test_wrapped_calls_record_parents_counts_and_errors(fakepkg):
    tracer = Tracer("fakepkg")
    with tracer.installed():
        fakepkg.mod.outer()
        with pytest.raises(ValueError):
            fakepkg.mod.fails()
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("mod.outer", None), ("mod.leaf", 0), ("mod.leaf", 0), ("mod.fails", None)]
    stats = tracer.function_stats()
    assert stats["mod.leaf"]["calls"] == 2
    assert stats["mod.leaf"]["iterations"] == 6
    assert stats["mod.leaf"]["ridged"] == 2
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.roots_total())
    report = tracer.report()
    assert report["reasons"] == {
        "mod.leaf.drop_reasons": {"cox": 4},
        "mod.outer.drop_reasons": {"cox": 2},
    }
    assert report["errors"] == {"mod.fails": {"ValueError": 1}}


def test_every_binding_is_wrapped_and_restored(fakepkg):
    tracer = Tracer("fakepkg")
    with tracer.installed():
        assert fakepkg.pkg.leaf is not fakepkg.leaf
        assert fakepkg.user.leaf_alias is fakepkg.pkg.leaf
        fakepkg.user.leaf_alias()
    assert fakepkg.pkg.leaf is fakepkg.leaf
    assert fakepkg.user.leaf_alias is fakepkg.leaf
    assert fakepkg.mod.outer is fakepkg.outer
    assert [s[0] for s in tracer.spans] == ["mod.leaf"]


def test_name_missing_from_module_is_skipped(fakepkg):
    tracer = Tracer("fakepkg")
    with tracer.installed():
        fakepkg.mod.leaf()
    assert "mod.gone" not in tracer.wrapped
    assert "mod.CONSTANT" not in tracer.wrapped
    assert fakepkg.mod.CONSTANT == 1.5
    # a metric of a function a refactor deleted reads as never called
    metrics = run.per_layer(
        tracer, [run.Op()], run.Op(wall=1.0), run.Op(), {"cli.import_s": [1.0]}
    )
    assert metrics["marginal_cox.evaluate_score.calls"] == 0
    assert metrics["marginal_cox.evaluate_score.total_s"] == 0
    # the traced time went to a function the metrics do not report
    assert metrics["trace.self_sum_frac"] == 0.0


def test_bindings_are_restored_when_the_traced_code_raises(fakepkg):
    mods = (fakepkg.pkg, fakepkg.mod, fakepkg.user)
    before = [dict(vars(m)) for m in mods]
    with pytest.raises(ValueError), Tracer("fakepkg").installed():
        fakepkg.mod.fails()
    assert [dict(vars(m)) for m in mods] == before


def _wcox_bindings():
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "wcox" or name.startswith("wcox."))
        for attr, value in vars(mod).items()
    }


def test_tracing_off_replaces_no_wcox_attribute():
    import wcox.cli  # noqa: F401

    before = _wcox_bindings()
    tracer = Tracer("wcox")
    import wcox

    wcox.parse_scheme("ow")
    assert _wcox_bindings() == before
    assert tracer.spans == []
    with tracer.installed():
        assert _wcox_bindings() != before
        wcox.parse_scheme("ow")
    assert _wcox_bindings() == before
    assert [s[0] for s in tracer.spans] == ["propensity.parse_scheme"]
    assert "engine.fit_cox" in tracer.wrapped
