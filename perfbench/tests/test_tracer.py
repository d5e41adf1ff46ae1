"""Span tracer: self-time arithmetic, install/remove, and no effect on answers."""

import itertools

import pytest

import harness
import tracer as tracer_mod
from workloads import Inputs, Op, mixed_lattice, stratified_sites


class FakeClock:
    """``time`` stand-in whose ``perf_counter`` returns scripted instants."""

    def __init__(self, instants):
        self._it = iter(instants)

    def perf_counter(self):
        return next(self._it)


def test_self_time_is_parent_minus_children(monkeypatch):
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    monkeypatch.setattr(tracer_mod, "time",
                        FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    t = tracer_mod.Tracer()
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    totals = t.totals()
    assert totals["root"] == (10.0 - 3.0 - 4.0, 1)
    assert totals["a"] == (3.0 - 1.0, 1)
    assert totals["b"] == (1.0, 1)
    assert totals["c"] == (4.0, 1)
    assert sum(v for v, _ in totals.values()) == t.root_wall("root") == 10.0
    assert t.subtree_self("root") == {"root": 3.0, "a": 2.0, "b": 1.0,
                                      "c": 4.0}
    assert t.inclusive("a") == 3.0


def test_wrapped_functions_nest_and_recursion_counts_once(monkeypatch):
    monkeypatch.setattr(tracer_mod, "time",
                        FakeClock(float(i) for i in itertools.count()))
    t = tracer_mod.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = t.wrap(fact, "fact")
    with t.span("root"):
        assert traced(3) == 6
    name, parent, _req, start, end = t.arrays()
    assert [t.names[i] for i in name] == ["root", "fact", "fact", "fact"]
    assert parent.tolist() == [-1, 0, 1, 2]
    # Inclusive time counts the outermost call only.
    assert t.inclusive("fact") == end[1] - start[1]
    assert sum(t.subtree_self("root").values()) == t.root_wall("root")


def test_install_replaces_and_remove_restores():
    import importlib

    originals = []
    for module, path, _span in tracer_mod.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        originals.append((owner, attr, owner.__dict__[attr]))
    t = tracer_mod.Tracer()
    with tracer_mod.install(t):
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn
            assert owner.__dict__[attr].__wrapped__ is fn
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn


def tiny_inputs() -> Inputs:
    """A small mixed-kind scene with every query kind and every update."""
    import random

    obstacles = mixed_lattice()[::5]
    sites = stratified_sites(random.Random(3), obstacles)[::4]
    seg = (20.0, 49.0, 38.0, 49.0)
    rect = ("rect", (40.0, 44.0, 42.0, 45.5))
    ops = [Op("conn", (seg, 1)), Op("coknn", (seg, 3)),
           Op("onn", ((60.0, 61.0), 3)), Op("range", ((60.0, 61.0), 30.0)),
           Op("add_obstacle", (rect,)), Op("conn", (seg, 1)),
           Op("add_site", ((99, (30.0, 52.0)),)), Op("coknn", (seg, 3)),
           Op("remove_obstacle", (rect,)), Op("remove_site",
                                             ((99, (30.0, 52.0)),)),
           Op("conn", (seg, 1))]
    return Inputs(sites, obstacles, ops, Op("conn", ((5.0, 50.0, 15.0, 50.0),
                                                    1)))


def run_tiny(tracer=None):
    inputs = tiny_inputs()
    ws, _ = harness.build_workspace(inputs)
    harness.warm_query(ws, inputs)
    return harness.run_phase(ws, inputs.ops, 0.0, len(inputs.ops),
                             tracer=tracer)


def test_tiny_scene_answers_identical_with_wrappers():
    plain = run_tiny()
    t = tracer_mod.Tracer()
    with tracer_mod.install(t):
        traced = run_tiny(tracer=t)
    assert all(r.error is None for r in plain.records + traced.records)
    assert plain.digest == traced.digest
    assert plain.prefix_counters == traced.prefix_counters
    totals = t.totals()
    for span in ("obstacles.visible_region", "obstacles.rows",
                 "routing.traverse", "core.cplc", "routing.patch",
                 "routing.repair", "routing.warm", "query.plan"):
        assert totals[span][1] > 0, span
    # Self times under the harness's root spans add up to their walls.
    for root in (tracer_mod.EXECUTE, tracer_mod.UPDATE):
        assert sum(t.subtree_self(root).values()) == pytest.approx(
            t.root_wall(root), rel=1e-9)
    checked, failures = harness.check_answers(tiny_inputs(), plain.records)
    assert failures == [] and checked == 7
