"""The amortized oracle agrees with the naive baseline and rejects bad answers."""

import numpy as np
import pytest

import harness
import oracle as oracle_mod
from repro.baselines.naive import brute_distance_function
from repro.geometry.segment import Segment
from test_tracer import tiny_inputs


@pytest.fixture(scope="module")
def scene():
    inputs = tiny_inputs()
    obstacles = [harness.make_obstacle(s) for s in inputs.obstacles]
    return inputs, obstacles, oracle_mod.Oracle(obstacles, inputs.sites)


def test_distances_match_naive_baseline(scene):
    inputs, obstacles, oracle = scene
    seg = Segment(12.0, 47.5, 80.0, 47.5)
    ts = np.linspace(0.0, seg.length, 7)
    got = np.array([oracle.distances(seg.ax + t, seg.ay) for t in ts]).T
    for row, (_payload, xy) in zip(got, inputs.sites):
        want = brute_distance_function(xy, obstacles, seg, ts)
        np.testing.assert_allclose(row, want, rtol=1e-9)


def test_with_site_matches_rebuild(scene):
    inputs, obstacles, oracle = scene
    extra = (99, (30.0, 52.0))
    grown = oracle.with_site(*extra)
    rebuilt = oracle_mod.Oracle(obstacles, inputs.sites + [extra])
    for xy in ((25.0, 49.0), (70.0, 20.0), (52.0, 88.0)):
        np.testing.assert_allclose(grown.distances(*xy),
                                   rebuilt.distances(*xy), rtol=1e-12)


class Corrupted:
    """A CONN/COkNN answer with the nearest owner replaced."""

    def __init__(self, result, owner):
        self._result, self._owner = result, owner

    def knn_intervals(self):
        return self._result.knn_intervals()

    def knn_at(self, t):
        rows = self._result.knn_at(t)
        return [(self._owner, rows[0][1])] + rows[1:]

    def tuples(self):
        return [(self._owner, d) for _, d in self._result.tuples()]


def test_real_answers_pass_and_corrupted_answers_fail(scene):
    inputs, _obstacles, oracle = scene
    ws, _ = harness.build_workspace(inputs)
    wrong = inputs.sites[-1][0]
    for op in inputs.ops[:4]:
        result = ws.execute(harness.make_query(op))
        assert oracle_mod.check(oracle, op.kind, op.args, result) is None
        if op.kind == "range":
            continue
        first = (result.knn_at(1.0)[0][0] if op.kind in ("conn", "coknn")
                 else result.tuples()[0][0])
        bad = Corrupted(result, wrong if first != wrong else inputs.sites[0][0])
        assert oracle_mod.check(oracle, op.kind, op.args, bad), op.kind


def test_digest_sees_the_last_bit():
    class Fixed:
        def __init__(self, v):
            self._rows = [(1, v)]

        def tuples(self):
            return self._rows

    a, b = oracle_mod.Digest(), oracle_mod.Digest()
    a.add("onn", Fixed(1.0))
    b.add("onn", Fixed(np.nextafter(1.0, 2.0)))
    assert a.hexdigest() != b.hexdigest()
    c = oracle_mod.Digest()
    c.add("onn", Fixed(np.float64(1.0)))
    assert a.hexdigest() == c.hexdigest()
