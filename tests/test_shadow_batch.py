"""Batched polygon shadows and the sight-triangle cull.

Hypothesis drives polygon shapes (3-8 vertices mixed in one slab, so the
padding is always exercised), viewpoints (free, on a vertex, on an edge)
and query segments (free, horizontal, lying along a polygon edge).  The
properties:

(a) the batched polygon shadows equal the per-polygon scalar reference
    lists exactly;
(b) the cull is sound: every culled rect, wall or polygon has an empty
    scalar shadow;
(c) the complement of the culled ``shadow_set`` is the scalar visible
    region;
(d) a visibility graph's incrementally narrowed ``visible_region_of``
    equals a fresh computation after polygon inserts and after removals.

Plus the float-type regression (answers carry Python floats, not numpy
scalars) and the shadow work counters' path to ``explain()``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConnQuery, Workspace
from repro.core import coknn, conn
from repro.geometry import IntervalSet, Segment
from repro.obstacles import (
    LocalVisibilityGraph,
    ObstacleSet,
    PolygonObstacle,
    PolygonSlab,
    RectObstacle,
    SegmentObstacle,
    shadow_intervals_polys,
    shadow_intervals_scalar,
    shadow_set,
    sight_cull,
    visible_region,
    visible_region_scalar,
)
from repro.routing.stats import BackendStats
from tests.conftest import build_obstacle_tree, build_point_tree

SETTINGS = settings(max_examples=150, deadline=None)
coord = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def polygons(draw):
    """A convex polygon: 3-8 points on a circle, angular gaps >= 0.3 rad."""
    n = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 2 * math.pi))
    cx, cy = draw(coord), draw(coord)
    radius = draw(st.floats(1.0, 20.0))
    total = sum(gaps)
    angles, acc = [], start
    for g in gaps:
        angles.append(acc)
        acc += 2 * math.pi * g / total
    return PolygonObstacle([(cx + radius * math.cos(a),
                             cy + radius * math.sin(a)) for a in angles])


@st.composite
def rects(draw):
    x, y = draw(coord), draw(coord)
    return RectObstacle(x, y, x + draw(st.floats(0.5, 15.0)),
                        y + draw(st.floats(0.5, 15.0)))


@st.composite
def walls(draw):
    return SegmentObstacle(draw(coord), draw(coord), draw(coord), draw(coord))


def _on_edge(poly: PolygonObstacle, i: int, f: float):
    a = poly.points[i % len(poly.points)]
    b = poly.points[(i + 1) % len(poly.points)]
    return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)


@st.composite
def views(draw, polys):
    """(viewpoint, query segment) with the degenerate placements mixed in."""
    target = polys[draw(st.integers(0, len(polys) - 1))]
    i = draw(st.integers(0, 7))
    mode = draw(st.sampled_from(["free", "vertex", "edge"]))
    if mode == "vertex":
        p = target.points[i % len(target.points)]
        v = (p.x, p.y)
    elif mode == "edge":
        v = _on_edge(target, i, draw(st.floats(0.0, 1.0)))
    else:
        v = (draw(coord), draw(coord))
    qmode = draw(st.sampled_from(["free", "horizontal", "along-edge"]))
    if qmode == "along-edge":
        j = draw(st.integers(0, 7))
        a = _on_edge(target, j, 0.0)
        b = _on_edge(target, j, 1.0)
        q = Segment(a[0], a[1], b[0], b[1])
    elif qmode == "horizontal":
        y = draw(coord)
        x0 = draw(coord)
        q = Segment(x0, y, x0 + draw(st.floats(1.0, 60.0)), y)
    else:
        q = Segment(draw(coord), draw(coord), draw(coord), draw(coord))
    if q.length < 1e-6:
        q = Segment(q.ax, q.ay, q.ax + 10.0, q.ay)
    return v, q


@st.composite
def poly_scenes(draw):
    polys = draw(st.lists(polygons(), min_size=1, max_size=6))
    return polys, draw(views(polys))


@st.composite
def mixed_scenes(draw):
    polys = draw(st.lists(polygons(), min_size=1, max_size=4))
    obstacles = (polys + draw(st.lists(rects(), max_size=4))
                 + draw(st.lists(walls(), max_size=4)))
    return ObstacleSet(obstacles), draw(views(polys))


# ------------------------------------------------------------------- (a)
@SETTINGS
@given(poly_scenes())
def test_batched_polygon_shadows_equal_scalar_lists(scene):
    polys, ((vx, vy), q) = scene
    slab = PolygonSlab.of(polys)
    assert slab.verts.shape[1] == max(len(p.points) for p in polys)
    want = [shadow_intervals_scalar(vx, vy, q, p) for p in polys]
    for i in range(len(polys)):
        # One polygon per call, still padded to the slab's Vmax.
        assert shadow_intervals_polys(vx, vy, q, slab[i:i + 1]) == want[i]
    got = shadow_intervals_polys(vx, vy, q, slab)
    assert got == [iv for ivs in want for iv in ivs]
    assert all(type(x) is float for iv in got for x in iv)


def test_padding_is_invisible_to_the_kernel():
    tri = PolygonObstacle([(4, 1), (6, 1), (5, 2)])
    octa = PolygonObstacle([(20 + 3 * math.cos(k * math.pi / 4),
                             5 + 3 * math.sin(k * math.pi / 4))
                            for k in range(8)])
    slab = PolygonSlab.of([tri, octa])
    assert slab.edges[0].tolist() == [True, True] + [False] * 5 + [True]
    q = Segment(0, 0, 30, 0)
    got = shadow_intervals_polys(5, 3, q, slab)
    assert got == (shadow_intervals_scalar(5, 3, q, tri)
                   + shadow_intervals_scalar(5, 3, q, octa))
    assert got and got[0][0] < 5.0 < got[0][1]


# ------------------------------------------------------------------- (b)
@SETTINGS
@given(mixed_scenes())
def test_cull_drops_only_shadowless_obstacles(scene):
    oset, ((vx, vy), q) = scene
    keep_rects, keep_segs, keep_polys = sight_cull(
        vx, vy, q, oset.rects, oset.segs, oset.poly_slab)
    by_kind = {RectObstacle: [], SegmentObstacle: [], PolygonObstacle: []}
    for o in oset:
        by_kind[type(o)].append(o)
    for keep, kind in ((keep_rects, RectObstacle),
                       (keep_segs, SegmentObstacle),
                       (keep_polys, PolygonObstacle)):
        assert keep.shape == (len(by_kind[kind]),)
        for kept, o in zip(keep, by_kind[kind]):
            if not kept:
                assert shadow_intervals_scalar(vx, vy, q, o) == []


def test_cull_counts_in_tally():
    q = Segment(0, 0, 10, 0)
    oset = ObstacleSet([RectObstacle(4, 1, 6, 2),
                        RectObstacle(80, 80, 90, 90),
                        SegmentObstacle(70, 70, 75, 90),
                        PolygonObstacle([(50, 50), (60, 50), (55, 60)])])
    tally: dict = {}
    shadows = shadow_set(5, 3, q, oset.rects, oset.segs, oset.poly_slab,
                         tally)
    assert tally == {"tested": 1, "culled": 3}
    assert shadows == IntervalSet(shadow_intervals_scalar(
        5, 3, q, oset.obstacles[0]))


# ------------------------------------------------------------------- (c)
@SETTINGS
@given(mixed_scenes())
def test_culled_shadow_set_complement_is_scalar_visible_region(scene):
    oset, ((vx, vy), q) = scene
    shadows = shadow_set(vx, vy, q, oset.rects, oset.segs, oset.poly_slab)
    vr = IntervalSet.full(0.0, q.length).subtract(shadows)
    assert vr == visible_region_scalar(vx, vy, q, oset)
    assert vr == visible_region(vx, vy, q, oset)


# ------------------------------------------------------------------- (d)
@settings(max_examples=60, deadline=None)
@given(st.lists(polygons(), min_size=2, max_size=6),
       st.lists(rects(), max_size=3),
       polygons(),
       st.lists(st.tuples(coord, coord), min_size=1, max_size=5),
       st.integers(0, 10))
def test_incremental_narrowing_matches_fresh(polys, boxes, late, points,
                                             victim):
    q = Segment(0.0, 50.0, 100.0, 52.0)
    half = len(polys) // 2
    vg = LocalVisibilityGraph(q)
    vg.add_obstacles(polys[:half] + boxes)
    nodes = [vg.add_point(x, y) for x, y in points]

    def check():
        for node, (x, y) in zip(nodes, points):
            assert vg.visible_region_of(node) == visible_region(
                x, y, q, vg.obstacles)

    check()                                 # cached at the old watermark
    vg.add_obstacles(polys[half:])          # narrowed by the slab's tail
    check()
    vg.remove_obstacle(vg.obstacles.obstacles[victim % len(vg.obstacles)])
    check()
    vg.add_obstacles([late])                # tail of the rebuilt slab
    check()


# ------------------------------------------------------- float regression
def _numbers(value):
    """Every leaf of an answer that is not an owner id (int) or None."""
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _numbers(v)
    elif value is not None and not isinstance(value, int):
        yield value


SITES = [(0, (10.0, 40.0)), (1, (50.0, 40.0)), (2, (30.0, 10.0)),
         (3, (80.0, 30.0))]
TRIANGLE = PolygonObstacle([(20, 20), (40, 20), (30, 35)])


def test_answers_carry_python_floats_in_polygon_scene():
    q = Segment(0, 25, 60, 25)        # crosses the triangle's interior
    res = conn(build_point_tree(SITES), build_obstacle_tree([TRIANGLE]), q)
    res3 = coknn(build_point_tree(SITES), build_obstacle_tree([TRIANGLE]),
                 q, 2)
    for answer in (res.tuples(), res3.tuples(), res3.knn_intervals()):
        values = list(_numbers(answer))
        assert values and all(type(x) is float for x in values), answer


def test_answers_carry_python_floats_in_mixed_scene():
    obstacles = [TRIANGLE, RectObstacle(55, 20, 65, 28),
                 SegmentObstacle(70, 15, 72, 35),
                 PolygonObstacle([(5, 22), (12, 22), (12, 30), (5, 28)])]
    q = Segment(0, 25, 90, 26)
    res = conn(build_point_tree(SITES), build_obstacle_tree(obstacles), q)
    res3 = coknn(build_point_tree(SITES), build_obstacle_tree(obstacles),
                 q, 3)
    for answer in (res.tuples(), res3.tuples(), res3.knn_intervals()):
        values = list(_numbers(answer))
        assert values and all(type(x) is float for x in values), answer


# ------------------------------------------------------------ counters
def test_shadow_counters_reach_query_stats_and_explain():
    obstacles = [TRIANGLE, RectObstacle(55, 20, 65, 28),
                 RectObstacle(85, 85, 95, 95),
                 SegmentObstacle(70, 15, 72, 35)]
    ws = Workspace.from_points(SITES, obstacles)
    query = ConnQuery(Segment(0, 25, 60, 25))
    res = ws.execute(query)
    stats = res.stats.backend
    assert stats.shadow_primitives_tested > 0
    assert stats.shadow_primitives_culled > 0

    def backend_stats(name):
        return (ws.routing if name == "shared-vg"
                else ws.per_query_backend).stats

    served = backend_stats(res.stats.backend_name)
    assert served.shadow_primitives_tested >= stats.shadow_primitives_tested
    assert served.shadow_primitives_culled >= stats.shadow_primitives_culled
    plan = ws.plan(query)
    chosen = backend_stats(plan.backend)
    assert (f"{chosen.shadow_primitives_tested} primitives tested, "
            f"{chosen.shadow_primitives_culled} culled" in plan.explain())
    total = BackendStats()
    total.merge(stats)
    total.merge(stats)
    assert total.shadow_primitives_tested == 2 * stats.shadow_primitives_tested
    assert total.shadow_primitives_culled == 2 * stats.shadow_primitives_culled
