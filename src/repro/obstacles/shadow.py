r"""Shadow intervals and visible regions (Definition 2 of the paper).

The *visible region* ``VR_{v,q}`` of a viewpoint ``v`` over the query segment
``q`` is the set of parameters ``t`` whose sight line ``[v, q(t)]`` no
obstacle blocks.  Each convex obstacle blocks a single parameter interval —
its *shadow* — because the shadow volume of a convex body under a point light
source is convex, and a convex region meets a line in an interval.

Both computations find the shadow exactly by the candidate-line method: the
blocked predicate can only switch value at parameters where the sight line
passes through an obstacle vertex or where ``q`` itself crosses an obstacle's
supporting line.  We collect those candidate parameters, classify each
elementary gap by testing its midpoint, and take the blocked span.

The numpy versions are what the visibility graph calls.  Each obstacle kind
runs as one batch: rectangles and walls over their (N, 4) arrays, convex
polygons over a padded :class:`~repro.obstacles.obstacle.PolygonSlab` whose
candidate grid, gap midpoints, crossing kernel and gap merging reproduce the
scalar path's float operations, so polygon shadows equal the scalar lists
exactly.  Before any kernel runs, :func:`shadow_set` culls every obstacle
whose bounding box misses the bounding box of the sight triangle
``(v, q.a, q.b)``, padded by ``8 * EPS * scale`` (:func:`sight_cull`)::

    +------v------+
    |     / \     |      [#]  every sight line [v, q(t)] lies inside the
    |    /   \    |           triangle, so an obstacle whose box misses the
    |   /     \   |           triangle's padded box (like [#]) blocks none
    |  /       \  |           of them: it is culled and casts no shadow
    | /         \ |
    a-------------b  q

The scalar functions (:func:`shadow_intervals_scalar`,
:func:`visible_region_scalar`) are the readable reference that the test suite
checks the batched path against; no production path calls them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry.interval import IntervalSet
from ..geometry.predicates import (
    EPS,
    segment_crosses_rect_interior,
    segments_properly_cross,
)
from ..geometry.segment import Segment
from ..geometry.vectorized import (
    crosses_convex_polygon,
    crosses_convex_polygons,
    crosses_rect_interior,
    proper_cross_segments,
)
from .obstacle import (
    Obstacle,
    ObstacleSet,
    PolygonObstacle,
    PolygonSlab,
    RectObstacle,
    SegmentObstacle,
)

_WIDTH_EPS = 1e-9


# --------------------------------------------------------------------- scalar
def _line_param(qseg: Segment, vx: float, vy: float, cx: float, cy: float):
    """Arc-length parameter where line ``v -> c`` meets the line of ``q``."""
    ln = qseg.length
    ux = (qseg.bx - qseg.ax) / ln
    uy = (qseg.by - qseg.ay) / ln
    dx = cx - vx
    dy = cy - vy
    denom = ux * dy - uy * dx
    scale = max(abs(dx) + abs(dy), 1.0)
    if abs(denom) <= EPS * scale:
        return None
    num = (vx - qseg.ax) * dy - (vy - qseg.ay) * dx
    return num / denom


def _classify_blocked(qseg: Segment, vx: float, vy: float,
                      candidates: List[float], blocked_at) -> List[Tuple[float, float]]:
    """Merge elementary gaps between ``candidates`` whose midpoint is blocked."""
    ln = qseg.length
    ts = sorted({min(max(t, 0.0), ln) for t in candidates} | {0.0, ln})
    out: List[Tuple[float, float]] = []
    for lo, hi in zip(ts, ts[1:]):
        if hi - lo <= _WIDTH_EPS:
            continue
        mid = qseg.point_at((lo + hi) * 0.5)
        if blocked_at(mid.x, mid.y):
            if out and abs(out[-1][1] - lo) <= _WIDTH_EPS:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def shadow_intervals_scalar(vx: float, vy: float, qseg: Segment,
                            obstacle: Obstacle) -> List[Tuple[float, float]]:
    """Blocked parameter intervals of one obstacle, scalar reference version."""
    candidates: List[float] = []
    if isinstance(obstacle, RectObstacle):
        r = obstacle.rect
        for cx, cy in r.corners():
            t = _line_param(qseg, vx, vy, cx, cy)
            if t is not None:
                candidates.append(t)
        ln = qseg.length
        ux = (qseg.bx - qseg.ax) / ln
        uy = (qseg.by - qseg.ay) / ln
        if abs(ux) > EPS:
            candidates.append((r.xlo - qseg.ax) / ux)
            candidates.append((r.xhi - qseg.ax) / ux)
        if abs(uy) > EPS:
            candidates.append((r.ylo - qseg.ay) / uy)
            candidates.append((r.yhi - qseg.ay) / uy)

        def blocked_at(mx: float, my: float) -> bool:
            return segment_crosses_rect_interior(vx, vy, mx, my,
                                                 r.xlo, r.ylo, r.xhi, r.yhi)
    elif isinstance(obstacle, SegmentObstacle):
        s = obstacle.seg
        for cx, cy in ((s.ax, s.ay), (s.bx, s.by)):
            t = _line_param(qseg, vx, vy, cx, cy)
            if t is not None:
                candidates.append(t)
        t = qseg.line_intersection_param(s.ax, s.ay, s.bx, s.by)
        if t is not None:
            candidates.append(t)

        def blocked_at(mx: float, my: float) -> bool:
            return segments_properly_cross(vx, vy, mx, my, s.ax, s.ay, s.bx, s.by)
    elif isinstance(obstacle, PolygonObstacle):
        arr = obstacle.as_array()
        n = arr.shape[0]
        for i in range(n):
            t = _line_param(qseg, vx, vy, arr[i, 0], arr[i, 1])
            if t is not None:
                candidates.append(t)
            j = (i + 1) % n
            t = qseg.line_intersection_param(arr[i, 0], arr[i, 1],
                                             arr[j, 0], arr[j, 1])
            if t is not None:
                candidates.append(t)

        def blocked_at(mx: float, my: float) -> bool:
            return bool(crosses_convex_polygon(vx, vy, mx, my, arr))
    else:
        raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")
    return _classify_blocked(qseg, vx, vy, candidates, blocked_at)


def visible_region_scalar(vx: float, vy: float, qseg: Segment,
                          obstacles: ObstacleSet) -> IntervalSet:
    """Visible region via the scalar path (reference / small inputs)."""
    blocked: List[Tuple[float, float]] = []
    for o in obstacles:
        blocked.extend(shadow_intervals_scalar(vx, vy, qseg, o))
    return IntervalSet.full(0.0, qseg.length).subtract(IntervalSet(blocked))


# ----------------------------------------------------------------- vectorized
def _gap_grid(cand: np.ndarray, ln: float) -> np.ndarray:
    """Sort each row of a candidate grid into gap boundaries, in place.

    Column 0 and the last column are the ``0`` and ``ln`` bounds; the
    columns between hold candidate parameters, which are clamped into
    ``[0, ln]`` (``fmax`` reads NaN as 0; infinities clamp to a bound).
    """
    cand[:, 0] = 0.0
    cand[:, -1] = ln
    np.fmax(cand, 0.0, out=cand)
    np.minimum(cand, ln, out=cand)
    cand.sort(axis=1)
    return cand


def _blocked_spans(blocked: np.ndarray, lows: np.ndarray,
                   highs: np.ndarray) -> List[Tuple[float, float]]:
    """Per row, the span from the first to the last blocked gap."""
    any_blocked = blocked.any(axis=1)
    if not any_blocked.any():
        return []
    lo = np.where(blocked, lows, np.inf).min(axis=1)[any_blocked]
    hi = np.where(blocked, highs, -np.inf).max(axis=1)[any_blocked]
    return list(zip(lo.tolist(), hi.tolist()))


def shadow_intervals_rects(vx: float, vy: float, qseg: Segment,
                           rects: np.ndarray) -> List[Tuple[float, float]]:
    """Blocked intervals contributed by each rectangle in ``rects`` (N, 4)."""
    n = rects.shape[0]
    if n == 0:
        return []
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    ux = (qseg.bx - sx) / ln
    uy = (qseg.by - sy) / ln
    xlo, ylo, xhi, yhi = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    edge_cols = (2 if abs(ux) > EPS else 0) + (2 if abs(uy) > EPS else 0)
    cand = np.empty((n, 6 + edge_cols), dtype=np.float64)

    # Candidate parameters from the four corner sight lines.
    dx = rects[:, [0, 2, 2, 0]] - vx  # (N, 4)
    dy = rects[:, [1, 1, 3, 3]] - vy
    denom = ux * dy - uy * dx
    num = (vx - sx) * dy - (vy - sy) * dx
    scale = np.maximum(np.abs(dx) + np.abs(dy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand[:, 1:5] = np.where(np.abs(denom) > EPS * scale, num / denom, 0.0)

    # Candidate parameters where q crosses the rectangles' supporting lines.
    col = 5
    if abs(ux) > EPS:
        cand[:, col] = (xlo - sx) / ux
        cand[:, col + 1] = (xhi - sx) / ux
        col += 2
    if abs(uy) > EPS:
        cand[:, col] = (ylo - sy) / uy
        cand[:, col + 1] = (yhi - sy) / uy
    cand = _gap_grid(cand, ln)

    lows = cand[:, :-1]
    highs = cand[:, 1:]
    mids = 0.5 * (lows + highs)
    wide = (highs - lows) > _WIDTH_EPS
    mx = sx + mids * ux
    my = sy + mids * uy
    blocked = crosses_rect_interior(
        vx, vy, mx, my,
        xlo[:, None], ylo[:, None], xhi[:, None], yhi[:, None],
    ) & wide
    return _blocked_spans(blocked, lows, highs)


def shadow_intervals_segs(vx: float, vy: float, qseg: Segment,
                          segs: np.ndarray) -> List[Tuple[float, float]]:
    """Blocked intervals contributed by each segment obstacle in ``segs`` (M, 4)."""
    m = segs.shape[0]
    if m == 0:
        return []
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    ux = (qseg.bx - sx) / ln
    uy = (qseg.by - sy) / ln
    cand = np.empty((m, 5), dtype=np.float64)

    dx = segs[:, [0, 2]] - vx  # (M, 2) endpoint sight lines
    dy = segs[:, [1, 3]] - vy
    denom = ux * dy - uy * dx
    num = (vx - sx) * dy - (vy - sy) * dx
    scale = np.maximum(np.abs(dx) + np.abs(dy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand[:, 1:3] = np.where(np.abs(denom) > EPS * scale, num / denom, 0.0)

    # Where q crosses the obstacle's own supporting line.
    wx = segs[:, 2] - segs[:, 0]
    wy = segs[:, 3] - segs[:, 1]
    denom2 = ux * wy - uy * wx
    num2 = (segs[:, 0] - sx) * wy - (segs[:, 1] - sy) * wx
    scale2 = np.maximum(np.abs(wx) + np.abs(wy), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand[:, 3] = np.where(np.abs(denom2) > EPS * scale2, num2 / denom2, 0.0)
    cand = _gap_grid(cand, ln)

    lows = cand[:, :-1]
    highs = cand[:, 1:]
    mids = 0.5 * (lows + highs)
    wide = (highs - lows) > _WIDTH_EPS
    mx = sx + mids * ux
    my = sy + mids * uy
    blocked = proper_cross_segments(
        vx, vy, mx, my,
        segs[:, 0][:, None], segs[:, 1][:, None],
        segs[:, 2][:, None], segs[:, 3][:, None],
    ) & wide
    return _blocked_spans(blocked, lows, highs)


def shadow_intervals_polys(vx: float, vy: float, qseg: Segment,
                           slab: PolygonSlab) -> List[Tuple[float, float]]:
    """Blocked intervals of the convex polygons in ``slab``, in slab order.

    One pass over the whole slab replays :func:`shadow_intervals_scalar`
    per polygon: the same candidate parameters (vertex sight lines via
    :func:`_line_param`, edge lines via
    ``Segment.line_intersection_param``), the same clamped gap midpoints
    (``Segment.point_at``), the crossing kernel of
    :func:`crosses_convex_polygon` batched over (P, M) gap midpoints, and
    :func:`_classify_blocked`'s merge rule, so each polygon's intervals
    equal the scalar list exactly, as Python floats.
    """
    p = len(slab)
    if p == 0:
        return []
    verts = slab.verts
    vmax = verts.shape[1]
    ln = qseg.length
    sx, sy = qseg.ax, qseg.ay
    rx = qseg.bx - sx
    ry = qseg.by - sy
    ux = rx / ln
    uy = ry / ln
    cx = verts[:, :, 0]
    cy = verts[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Sight lines through the vertices (_line_param).
        dx = cx - vx
        dy = cy - vy
        denom = ux * dy - uy * dx
        scale = np.maximum(np.abs(dx) + np.abs(dy), 1.0)
        num = (vx - sx) * dy - (vy - sy) * dx
        cand = np.empty((p, 2 * vmax + 2), dtype=np.float64)
        # Rejected (parallel) candidates sit at 0.0, already a gap bound.
        cand[:, 1:vmax + 1] = np.where(np.abs(denom) <= EPS * scale, 0.0,
                                       num / denom)
        # q against each edge's supporting line (line_line_intersection);
        # the zero-length padded edges fail the parallel test like any
        # degenerate edge would.
        nxt = np.arange(1, vmax + 1) % vmax
        ex = cx[:, nxt] - cx
        ey = cy[:, nxt] - cy
        denom2 = rx * ey - ry * ex
        scale2 = (max(abs(rx) + abs(ry), 1.0)
                  * np.maximum(np.abs(ex) + np.abs(ey), 1.0))
        qpx = cx - sx
        qpy = cy - sy
        cand[:, vmax + 1:-1] = np.where(np.abs(denom2) <= EPS * scale2, 0.0,
                                        (qpx * ey - qpy * ex) / denom2 * ln)
    cand = _gap_grid(cand, ln)

    lows = cand[:, :-1]
    highs = cand[:, 1:]
    wide = ~(highs - lows <= _WIDTH_EPS)
    f = ((lows + highs) * 0.5) / ln
    mx = sx + f * (qseg.bx - sx)
    my = sy + f * (qseg.by - sy)
    blocked = crosses_convex_polygons(vx, vy, mx, my, verts, slab.edges) & wide
    rows, cols = blocked.nonzero()
    if rows.size == 0:
        return []
    lo = lows[rows, cols]
    hi = highs[rows, cols]
    # A blocked gap extends the previous one of its polygon when their
    # ends meet within _WIDTH_EPS, exactly as _classify_blocked merges.
    start = np.ones(rows.size, dtype=bool)
    start[1:] = (rows[1:] != rows[:-1]) | ~(np.abs(hi[:-1] - lo[1:])
                                            <= _WIDTH_EPS)
    first = start.nonzero()[0]
    last = np.append(first[1:] - 1, rows.size - 1)
    return list(zip(lo[first].tolist(), hi[last].tolist()))


def sight_cull(vx: float, vy: float, qseg: Segment, rects: np.ndarray,
               segs: np.ndarray, slab: PolygonSlab
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep-masks of the rects, segs and polygons that may cast a shadow.

    Every sight line ``[v, q(t)]`` a shadow kernel tests lies in the
    triangle ``(v, q.a, q.b)``, and an obstacle can only block it at a
    point on it, so an obstacle whose bounding box misses the triangle's
    bounding box has an empty shadow.  The box is padded by ``EPS`` scaled
    by the coordinate magnitude, as the batch kernel's bbox prefilter is:
    the pad dominates both the kernels' tolerant comparisons and the
    rounding of the computed gap midpoints.
    """
    xs = (vx, qseg.ax, qseg.bx)
    ys = (vy, qseg.ay, qseg.by)
    pad = 8.0 * EPS * (1.0 + max(max(map(abs, xs)), max(map(abs, ys))))
    xlo, ylo = min(xs) - pad, min(ys) - pad
    xhi, yhi = max(xs) + pad, max(ys) + pad

    def overlaps(bxlo, bylo, bxhi, byhi) -> np.ndarray:
        return (bxlo <= xhi) & (bxhi >= xlo) & (bylo <= yhi) & (byhi >= ylo)

    none = np.zeros(0, dtype=bool)  # an empty kind needs no box tests
    pb = slab.bounds
    return (overlaps(rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3])
            if rects.shape[0] else none,
            overlaps(np.minimum(segs[:, 0], segs[:, 2]),
                     np.minimum(segs[:, 1], segs[:, 3]),
                     np.maximum(segs[:, 0], segs[:, 2]),
                     np.maximum(segs[:, 1], segs[:, 3]))
            if segs.shape[0] else none,
            overlaps(pb[:, 0], pb[:, 1], pb[:, 2], pb[:, 3])
            if len(slab) else none)


def shadow_set(vx: float, vy: float, qseg: Segment,
               rects: np.ndarray, segs: np.ndarray,
               polys=(), tally: "dict | None" = None) -> IntervalSet:
    """Union of all shadows from viewpoint ``v`` as an :class:`IntervalSet`.

    ``polys`` is a :class:`PolygonSlab` or a sequence of
    :class:`PolygonObstacle`.  Obstacles :func:`sight_cull` rules out are
    dropped before any kernel runs; they cast no shadow, so the union is
    unchanged.  When ``tally`` is given it receives ``tested`` (primitives
    handed to a shadow kernel) and ``culled`` (primitives dropped).
    """
    slab = polys if isinstance(polys, PolygonSlab) else PolygonSlab.of(polys)
    total = rects.shape[0] + segs.shape[0] + len(slab)
    keep_rects, keep_segs, keep_polys = sight_cull(vx, vy, qseg, rects,
                                                   segs, slab)
    rects = rects[keep_rects]
    segs = segs[keep_segs]
    slab = slab[keep_polys]
    if tally is not None:
        tally["tested"] = rects.shape[0] + segs.shape[0] + len(slab)
        tally["culled"] = total - tally["tested"]
    blocked = shadow_intervals_rects(vx, vy, qseg, rects)
    blocked.extend(shadow_intervals_segs(vx, vy, qseg, segs))
    blocked.extend(shadow_intervals_polys(vx, vy, qseg, slab))
    return IntervalSet(blocked)


def visible_region(vx: float, vy: float, qseg: Segment,
                   obstacles: ObstacleSet,
                   tally: "dict | None" = None) -> IntervalSet:
    """Visible region ``VR_{v,q}`` (vectorized; see :func:`shadow_set`)."""
    shadows = shadow_set(vx, vy, qseg, obstacles.rects, obstacles.segs,
                         obstacles.poly_slab, tally)
    return IntervalSet.full(0.0, qseg.length).subtract(shadows)
