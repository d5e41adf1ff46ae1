"""Obstacle model.

The paper assumes rectangular obstacles in its evaluation but uses line
segments in its running examples (Section 4: "we use line segments, but not
rectangles, to represent obstacles ... while the ideas can be easily extended
to rectangles").  We support both:

* :class:`RectObstacle` — blocks sight lines that cross its *open* interior;
* :class:`SegmentObstacle` — blocks sight lines that *properly* cross it.

Grazing contact (touching a vertex, running along an edge) never blocks,
because shortest obstructed paths bend exactly at obstacle vertices.

:class:`ObstacleSet` is the batch container the visibility graph works with:
it mirrors the obstacles into numpy arrays so sight-line tests vectorize.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..geometry.point import Point
from ..geometry.predicates import (
    segment_crosses_rect_interior,
    segments_properly_cross,
)
from ..geometry.rectangle import Rect
from ..geometry.segment import Segment
from ..geometry.vectorized import blocked_by_rects, blocked_by_segments

_obstacle_ids = itertools.count()


class Obstacle:
    """Base class: an opaque planar obstacle with vertices and an MBR."""

    __slots__ = ("oid",)

    def __init__(self, oid: int | None = None):
        self.oid = next(_obstacle_ids) if oid is None else oid

    # Subclass responsibilities -------------------------------------------
    def vertices(self) -> Tuple[Point, ...]:
        raise NotImplementedError

    def mbr(self) -> Rect:
        raise NotImplementedError

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """Scalar test: does this obstacle block sight line ``[a, b]``?"""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(oid={self.oid}, mbr={self.mbr()})"

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.oid))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Obstacle) and other.oid == self.oid and \
            type(other) is type(self)


class RectObstacle(Obstacle):
    """A solid axis-aligned rectangular obstacle."""

    __slots__ = ("rect",)

    def __init__(self, xlo: float, ylo: float, xhi: float, yhi: float,
                 oid: int | None = None):
        super().__init__(oid)
        if xhi < xlo or yhi < ylo:
            raise ValueError("rectangle highs must not be below lows")
        self.rect = Rect(float(xlo), float(ylo), float(xhi), float(yhi))

    @classmethod
    def from_rect(cls, rect: Rect, oid: int | None = None) -> "RectObstacle":
        return cls(rect.xlo, rect.ylo, rect.xhi, rect.yhi, oid)

    def vertices(self) -> Tuple[Point, ...]:
        return self.rect.corners()

    def mbr(self) -> Rect:
        return self.rect

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        r = self.rect
        return segment_crosses_rect_interior(ax, ay, bx, by,
                                             r.xlo, r.ylo, r.xhi, r.yhi)

    def contains_interior(self, x: float, y: float) -> bool:
        """True iff ``(x, y)`` is strictly inside (data points may not be)."""
        return self.rect.contains_point_open(x, y)


class PolygonObstacle(Obstacle):
    """A solid *convex* polygon obstacle.

    The paper assumes rectangles "although an obstacle can be in any shape"
    (footnote 1); this class supplies that generality.  Convexity is required
    — it is what makes an obstacle's shadow on the query segment a single
    interval (the property the visible-region machinery relies on).
    Non-convex shapes can be composed from convex pieces.
    """

    __slots__ = ("points", "_arr")

    def __init__(self, points, oid: int | None = None):
        super().__init__(oid)
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        # Normalize to counter-clockwise order.
        area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1] -
                    pts[(i + 1) % len(pts)][0] * pts[i][1]
                    for i in range(len(pts)))
        if area2 == 0.0:
            raise ValueError("degenerate polygon (zero area)")
        if area2 < 0.0:
            pts.reverse()
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cx, cy = pts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < -1e-9 * max(abs(bx - ax) + abs(by - ay), 1.0):
                raise ValueError("polygon must be convex")
        self.points = tuple(Point(x, y) for x, y in pts)
        self._arr = np.asarray(pts, dtype=np.float64)

    def vertices(self) -> Tuple[Point, ...]:
        return self.points

    def as_array(self) -> np.ndarray:
        """Vertices as an (V, 2) float array in counter-clockwise order."""
        return self._arr

    def mbr(self) -> Rect:
        return Rect(float(self._arr[:, 0].min()), float(self._arr[:, 1].min()),
                    float(self._arr[:, 0].max()), float(self._arr[:, 1].max()))

    def contains_interior(self, x: float, y: float, eps: float = 1e-9) -> bool:
        """True iff ``(x, y)`` lies strictly inside the polygon."""
        pts = self._arr
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            scale = max(abs(bx - ax) + abs(by - ay), 1.0)
            if cross <= eps * scale:
                return False
        return True

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        from ..geometry.vectorized import crosses_convex_polygon

        return bool(crosses_convex_polygon(ax, ay, np.asarray([bx]),
                                           np.asarray([by]), self._arr)[0])


class SegmentObstacle(Obstacle):
    """A thin wall: a line-segment obstacle."""

    __slots__ = ("seg",)

    def __init__(self, ax: float, ay: float, bx: float, by: float,
                 oid: int | None = None):
        super().__init__(oid)
        self.seg = Segment(float(ax), float(ay), float(bx), float(by))

    @classmethod
    def from_points(cls, a: tuple, b: tuple, oid: int | None = None) -> "SegmentObstacle":
        (ax, ay), (bx, by) = a, b
        return cls(ax, ay, bx, by, oid)

    def vertices(self) -> Tuple[Point, ...]:
        return (self.seg.start, self.seg.end)

    def mbr(self) -> Rect:
        xlo, ylo, xhi, yhi = self.seg.bbox()
        return Rect(xlo, ylo, xhi, yhi)

    def blocks(self, ax: float, ay: float, bx: float, by: float) -> bool:
        s = self.seg
        return segments_properly_cross(ax, ay, bx, by, s.ax, s.ay, s.bx, s.by)


class PolygonSlab:
    """Convex polygons packed for batched kernels.

    ``verts`` is a (P, Vmax, 2) vertex slab in counter-clockwise order; a
    polygon with fewer than ``Vmax`` vertices repeats its last vertex, which
    adds only zero-length edges.  ``edges`` (P, Vmax) is True for the real
    edges (edge ``i`` runs from vertex ``i`` to ``(i + 1) % Vmax``), and
    ``bounds`` (P, 4) holds each polygon's ``[xlo, ylo, xhi, yhi]``.
    Indexing with a slice or a boolean mask selects polygons (rows), so a
    tail ``slab[k:]`` is the slab of the polygons added after the first k.
    """

    __slots__ = ("verts", "edges", "bounds")

    def __init__(self, verts: np.ndarray, edges: np.ndarray,
                 bounds: np.ndarray):
        self.verts = verts
        self.edges = edges
        self.bounds = bounds

    @classmethod
    def of(cls, polys: Sequence["PolygonObstacle"]) -> "PolygonSlab":
        """Pack ``polys`` into a slab; row i is ``polys[i]``."""
        vmax = max((len(p.points) for p in polys), default=3)
        verts = np.empty((len(polys), vmax, 2), dtype=np.float64)
        edges = np.zeros((len(polys), vmax), dtype=bool)
        for i, poly in enumerate(polys):
            arr = poly.as_array()
            n = arr.shape[0]
            verts[i, :n] = arr
            verts[i, n:] = arr[-1]
            edges[i, :n - 1] = True
            edges[i, -1] = True
        bounds = np.concatenate([verts.min(axis=1), verts.max(axis=1)], axis=1)
        return cls(verts, edges, bounds)

    def __len__(self) -> int:
        return self.verts.shape[0]

    def __getitem__(self, rows) -> "PolygonSlab":
        return PolygonSlab(self.verts[rows], self.edges[rows],
                           self.bounds[rows])


class ObstacleSet:
    """A growable collection of obstacles mirrored into numpy arrays.

    The arrays (``rects`` of shape (N, 4) and ``segs`` of shape (M, 4)) back
    every vectorized sight-line test; convex polygons are mirrored into a
    :class:`PolygonSlab` (``poly_slab``).  The growth pattern is append-only —
    exactly what incremental obstacle retrieval (IOR) produces — with one
    surgical exception: :meth:`remove` deletes a single obstacle so the
    visibility graph's removal repair can shrink its obstacle set in place
    instead of rebuilding it.
    """

    def __init__(self, obstacles: Iterable[Obstacle] = ()):
        self._obstacles: List[Obstacle] = []
        self._rect_rows: List[Tuple[float, float, float, float]] = []
        self._seg_rows: List[Tuple[float, float, float, float]] = []
        self._poly_list: List[PolygonObstacle] = []
        self._rects = np.empty((0, 4), dtype=np.float64)
        self._segs = np.empty((0, 4), dtype=np.float64)
        # Rebuilt lazily by ``poly_slab`` after a polygon is added/removed.
        self._slab: PolygonSlab | None = None
        self._dirty = False
        self.add_many(obstacles)

    # ----------------------------------------------------------- population
    def add(self, obstacle: Obstacle) -> None:
        self._obstacles.append(obstacle)
        if isinstance(obstacle, RectObstacle):
            r = obstacle.rect
            self._rect_rows.append((r.xlo, r.ylo, r.xhi, r.yhi))
        elif isinstance(obstacle, SegmentObstacle):
            s = obstacle.seg
            self._seg_rows.append((s.ax, s.ay, s.bx, s.by))
        elif isinstance(obstacle, PolygonObstacle):
            self._poly_list.append(obstacle)
            self._slab = None
        else:
            raise TypeError(f"unsupported obstacle type {type(obstacle).__name__}")
        self._dirty = True

    def add_many(self, obstacles: Iterable[Obstacle]) -> None:
        for o in obstacles:
            self.add(o)

    def remove(self, obstacle: Obstacle) -> bool:
        """Delete one obstacle (and its primitive row); False when absent.

        Callers holding count-keyed watermarks over the primitive arrays
        must re-key them: removal shifts the rows above the deleted slot
        down, so counts stop being monotone (the visibility graph's
        removal repair normalizes every cached row's watermark for exactly
        this reason).
        """
        try:
            i = self._obstacles.index(obstacle)
        except ValueError:
            return False
        kind_index = sum(1 for o in self._obstacles[:i]
                         if type(o) is type(obstacle))
        del self._obstacles[i]
        if isinstance(obstacle, RectObstacle):
            del self._rect_rows[kind_index]
        elif isinstance(obstacle, SegmentObstacle):
            del self._seg_rows[kind_index]
        else:
            del self._poly_list[kind_index]
            self._slab = None
        self._dirty = True
        return True

    def _refresh(self) -> None:
        if self._dirty:
            self._rects = np.asarray(self._rect_rows, dtype=np.float64).reshape(-1, 4)
            self._segs = np.asarray(self._seg_rows, dtype=np.float64).reshape(-1, 4)
            self._dirty = False

    # ------------------------------------------------------------ accessors
    @property
    def rects(self) -> np.ndarray:
        self._refresh()
        return self._rects

    @property
    def segs(self) -> np.ndarray:
        self._refresh()
        return self._segs

    @property
    def polys(self) -> Sequence["PolygonObstacle"]:
        """Convex polygon obstacles (kept as objects, not arrays)."""
        return self._poly_list

    @property
    def poly_slab(self) -> PolygonSlab:
        """The polygons as one padded :class:`PolygonSlab`, row i = ``polys[i]``."""
        if self._slab is None:
            self._slab = PolygonSlab.of(self._poly_list)
        return self._slab

    @property
    def obstacles(self) -> Sequence[Obstacle]:
        return self._obstacles

    def __len__(self) -> int:
        return len(self._obstacles)

    def __iter__(self):
        return iter(self._obstacles)

    def vertex_count(self) -> int:
        """Total obstacle vertices (4/rectangle, 2/segment, V/polygon)."""
        return (4 * len(self._rect_rows) + 2 * len(self._seg_rows) +
                sum(len(p.points) for p in self._poly_list))

    # ------------------------------------------------------------ predicates
    def blocked(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """True iff any obstacle blocks sight line ``[a, b]``."""
        if blocked_by_rects(ax, ay, bx, by, self.rects).any():
            return True
        if blocked_by_segments(ax, ay, bx, by, self.segs).any():
            return True
        return any(p.blocks(ax, ay, bx, by) for p in self._poly_list)

    def all_vertices(self) -> List[Point]:
        out: List[Point] = []
        for o in self._obstacles:
            out.extend(o.vertices())
        return out
