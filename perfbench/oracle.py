"""Amortized brute-force oracle and answer digests.

The oracle uses only the primitives of ``repro.baselines.naive``: the full
visibility graph over sites plus every obstacle vertex
(``build_full_graph``), one ``_dijkstra`` per site, and ``visibility_mask``
for the last straight hop.  Calling ``naive_conn`` per query rebuilds all
of that for every site and every sample, which costs tens of seconds per
query; here the graph and the per-site distance rows are built once per
scene state and every sampled query position then costs one
``visibility_mask`` call.

A shortest obstructed path bends only at obstacle vertices, so the exact
distance from site ``s`` to a point ``q`` is the minimum, over graph nodes
``v`` visible from ``q``, of ``dist(s, v) + |v q|`` (``v = s`` covers the
straight, unobstructed case).
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.vectorized import visibility_mask
from repro.obstacles.obstacle import Obstacle, ObstacleSet
from repro.obstacles.obstructed import _dijkstra, build_full_graph

TOL = 1e-7
"""Distances agree when they differ by at most ``TOL * max(1, d)``."""

INTERVAL_SAMPLES = 4
"""Answer intervals whose midpoints a CONN/COkNN check samples."""


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Oracle:
    """Exact obstructed distances from every site of one scene state."""

    def __init__(self, obstacles: Sequence[Obstacle],
                 sites: Sequence[Tuple[Any, Tuple[float, float]]]):
        self.obstacles = list(obstacles)
        self._obs = ObstacleSet(self.obstacles)
        self._polys = [p.as_array() for p in self._obs.polys]
        self.payloads = [payload for payload, _ in sites]
        site_xy = [(float(x), float(y)) for _, (x, y) in sites]
        self._adj = build_full_graph(site_xy, self._obs)
        coords = list(site_xy)
        for o in self._obs:
            coords.extend((float(vx), float(vy)) for vx, vy in o.vertices())
        self._xy = np.asarray(coords, dtype=np.float64)
        self._dist = np.array([_dijkstra(self._adj, i)[0]
                               for i in range(len(site_xy))],
                              dtype=np.float64).reshape(len(site_xy), -1)

    def with_site(self, payload: Any, xy: Tuple[float, float]) -> "Oracle":
        """This state plus one site, without rebuilding the graph.

        The new site is one more graph node; the other sites' distance rows
        stay valid (a shortest path never needs to pass through a site), so
        only the new site's row is computed, on this graph with the node
        attached for the duration of one Dijkstra.  The result shares this
        oracle's graph and cannot be extended again.
        """
        other = object.__new__(Oracle)
        other.obstacles = self.obstacles
        other._obs, other._polys = self._obs, self._polys
        other.payloads = self.payloads + [payload]
        other._adj = None
        x, y = float(xy[0]), float(xy[1])
        vis = visibility_mask(x, y, self._xy, self._obs.rects, self._obs.segs,
                              self._polys)
        n = len(self._adj)
        row = {int(j): math.hypot(x - self._xy[j, 0], y - self._xy[j, 1])
               for j in np.nonzero(vis)[0]}
        self._adj.append(row)
        for j, w in row.items():
            self._adj[j][n] = w
        try:
            new_row = np.asarray(_dijkstra(self._adj, n)[0], dtype=np.float64)
        finally:
            for j in row:
                del self._adj[j][n]
            self._adj.pop()
        other._xy = np.vstack([self._xy, [[x, y]]])
        old = np.hstack([self._dist, np.full((len(self._dist), 1), math.inf)])
        other._dist = np.vstack([old, new_row])
        return other

    def distances(self, x: float, y: float) -> np.ndarray:
        """Exact obstructed distance from each site to ``(x, y)``."""
        vis = visibility_mask(x, y, self._xy, self._obs.rects, self._obs.segs,
                              self._polys)
        if not vis.any():
            return np.full(len(self.payloads), math.inf)
        hop = np.hypot(self._xy[vis, 0] - x, self._xy[vis, 1] - y)
        return (self._dist[:, vis] + hop).min(axis=1)

    def blocked_point(self, x: float, y: float) -> bool:
        """Is ``(x, y)`` strictly inside an obstacle (no defined answer)?"""
        return any(getattr(o, "contains_interior", None) is not None
                   and o.contains_interior(x, y) for o in self.obstacles)

    # ------------------------------------------------------------- checks
    def _match_neighbors(self, x: float, y: float,
                         got: Sequence[Tuple[Any, float]], k: int
                         ) -> Optional[str]:
        """``got`` must be the k nearest ``(payload, distance)`` pairs."""
        d = self.distances(x, y)
        index = {p: i for i, p in enumerate(self.payloads)}
        want = sorted(float(v) for v in d if math.isfinite(v))[:k]
        got = [(p, float(v)) for p, v in got if p is not None
               and math.isfinite(v)]
        if len(got) != len(want):
            return f"{len(got)} neighbors at ({x:.6g},{y:.6g}), want {len(want)}"
        for (p, v), w in zip(got, want):
            if p not in index:
                return f"unknown site {p!r}"
            if not _close(v, w) or not _close(v, float(d[index[p]])):
                return (f"site {p!r} at {v!r} near ({x:.6g},{y:.6g}); "
                        f"oracle {float(d[index[p]])!r}, k-th best {w!r}")
        return None

    def check_segment(self, result, seg: Tuple[float, ...], k: int
                      ) -> Optional[str]:
        """CONN/COkNN: compare the k-NN set at sampled parameters.

        Samples sit at the midpoints of the answer's intervals (up to
        ``INTERVAL_SAMPLES`` of them, evenly chosen) and at two fixed
        fractions of the segment, so they avoid split points, where owners
        tie.
        """
        ax, ay, bx, by = seg
        length = math.hypot(bx - ax, by - ay)
        spans = [span for _, span in result.knn_intervals()]
        if spans and (abs(spans[0][0]) > 1e-9
                      or abs(spans[-1][1] - length) > 1e-6 * max(1.0, length)):
            return f"intervals cover [{spans[0][0]}, {spans[-1][1]}] of {length}"
        pick = np.unique(np.linspace(0, len(spans) - 1, INTERVAL_SAMPLES)
                         .round().astype(int)) if spans else []
        ts = [0.5 * (spans[i][0] + spans[i][1]) for i in pick]
        ts += [0.29 * length, 0.71 * length]
        boundaries = {b for lo, hi in spans for b in (lo, hi)}
        for t in ts:
            if any(abs(t - b) < 1e-6 for b in boundaries):
                continue
            x = ax + (bx - ax) * t / length
            y = ay + (by - ay) * t / length
            if self.blocked_point(x, y):
                continue
            err = self._match_neighbors(x, y, result.knn_at(t), k)
            if err:
                return f"t={t!r}: {err}"
        return None

    def check_onn(self, result, xy: Tuple[float, float], k: int
                  ) -> Optional[str]:
        return self._match_neighbors(xy[0], xy[1], result.tuples(), k)

    def check_range(self, result, xy: Tuple[float, float], radius: float
                    ) -> Optional[str]:
        d = self.distances(*xy)
        index = {p: i for i, p in enumerate(self.payloads)}
        got = {}
        for p, v in result.tuples():
            if p not in index or not _close(float(v), float(d[index[p]])):
                return f"site {p!r} at {v!r}, oracle {d[index.get(p, 0)]!r}"
            got[p] = float(v)
        for p, i in index.items():
            within = d[i] <= radius
            if (p in got) != within and not _close(float(d[i]), radius):
                return f"site {p!r} at {float(d[i])!r} vs radius {radius}"
        return None


def check(oracle: Oracle, kind: str, args: Tuple, result) -> Optional[str]:
    """Oracle verdict on one query answer: None, or what is wrong."""
    if kind in ("conn", "coknn"):
        return oracle.check_segment(result, args[0], args[1])
    if kind == "onn":
        return oracle.check_onn(result, args[0], args[1])
    if kind == "range":
        return oracle.check_range(result, args[0], args[1])
    raise ValueError(f"no oracle for {kind!r}")


# ----------------------------------------------------------------- digests
def _canon(value: Any) -> Any:
    """Exact, type-normalized view: every float as its hex form."""
    if isinstance(value, (tuple, list)):
        return [_canon(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def answer_view(kind: str, result) -> Any:
    """The exact floats of an answer that a digest covers."""
    if kind == "conn":
        return _canon(result.tuples())
    if kind == "coknn":
        return _canon([(owners, span, [d for _, d in result.knn_at(
            0.5 * (span[0] + span[1]))]) for owners, span in
            result.knn_intervals()])
    return _canon(result.tuples())


class Digest:
    """Running SHA-256 over the exact answers, in operation order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, kind: str, result) -> None:
        self._h.update(repr((kind, answer_view(kind, result))).encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]

