"""Seeded inputs for the three benchmark workloads.

A workload is a fixed *map* (an obstacle lattice plus 50 sites) and a
stream of operations.  ``--seed`` generates the stream: every query, every
inserted obstacle and every added site.  The map is generated once from
``MAP_SEED`` with sites stratified one per cell of a 10 x 5 grid, the way
a deployment serves changing traffic over one map; across seeds only the
traffic varies, which keeps a run's latency distribution a property of
the program rather than of one lucky site layout.

Query placements are stratified too (see :class:`CorridorStream` and
:class:`LowDiscrepancy`), so two seeds give different inputs of the same
shape: the same mix of kinds and the same even coverage of the query area.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SIDE = 7
"""Buildings per lattice axis (49 obstacles)."""

MAP = 100.0
N_SITES = 50
KNN = 3
RANGE_RADIUS = 15.0
CORRIDOR_Y = 50.0
CORRIDOR_HALF_WIDTH = 4.0
SEGMENT_LENGTH = (10.0, 25.0)
MAP_SEED = 20090629
"""Seed of the site layout every run shares."""

Point = Tuple[float, float]
Site = Tuple[Any, Point]


@dataclass(frozen=True)
class Op:
    """One operation of a workload's closed loop.

    ``kind`` is a query kind (``conn``, ``coknn``, ``onn``, ``range``) or
    an update (``add_obstacle``, ``remove_obstacle``, ``add_site``,
    ``remove_site``).  ``args`` holds plain data: a segment
    ``(ax, ay, bx, by)``, a point, a radius, an obstacle spec or a site.
    """

    kind: str
    args: Tuple


@dataclass(frozen=True)
class Inputs:
    sites: List[Site]
    obstacles: List[Tuple]
    ops: List[Op]
    warmup: Op
    """The unmeasured query run before timing starts."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, int], Inputs]


# ------------------------------------------------------------------ scenes
def _step() -> float:
    return (MAP - 6.0) / SIDE


def mixed_lattice() -> List[Tuple]:
    """7 x 7 buildings at fill 0.5, cycling wall segment, rect, triangle."""
    step, fill = _step(), 0.5
    out = []
    for gx in range(SIDE):
        for gy in range(SIDE):
            x, y = 3.0 + step * gx, 3.0 + step * gy
            w, h = fill * step, 0.75 * fill * step
            kind = (gx + gy) % 3
            if kind == 0:
                out.append(("segment", (x, y, x + w, y + h)))
            elif kind == 1:
                out.append(("rect", (x, y, x + w, y + h)))
            else:
                out.append(("polygon", ((x, y), (x + w, y),
                                        (x + 0.5 * w, y + h))))
    return out


def rect_lattice() -> List[Tuple]:
    """7 x 7 rect buildings, each 0.4 x 0.3 of the lattice step."""
    step = _step()
    return [("rect", (3 + step * gx, 3 + step * gy,
                      3 + step * gx + 0.4 * step, 3 + step * gy + 0.3 * step))
            for gx in range(SIDE) for gy in range(SIDE)]


def inside(spec: Tuple, x: float, y: float, pad: float = 0.0) -> bool:
    """Is ``(x, y)`` in the interior of the obstacle ``spec`` (grown by
    ``pad``)?  Wall segments have no interior."""
    kind, geom = spec
    if kind == "rect":
        x0, y0, x1, y1 = geom
        return x0 - pad < x < x1 + pad and y0 - pad < y < y1 + pad
    if kind == "polygon":
        n = len(geom)
        for i in range(n):
            (ax, ay), (bx, by) = geom[i], geom[(i + 1) % n]
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            if cross <= -pad * math.hypot(bx - ax, by - ay):
                return False
        return True
    return False


def free(obstacles: Sequence[Tuple], x: float, y: float,
         pad: float = 0.0) -> bool:
    return not any(inside(o, x, y, pad) for o in obstacles)


def stratified_sites(rng: random.Random, obstacles: Sequence[Tuple],
                     first_id: int = 0) -> List[Site]:
    """One site uniformly inside each cell of a 10 x 5 grid, off obstacles."""
    cols, rows = 10, N_SITES // 10
    cw, ch = MAP / cols, MAP / rows
    sites: List[Site] = []
    for cx in range(cols):
        for cy in range(rows):
            while True:
                x = cw * cx + rng.uniform(0.0, cw)
                y = ch * cy + rng.uniform(0.0, ch)
                if free(obstacles, x, y, pad=1e-3):
                    break
            sites.append((first_id + len(sites), (x, y)))
    return sites


class LowDiscrepancy:
    """Randomly shifted Kronecker sequence in ``dims`` dimensions.

    Point ``j`` is ``frac(shift + j * alpha)`` with the generalized golden
    ratio as ``alpha``: any prefix covers the unit cube evenly, while the
    random shift (drawn from the seed) moves every point.
    """

    def __init__(self, rng: random.Random, dims: int):
        phi = 2.0
        for _ in range(64):  # root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.alpha = [phi ** -(d + 1) % 1.0 for d in range(dims)]
        self.shift = [rng.random() for _ in range(dims)]
        self.j = 0

    def next(self) -> List[float]:
        self.j += 1
        return [(s + self.j * a) % 1.0
                for s, a in zip(self.shift, self.alpha)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def cuts_interior(spec: Tuple, seg: Tuple[float, ...]) -> bool:
    """Does the horizontal segment ``seg`` pass through the open interior
    of the rect or convex polygon ``spec``?  Walls have no interior."""
    kind, geom = spec
    ax, y, bx, _ = seg
    if kind == "rect":
        x0, y0, x1, y1 = geom
        return y0 < y < y1 and ax < x1 and bx > x0
    if kind != "polygon":
        return False
    xs = []
    for (px, py), (qx, qy) in zip(geom, geom[1:] + geom[:1]):
        if (py - y) * (qy - y) < 0:
            xs.append(px + (qx - px) * (y - py) / (qy - py))
    return len(xs) == 2 and ax < max(xs) and bx > min(xs)


class CorridorStream:
    """Horizontal segments 10-25 long with y in the corridor 50 +- 4.

    The band's lower part runs through a row of buildings, and a segment
    that cuts through a building interior costs about ten times more than
    one in open space (parts of it are unreachable, so every site gets
    evaluated); among open segments, cost grows with length.  The stream
    is therefore stratified on those two properties of the input: each
    round holds, per kind, ``ROUND`` segments of which exactly one cuts
    through a building and the others take one length stratum each, in a
    seeded order, with kinds alternating.  Positions are uniform within a
    stratum.  A segment is drawn when it is issued, against the obstacles
    live at that point of the stream.
    """

    ROUND = 4

    def __init__(self, rng: random.Random, kinds: Sequence[str],
                 obstacles: Sequence[Tuple]):
        self.rng = rng
        self.kinds = tuple(kinds)
        self.obstacles = list(obstacles)
        self._plan: List[Tuple[str, Optional[int]]] = []

    def draw(self, stratum: Optional[int],
             extra: Sequence[Tuple] = ()) -> Tuple[float, ...]:
        """A segment cutting through a building (``stratum`` None), or an
        open one with its length in stratum ``stratum`` of ``ROUND - 1``."""
        rng, live = self.rng, self.obstacles + list(extra)
        lo, hi = SEGMENT_LENGTH
        if stratum is not None:
            width = (hi - lo) / (self.ROUND - 1)
            lo, hi = lo + width * stratum, lo + width * (stratum + 1)
        while True:
            length = rng.uniform(lo, hi)
            ax = rng.uniform(5.0, MAP - 5.0 - length)
            y = rng.uniform(CORRIDOR_Y - CORRIDOR_HALF_WIDTH,
                            CORRIDOR_Y + CORRIDOR_HALF_WIDTH)
            seg = (ax, y, ax + length, y)
            if any(cuts_interior(o, seg) for o in live) == (stratum is None):
                return seg

    def next(self, extra: Sequence[Tuple] = ()
             ) -> Tuple[str, Tuple[float, ...]]:
        """The next ``(kind, segment)``; ``extra`` are obstacles inserted
        on top of the map at this point of the stream."""
        if not self._plan:
            per_kind = []
            for kind in self.kinds:
                strata: List[Optional[int]] = [None, *range(self.ROUND - 1)]
                self.rng.shuffle(strata)
                per_kind.append([(kind, s) for s in strata])
            self._plan = [cell for group in zip(*per_kind) for cell in group]
            self._plan.reverse()
        kind, stratum = self._plan.pop()
        return kind, self.draw(stratum, extra)


def warmup_query(rng: random.Random, obstacles: Sequence[Tuple]) -> Op:
    return Op("conn", (CorridorStream(rng, ("conn",), obstacles).draw(1), 1))


# --------------------------------------------------------------- workloads
def corridor_mixed(seed: int, n_ops: int) -> Inputs:
    rng = random.Random(seed)
    obstacles = mixed_lattice()
    sites = stratified_sites(random.Random(MAP_SEED), obstacles)
    warmup = warmup_query(rng, obstacles)
    stream = CorridorStream(rng, ("conn", "coknn"), obstacles)
    ops = []
    for _ in range(n_ops):
        kind, seg = stream.next()
        ops.append(Op(kind, (seg, 1 if kind == "conn" else KNN)))
    return Inputs(sites, obstacles, ops, warmup)


LATTICE_MIX = ("conn", "coknn", "conn", "onn", "range")
"""CONN : COkNN : ONN : range = 2 : 1 : 1 : 1."""


def lattice_kinds(seed: int, n_ops: int) -> Inputs:
    rng = random.Random(seed)
    obstacles = rect_lattice()
    sites = stratified_sites(random.Random(MAP_SEED), obstacles)
    warmup = warmup_query(rng, obstacles)
    seqs = {kind: LowDiscrepancy(rng, 3) for kind in dict.fromkeys(LATTICE_MIX)}
    ops = []
    for i in range(n_ops):
        kind = LATTICE_MIX[i % len(LATTICE_MIX)]
        seq = seqs[kind]
        while True:
            ux, uy, ul = seq.next()
            if kind in ("conn", "coknn"):
                length = _lerp(*SEGMENT_LENGTH, ul)
                x = _lerp(2.0, MAP - 2.0 - length, ux)
                y = _lerp(2.0, MAP - 2.0, uy)
                if free(obstacles, x, y) and free(obstacles, x + length, y):
                    args = ((x, y, x + length, y),
                            1 if kind == "conn" else KNN)
                    break
            else:
                x, y = _lerp(2.0, MAP - 2.0, ux), _lerp(2.0, MAP - 2.0, uy)
                if free(obstacles, x, y, pad=1e-3):
                    args = ((x, y), KNN if kind == "onn" else RANGE_RADIUS)
                    break
        ops.append(Op(kind, args))
    return Inputs(sites, obstacles, ops, warmup)


CHURN_ROUND = ("add_obstacle", "add_site", "remove_obstacle", "remove_site")
"""Each churn round: insert a rect, add a site, remove both again.  Every
update is followed by ``routing.warm()`` and one CONN corridor query."""


def churn(seed: int, n_rounds: int) -> Inputs:
    rng = random.Random(seed)
    obstacles = mixed_lattice()
    sites = stratified_sites(random.Random(MAP_SEED), obstacles)
    warmup = warmup_query(rng, obstacles)
    stream = CorridorStream(rng, ("conn",), obstacles)
    ops: List[Op] = []
    for r in range(n_rounds):
        while True:
            x = rng.uniform(15.0, 75.0)
            y = CORRIDOR_Y + rng.uniform(-8.0, 6.0)
            rect = ("rect", (x, y, x + rng.uniform(1.0, 3.0),
                             y + rng.uniform(1.0, 3.0)))
            if all(not inside(rect, sx, sy, pad=1e-3)
                   for _, (sx, sy) in sites):
                break
        while True:
            sx = rng.uniform(10.0, MAP - 10.0)
            sy = CORRIDOR_Y + rng.uniform(-10.0, 10.0)
            if free(obstacles + [rect], sx, sy, pad=1e-3):
                break
        site = (N_SITES + r, (sx, sy))
        for kind in CHURN_ROUND:
            ops.append(Op(kind, (rect,) if "obstacle" in kind else (site,)))
            live = [rect] if kind in ("add_obstacle", "add_site") else []
            ops.append(Op("conn", (stream.next(live)[1], 1)))
    return Inputs(sites, obstacles, ops, warmup)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("corridor-mixed",
             "CONN and COkNN(k=3) on a 50+-4 corridor through rect, wall and "
             "triangle buildings: polygon and wall shadows make visible "
             "regions most of the work",
             corridor_mixed),
    Workload("lattice-kinds",
             "CONN:COkNN:ONN:range 2:1:1:1 spread over a rect-only lattice: "
             "traversal, row reads and CPLC dominate, visible regions are "
             "minor",
             lattice_kinds),
    Workload("churn",
             "obstacle and site insert/remove rounds on one workspace, each "
             "followed by warm() and a CONN corridor query: insert patching, "
             "removal repair and memo invalidation",
             churn),
)}
