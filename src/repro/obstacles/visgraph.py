"""The local visibility graph (Sections 1 and 4.1 of the paper).

Rather than materializing the global visibility graph over all obstacles
(``O(n^2)`` space, poor scalability — the paper's "FULL" yardstick), CONN
processing grows a *local* graph containing only the query segment endpoints,
the data point currently under evaluation, and the vertices of the obstacles
retrieved so far by IOR.

Two design points keep it fast at benchmark scale:

* **Lazy adjacency rows.**  The sight-line edges of a node are computed only
  when Dijkstra first settles it, with one vectorized pass over all nodes and
  all retrieved obstacles, and are then cached for every later traversal
  (the obstacle skeleton is shared by all evaluated data points).  Most
  obstacle vertices are never settled by any traversal, so most of the
  ``O(|VG|^2)`` edge work never happens.
* **Incremental repair.**  When IOR inserts obstacles, cached rows are
  repaired in place: entries blocked by the new obstacles are dropped (one
  vectorized test per batch) and sight lines to the new vertices are added
  (one pairwise kernel per batch).  Transient data points participate through
  the same rows and are unlinked on removal via a mentions index.

The graph also caches each node's visible region ``VR_{v,q}`` with an
obstacle watermark, so a cached region is lazily narrowed by exactly the
shadows of obstacles added since it was computed.

Traversals run on the library-wide resumable Dijkstra
(:class:`repro.routing.dijkstra.Traversal`) and are memoized per source:
a repeated ``dijkstra_order`` / ``shortest_path`` / ``shortest_distances``
call over an unchanged graph replays the settled shortest-path tree and
resumes the frontier instead of restarting from scratch.  Any mutation
(node added, obstacle inserted, transient point removed) bumps the graph's
generation and lazily invalidates the memo.

A graph may also be built *unanchored* (``qseg=None``): no endpoint nodes
exist until :meth:`bind` attaches a query segment's endpoints as transient
nodes, and :meth:`unbind` detaches them again.  This is the mode the
workspace-shared backend of :mod:`repro.routing` uses to keep one obstacle
skeleton alive across many queries.
"""

from __future__ import annotations

import bisect
import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..geometry.interval import IntervalSet
from ..geometry.point import Point
from ..geometry.predicates import EPS
from ..geometry.segment import Segment
from ..geometry.vectorized import (
    BATCH_TILE_ELEMS,
    blocked_batch,
    crosses_convex_polygon,
    crosses_rect_interior,
    primitive_bounds,
    proper_cross_segments,
)
from ..routing.config import ARRAY_ENGINE, SCALAR_ENGINE
from ..routing.dijkstra import ArrayTraversal, Traversal
from .obstacle import Obstacle, ObstacleSet
from .shadow import shadow_set, visible_region

_MAX_TRAVERSAL_MEMO = 64
"""Memoized shortest-path trees kept per graph (oldest dropped first)."""


def _segment_hits_box(vx: float, vy: float, tx, ty,
                      xlo: float, ylo: float, xhi: float, yhi: float):
    """Slab clip: do segments ``(vx, vy) -> (tx[i], ty[i])`` cross the box?

    ``tx`` / ``ty`` broadcast (arrays or scalars); returns a boolean of
    their shape.  Used by removal repair to keep only absent pairs the
    removed obstacle could actually have been blocking: a blocking
    decision implies the sight segment runs through the obstacle, hence
    through its mbr — and the box arrives pre-padded by the kernel
    tolerance bound, which also dominates this clip's own rounding.  Zero
    direction components are replaced by a denormal so the slab division
    yields correctly signed infinities instead of NaNs.
    """
    dx = tx - vx
    dy = ty - vy
    dxs = np.where(dx == 0.0, 1e-300, dx)
    dys = np.where(dy == 0.0, 1e-300, dy)
    t1 = (xlo - vx) / dxs
    t2 = (xhi - vx) / dxs
    u1 = (ylo - vy) / dys
    u2 = (yhi - vy) / dys
    lo = np.maximum(np.minimum(t1, t2), np.minimum(u1, u2))
    hi = np.minimum(np.maximum(t1, t2), np.maximum(u1, u2))
    return np.maximum(lo, 0.0) <= np.minimum(hi, 1.0)


class LocalVisibilityGraph:
    """An incrementally grown visibility graph tied to one query segment.

    Args:
        qseg: the query segment the graph is anchored to, or ``None`` for
            an unanchored skeleton that queries :meth:`bind` to later.
        obstacles: optional already-retrieved obstacle skeleton to seed the
            graph with (e.g. from a :class:`~repro.service.ObstacleCache`);
            equivalent to calling :meth:`add_obstacles` right after
            construction.
        engine: ``"array"`` (default) stores adjacency as flat CSR-style
            arrays — one pooled ``indices``/``weights`` slab plus a
            per-node span map — materializes rows through the batched
            visibility kernel, and traverses on the array-backed Dijkstra;
            ``"scalar"`` keeps the original dict-of-dict rows and scalar
            traversal as the byte-identical parity oracle.
        prefetch: frontier-prefetch wave width.  When an array traversal
            settles a node whose row is missing, up to this many frontier
            rows (nearest first) materialize in one batched pass via
            :meth:`materialize_rows`; ``0``/``1`` keeps one launch per
            settle.  Row content and settle order are unchanged.
    """

    def __init__(self, qseg: Optional[Segment] = None,
                 obstacles: Optional[Iterable[Obstacle]] = None,
                 engine: str = ARRAY_ENGINE, prefetch: int = 0,
                 bulk_build: bool = True):
        if engine not in (ARRAY_ENGINE, SCALAR_ENGINE):
            raise ValueError(f"unknown visibility-graph engine {engine!r}")
        self.engine = engine
        self.frontier_prefetch = prefetch
        # Eager warmups (build_all) cut all missing rows in one batched
        # pass when set; cleared, they walk the per-node path — the
        # parity oracle the bulk path must match byte-for-byte.
        self.bulk_build = bulk_build
        self.qseg = qseg
        self.obstacles = ObstacleSet()
        self._obstacle_keys: Set[Obstacle] = set()
        # obstacle -> the node ids its vertices registered as, so removal
        # repair can delete exactly that obstacle's own nodes.
        self._obstacle_nodes: Dict[Obstacle, List[int]] = {}
        self._xy: List[Tuple[float, float]] = []
        self._alive: List[bool] = []
        self._transient: List[bool] = []
        # Scalar engine: lazily computed adjacency rows, node ->
        # {neighbor: weight}.  Both engines stamp each row with a staleness
        # watermark (rect rows, seg rows, polys, node count).
        self._rows: Dict[int, Dict[int, float]] = {}
        self._row_marks: Dict[int, Tuple[int, int, int, int]] = {}
        # Epoch stamps backing the O(1) staleness checks of the hot paths:
        # _struct_epoch advances on every structural insertion (obstacles,
        # permanent nodes) and never on transient bind/unbind churn, so a
        # row or visible region whose recorded epoch matches is current
        # without rebuilding and comparing count tuples.
        self._struct_epoch = 0
        self._row_epochs: Dict[int, int] = {}
        # Array engine: the same rows as spans into one pooled flat slab —
        # but *permanent* targets only.  A row's entries sit at
        # _indices[s:e] / _weights[s:e] with (s, e) = _indptr[node];
        # shrinks happen in place, growth relocates the row to the end of
        # the pool (compact() repacks).  Edges to the short-lived transient
        # nodes never enter the slab: they are appended at read time from
        # the per-transient visibility columns, so binding a query's
        # endpoints/data point does not invalidate a single cached row.
        self._indices = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._pool_used = 0
        self._indptr: Dict[int, Tuple[int, int]] = {}
        # Array engine: per-transient-node visibility/weight columns —
        # blocked(v -> p) and weight(v, p) for every slot v, one batched
        # kernel call per column — so a transient's edges cost a lookup
        # per row read, not a kernel launch.
        self._cols: Dict[int, Tuple[np.ndarray, np.ndarray,
                                    Tuple[int, int, int]]] = {}
        # Permanent-node slot ids in insertion order: the array engine's
        # row watermark counts these (transients never invalidate rows).
        self._perm_ids: List[int] = []
        # Currently-bound transient slot ids in binding order.
        self._live_transients: List[int] = []
        # (generation, ids, blocked-matrix, weight-matrix, any-blocked) stack
        # of the live transients' columns, so a row read appends transient
        # edges with a couple of vector ops instead of a per-transient cache
        # probe.
        self._tblock: Optional[Tuple[int, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]] = None
        # Numpy mirrors of _xy/_alive/_transient (capacity-doubling, first
        # len(_xy) entries valid) feeding the batch kernels.
        self._coords_np = np.empty((16, 2), dtype=np.float64)
        self._alive_np = np.zeros(16, dtype=bool)
        self._transient_np = np.zeros(16, dtype=bool)
        # For transient nodes: which cached rows mention them.
        self._mentions: Dict[int, Set[int]] = {}
        # node -> (visible region, (rect rows, seg rows, polys) watermark,
        # struct epoch at which that watermark was recorded)
        self._vr_cache: Dict[int, Tuple[IntervalSet, Tuple[int, int, int],
                                        int]] = {}
        # Per-node Euclidean distance to the bound query segment, the
        # admissible heuristic behind bounded-traversal pruning.  Lazily
        # extended as nodes appear; reset when the anchor segment changes
        # (identity check) or coordinates are remapped by compact().
        self._h_np = np.empty(0, dtype=np.float64)
        self._h_len = 0
        self._h_qseg: Optional[Segment] = None
        self.visibility_tests = 0
        self.dijkstra_runs = 0
        self.dijkstra_replays = 0
        self.nodes_settled = 0
        self.batch_visibility_calls = 0
        self.batched_edges_tested = 0
        self.kernel_pruned_edges = 0
        self.shadow_primitives_tested = 0
        self.shadow_primitives_culled = 0
        self.heap_bulk_pushes = 0
        self.array_traversals = 0
        self.rows_bulk_materialized = 0
        self.bulk_pair_launches = 0
        self.removal_repairs = 0
        self.repair_retested_pairs = 0
        # (rect rows, seg rows) watermark -> primitive-bounds slabs for the
        # batch kernel's bbox prefilter; obstacle arrays are append-only,
        # so the count pair keys validity.
        self._bounds_cache: Optional[Tuple[int, int, np.ndarray,
                                           np.ndarray]] = None
        self._generation = 0
        self._traversals: Dict[int, Traversal] = {}
        self.S = -1
        self.E = -1
        if qseg is not None:
            self.S = self._new_node(qseg.ax, qseg.ay, transient=False)
            self.E = self._new_node(qseg.bx, qseg.by, transient=False)
        if obstacles is not None:
            self.add_obstacles(obstacles)

    # -------------------------------------------------------------- binding
    def bind(self, qseg: Segment) -> None:
        """Anchor an unanchored graph to one query segment.

        The endpoints enter as *transient* nodes, so a workspace-shared
        skeleton serves a sequence of queries by bind/unbind pairs without
        accumulating permanent per-query state.  Cached visible regions are
        dropped (they are relative to the previous anchor).
        """
        if self.qseg is not None:
            raise RuntimeError("graph is already bound to a query segment; "
                               "unbind() first")
        self.qseg = qseg
        self._vr_cache.clear()
        self.S = self.add_point(qseg.ax, qseg.ay)
        self.E = self.add_point(qseg.bx, qseg.by)

    def unbind(self) -> None:
        """Detach the endpoints attached by :meth:`bind`."""
        if self.qseg is None:
            raise RuntimeError("graph is not bound")
        if not self._transient[self.S]:
            raise RuntimeError("graph was anchored at construction; only "
                               "bind()-attached endpoints can be detached")
        self.remove_point(self.E)
        self.remove_point(self.S)
        self.S = self.E = -1
        self.qseg = None
        self._vr_cache.clear()

    # ---------------------------------------------------------------- nodes
    def _new_node(self, x: float, y: float, transient: bool) -> int:
        node = len(self._xy)
        self._xy.append((x, y))
        self._alive.append(True)
        self._transient.append(transient)
        if transient:
            self._live_transients.append(node)
        else:
            self._perm_ids.append(node)
            self._struct_epoch += 1
        if node >= self._alive_np.size:
            self._grow_mirrors(2 * self._alive_np.size)
        self._coords_np[node, 0] = x
        self._coords_np[node, 1] = y
        self._alive_np[node] = True
        self._transient_np[node] = transient
        self._generation += 1
        return node

    def _grow_mirrors(self, cap: int) -> None:
        coords = np.empty((cap, 2), dtype=np.float64)
        coords[:self._coords_np.shape[0]] = self._coords_np
        self._coords_np = coords
        alive = np.zeros(cap, dtype=bool)
        alive[:self._alive_np.size] = self._alive_np
        self._alive_np = alive
        transient = np.zeros(cap, dtype=bool)
        transient[:self._transient_np.size] = self._transient_np
        self._transient_np = transient

    def _rebuild_mirrors(self) -> None:
        n = len(self._xy)
        cap = max(16, n)
        self._coords_np = np.empty((cap, 2), dtype=np.float64)
        if n:
            self._coords_np[:n] = np.asarray(self._xy, dtype=np.float64)
        self._alive_np = np.zeros(cap, dtype=bool)
        self._alive_np[:n] = self._alive
        self._transient_np = np.zeros(cap, dtype=bool)
        self._transient_np[:n] = self._transient

    def _alive_view(self) -> np.ndarray:
        """The current alive mask (array engine's ``skip`` equivalent)."""
        return self._alive_np[:len(self._xy)]

    def _alive_ids(self) -> List[int]:
        return [i for i in range(len(self._xy)) if self._alive[i]]

    def node_point(self, node: int) -> Point:
        x, y = self._xy[node]
        return Point(x, y)

    def add_point(self, x: float, y: float) -> int:
        """Add a transient data point; pair with :meth:`remove_point`.

        No edges are computed here: the point's own row materializes when a
        traversal first settles it, and other rows pick the point up through
        their node watermarks on next access.
        """
        return self._new_node(x, y, transient=True)

    def remove_point(self, node: int) -> None:
        """Remove a transient node added by :meth:`add_point`."""
        if not self._transient[node]:
            raise ValueError(f"node {node} is not transient")
        for holder in self._mentions.pop(node, ()):
            row = self._rows.get(holder)
            if row is not None:
                row.pop(node, None)
            span = self._indptr.get(holder)
            if span is not None:
                s, e = span
                ids = self._indices[s:e]
                keep = ids != node
                k = int(keep.sum())
                if k != e - s:
                    self._indices[s:s + k] = ids[keep]
                    self._weights[s:s + k] = self._weights[s:e][keep]
                    self._indptr[holder] = (s, s + k)
        self._rows.pop(node, None)
        self._indptr.pop(node, None)
        self._row_marks.pop(node, None)
        self._row_epochs.pop(node, None)
        self._cols.pop(node, None)
        try:
            self._live_transients.remove(node)
        except ValueError:
            pass
        self._alive[node] = False
        self._alive_np[node] = False
        self._vr_cache.pop(node, None)
        self._generation += 1

    @property
    def num_nodes(self) -> int:
        """Alive node count (S, E, obstacle vertices, transient points)."""
        return sum(self._alive)

    @property
    def dead_slots(self) -> int:
        """Node slots held by removed transient nodes (compaction candidates)."""
        return len(self._xy) - sum(self._alive)

    def compact(self) -> int:
        """Reclaim dead node slots, remapping live node ids.

        Transient removal (:meth:`remove_point`, :meth:`unbind`) leaves
        dead append-only slots behind; a long-lived shared graph serving
        thousands of queries would otherwise grow without bound and scan
        the dead history on every fresh adjacency row.  Compaction remaps
        the alive nodes onto a dense prefix while *keeping every cached
        adjacency row* — the expensive pairwise sight-line tests survive;
        only traversal memos and visible-region caches are dropped.

        Caller contract: all node ids held outside the graph (session
        endpoints, transient data points) are invalidated — only call
        between queries, with no transient nodes attached.

        Returns:
            Number of slots reclaimed (0 when already dense).
        """
        dead = self.dead_slots
        if dead == 0:
            return 0
        old_len = len(self._xy)
        remap: Dict[int, int] = {}
        alive_ids: List[int] = []
        for i, alive in enumerate(self._alive):
            if alive:
                remap[i] = len(alive_ids)
                alive_ids.append(i)
        self._xy = [self._xy[i] for i in alive_ids]
        self._alive = [True] * len(alive_ids)
        self._transient = [self._transient[i] for i in alive_ids]
        # Rows only ever reference alive nodes (removal scrubs mentions),
        # so remapping entries is total.  A row's node-count watermark
        # records how many nodes it has wired; under the order-preserving
        # remap that becomes the number of *alive* ids below the old mark.
        self._rows = {remap[v]: {remap[u]: w for u, w in row.items()}
                      for v, row in self._rows.items()}
        if self.engine == ARRAY_ENGINE:
            # Array marks count permanent insertions, which compaction
            # never removes — only the row's key needs remapping.
            self._row_marks = {remap[v]: m
                               for v, m in self._row_marks.items()}
        else:
            self._row_marks = {
                remap[v]: (r, s, p, bisect.bisect_left(alive_ids, n_nodes))
                for v, (r, s, p, n_nodes) in self._row_marks.items()}
        self._row_epochs = {remap[v]: e
                            for v, e in self._row_epochs.items()}
        self._perm_ids = [remap[i] for i in self._perm_ids]
        self._live_transients = [remap[t] for t in self._live_transients
                                 if t in remap]
        # Repack the flat slab densely in one pass: rows only reference
        # alive nodes, so the vectorized id remap is total.
        if self._indptr:
            remap_np = np.full(old_len, -1, dtype=np.int64)
            remap_np[np.asarray(alive_ids, dtype=np.int64)] = \
                np.arange(len(alive_ids), dtype=np.int64)
            total = sum(e - s for s, e in self._indptr.values())
            new_idx = np.empty(total, dtype=np.int64)
            new_w = np.empty(total, dtype=np.float64)
            new_ptr: Dict[int, Tuple[int, int]] = {}
            pos = 0
            for v, (s, e) in self._indptr.items():
                k = e - s
                new_idx[pos:pos + k] = remap_np[self._indices[s:e]]
                new_w[pos:pos + k] = self._weights[s:e]
                new_ptr[remap[v]] = (pos, pos + k)
                pos += k
            self._indices, self._weights = new_idx, new_w
            self._pool_used = pos
            self._indptr = new_ptr
        else:
            self._indices = np.empty(0, dtype=np.int64)
            self._weights = np.empty(0, dtype=np.float64)
            self._pool_used = 0
        self._cols.clear()
        # A holder may itself have been removed since it was recorded (its
        # row died with it, so the stale entry is inert) — drop those.
        self._mentions = {remap[v]: {remap[u] for u in holders if u in remap}
                          for v, holders in self._mentions.items()}
        self._obstacle_nodes = {o: [remap[i] for i in ids]
                                for o, ids in self._obstacle_nodes.items()}
        if self.S >= 0:
            self.S = remap[self.S]
            self.E = remap[self.E]
        self._vr_cache.clear()
        self._traversals.clear()
        self._h_len = 0  # node ids moved; heuristic values recompute lazily
        self._rebuild_mirrors()
        self._generation += 1
        return dead

    @property
    def svg_size(self) -> int:
        """|SVG|: vertices of the local visibility graph (paper's metric)."""
        return sum(1 for a, t in zip(self._alive, self._transient) if a and not t)

    def clone_skeleton(self) -> "LocalVisibilityGraph":
        """Replicate this graph's obstacle skeleton into a fresh graph.

        The clone carries the obstacles, the node table, *and every cached
        adjacency row* — the expensive pairwise sight-line tests — but none
        of the per-anchor state (visible-region caches, traversal memos,
        endpoint binding).  This is how the shared routing backend
        pre-provisions per-worker graphs for a parallel batch: each worker
        binds its own endpoints to its own clone and traverses without
        ever touching another worker's graph.

        Caller contract: the graph must be unbound (no query endpoints
        attached); the source is compacted first, so node ids held outside
        the graph are invalidated exactly as :meth:`compact` documents.
        """
        if self.qseg is not None:
            raise RuntimeError("clone_skeleton needs an unbound graph; "
                               "unbind() first")
        self.compact()
        clone = LocalVisibilityGraph(engine=self.engine,
                                     prefetch=self.frontier_prefetch,
                                     bulk_build=self.bulk_build)
        clone.obstacles = ObstacleSet(self.obstacles)
        clone._obstacle_keys = set(self._obstacle_keys)
        clone._obstacle_nodes = {o: list(ids)
                                 for o, ids in self._obstacle_nodes.items()}
        clone._xy = list(self._xy)
        clone._alive = list(self._alive)
        clone._transient = list(self._transient)
        clone._rows = {v: dict(row) for v, row in self._rows.items()}
        clone._indices = self._indices[:self._pool_used].copy()
        clone._weights = self._weights[:self._pool_used].copy()
        clone._pool_used = self._pool_used
        clone._indptr = dict(self._indptr)
        clone._row_marks = dict(self._row_marks)
        clone._row_epochs = dict(self._row_epochs)
        clone._struct_epoch = self._struct_epoch
        clone._perm_ids = list(self._perm_ids)
        clone._live_transients = list(self._live_transients)
        clone._mentions = {v: set(h) for v, h in self._mentions.items()}
        clone._rebuild_mirrors()
        return clone

    # ------------------------------------------------------------ obstacles
    def add_obstacles(self, batch: Iterable[Obstacle]) -> int:
        """Insert obstacles and register their vertices as graph nodes.

        Cached adjacency rows are *not* repaired here; each row repairs
        itself lazily on next access (see :meth:`neighbors`), so obstacle
        insertion costs nothing for the (typically large) majority of rows
        no later traversal touches again.

        Obstacles already present are skipped, so caching layers may re-offer
        a mixed batch freely without double-inserting vertices.

        Returns:
            Number of obstacles actually inserted (duplicates excluded).
        """
        batch = [o for o in batch if o not in self._obstacle_keys]
        if not batch:
            return 0
        self._obstacle_keys.update(batch)
        self.obstacles.add_many(batch)
        self._struct_epoch += 1
        for o in batch:
            self._obstacle_nodes[o] = [
                self._new_node(vx, vy, transient=False)
                for vx, vy in o.vertices()]
        return len(batch)

    def remove_obstacle(self, obstacle: Obstacle) -> Optional[int]:
        """Surgically delete ``obstacle``, repairing cached state in place.

        Removal only *adds* visibility: a cached row entry was visible
        despite the obstacle, so it stays visible without it — nothing
        currently cached becomes wrong.  The only repair needed is
        re-opening sight lines the obstacle alone was blocking, and every
        such absent pair's segment must overlap the obstacle's bbox padded
        by the kernels' tolerance bound (a blocking decision implies a
        crossing point on the segment inside the padded box — the same
        bound the batch kernel's bbox prefilter relies on).  So the repair

        1. brings stale cached rows current (obstacle counts are still
           monotone until the deletion lands),
        2. deletes the obstacle's own vertices (their rows, columns and
           mentions die with them) and scrubs them from surviving rows,
        3. re-tests, in one batched launch, exactly the absent
           (row, candidate) pairs whose sight segment's bbox overlaps the
           removed obstacle's padded bbox, appending the newly visible
           ones, and
        4. normalizes every surviving row's watermark to the post-removal
           counts (removal breaks count monotonicity; normalization
           restores it for everything cached).

        Count-keyed side caches that cannot be normalized in place
        (visible regions — lazy narrowing cannot widen — transient
        visibility columns, primitive bounds) are dropped and recompute
        lazily.  Memoized traversals survive when the repair re-opened
        nothing and they never reached a deleted node; everything else
        invalidates via the generation bump.

        Returns:
            The number of absent pairs re-tested, or ``None`` when the
            obstacle is not resident (nothing referenced it; the graph is
            already correct without repair).
        """
        if obstacle not in self._obstacle_keys:
            return None
        # (1) Stale rows must repair against the *pre-removal* obstacle
        # arrays: their recorded counts index into those arrays.
        if self.engine == ARRAY_ENGINE:
            self._refresh_rows_bulk()
        else:
            for v in list(self._rows):
                if self._alive[v]:
                    self.neighbors(v)
        mbr = obstacle.mbr()
        removed = self._obstacle_nodes.pop(obstacle, [])
        removed_set = set(removed)
        self._obstacle_keys.discard(obstacle)
        self.obstacles.remove(obstacle)
        # (2) The obstacle's own nodes die; their cached state goes with
        # them.  Stale holder ids left behind in _mentions are inert (the
        # dead row is never read), same as compact() documents.
        for nid in removed:
            self._alive[nid] = False
            self._alive_np[nid] = False
            self._rows.pop(nid, None)
            self._indptr.pop(nid, None)
            self._row_marks.pop(nid, None)
            self._row_epochs.pop(nid, None)
            self._mentions.pop(nid, None)
            self._traversals.pop(nid, None)
        if removed_set:
            self._perm_ids = [i for i in self._perm_ids
                              if i not in removed_set]
        self._cols.clear()
        self._tblock = None
        self._vr_cache.clear()
        self._bounds_cache = None
        # (3) + (4)
        generation_was = self._generation
        retested, reopened = self._reopen_rows(removed_set, mbr)
        self.removal_repairs += 1
        self.repair_retested_pairs += retested
        # A memoized traversal's tree is untouched iff no sight line
        # re-opened (edge set of survivors unchanged) and it never relaxed
        # a now-deleted node (dist through one would be stale).
        survivors: List[Traversal] = []
        if reopened == 0:
            for src, t in self._traversals.items():
                if t.stamp != generation_was:
                    continue
                if isinstance(t, ArrayTraversal):
                    ids = [r for r in removed_set if r < t.dist.size]
                    reached = bool(ids) and bool(
                        np.isfinite(t.dist[np.asarray(ids)]).any())
                else:
                    reached = any(r in t.dist for r in removed_set)
                if not reached:
                    survivors.append(t)
        self._struct_epoch += 1
        epoch = self._struct_epoch
        for v in (self._indptr if self.engine == ARRAY_ENGINE
                  else self._rows):
            self._row_epochs[v] = epoch
        self._generation += 1
        for t in survivors:
            t.stamp = self._generation
        return retested

    def _reopen_rows(self, removed_set: Set[int],
                     mbr) -> Tuple[int, int]:
        """Scrub deleted nodes from cached rows and re-open sight lines.

        Every cached row is already current (pre-removal counts); this
        re-tests, against the post-removal obstacle set, the absent pairs
        whose sight segment actually crosses ``mbr`` padded by the kernel
        tolerance bound (a slab clip, not just bbox overlap — a pair the
        removed obstacle blocked must run through its padded box, while
        most absent pairs in a dense scene merely *span* it), and stamps
        all rows with the post-removal watermark.

        Returns:
            ``(pairs re-tested, pairs re-opened)``.
        """
        n = len(self._xy)
        if n == 0:
            return 0, 0
        coords = self._coords_np[:n]
        # The pad must dominate the kernels' tolerant comparisons for any
        # pair we filter; a scale over *all* alive coordinates bounds every
        # per-pair scale blocked_batch would have used.
        alive = self._alive_np[:n]
        scale = 1.0
        if alive.any():
            scale += float(np.abs(coords[alive]).max())
        pad = 8.0 * EPS * scale
        xlo, ylo = mbr.xlo - pad, mbr.ylo - pad
        xhi, yhi = mbr.xhi + pad, mbr.yhi + pad
        mark_now = (self._array_mark() if self.engine == ARRAY_ENGINE
                    else self._current_mark())
        hypot = math.hypot
        xy = self._xy
        if self.engine == ARRAY_ENGINE:
            removed_np = (np.fromiter(removed_set, dtype=np.int64)
                          if removed_set else np.empty(0, dtype=np.int64))
            cand_all = np.nonzero(alive & ~self._transient_np[:n])[0]
            rows_list = list(self._indptr)
            nrows = len(rows_list)
            if nrows == 0:
                return 0, 0
            rows_arr = np.asarray(rows_list, dtype=np.int64)

            def _slab_snapshot():
                spans = np.asarray([self._indptr[v] for v in rows_list],
                                   dtype=np.int64).reshape(nrows, 2)
                lens = spans[:, 1] - spans[:, 0]
                if int(lens.sum()):
                    ids = np.concatenate(
                        [self._indices[s:e] for s, e in spans])
                else:
                    ids = np.empty(0, dtype=np.int64)
                return lens, ids

            lens, idsall = _slab_snapshot()
            # Scrub deleted targets: one membership pass over the whole
            # slab finds the rows that lost entries; only those compact.
            if removed_np.size and idsall.size:
                gone = np.isin(idsall, removed_np)
                if gone.any():
                    row_rep = np.repeat(np.arange(nrows), lens)
                    lost = np.bincount(row_rep[gone], minlength=nrows)
                    starts = np.zeros(nrows + 1, dtype=np.int64)
                    np.cumsum(lens, out=starts[1:])
                    for ri in np.nonzero(lost)[0].tolist():
                        v = rows_list[ri]
                        s, e = self._indptr[v]
                        keep = ~gone[starts[ri]:starts[ri + 1]]
                        k = int(keep.sum())
                        self._indices[s:s + k] = self._indices[s:e][keep]
                        self._weights[s:s + k] = self._weights[s:e][keep]
                        self._indptr[v] = (s, s + k)
                    lens, idsall = _slab_snapshot()
            # Absent pairs in one scatter: presence[r, c] marks cached
            # entries, the row's own id and non-candidates are masked, the
            # rest is exactly the setdiff the per-row path computed —
            # row-major nonzero keeps each row's candidates ascending,
            # matching the sorted order setdiff1d produced.
            pres = np.zeros((nrows, n), dtype=bool)
            if idsall.size:
                pres[np.repeat(np.arange(nrows), lens), idsall] = True
            base = np.zeros(n, dtype=bool)
            base[cand_all] = True
            absent = ~pres
            absent &= base[None, :]
            absent[np.arange(nrows), rows_arr] = False
            ri, ci = np.nonzero(absent)
            # Keep only pairs whose sight segment crosses the removed
            # obstacle's padded box (the slab clip); everything else
            # cannot have been blocked by it alone.
            if ri.size:
                hit = _segment_hits_box(coords[rows_arr[ri], 0],
                                        coords[rows_arr[ri], 1],
                                        coords[ci, 0], coords[ci, 1],
                                        xlo, ylo, xhi, yhi)
                ri, ci = ri[hit], ci[hit]
            for v in rows_list:
                self._row_marks[v] = mark_now
            retested = int(ri.size)
            reopened = 0
            if retested:
                # Early-terminating bulk launch: most retested pairs are
                # still blocked by some surviving obstacle and drop out
                # after the first chunk or two.  (_blocked_bulk ticks the
                # batch counters itself.)
                blocked = self._blocked_bulk(coords[rows_arr[ri]],
                                             coords[ci])
                self.bulk_pair_launches += 1
                ok = ~blocked
                ri2, ci2 = ri[ok], ci[ok]
                reopened = int(ri2.size)
                if reopened:
                    edges = np.searchsorted(ri2, np.arange(nrows + 1))
                    for rix in np.unique(ri2).tolist():
                        v = rows_list[rix]
                        vis = ci2[edges[rix]:edges[rix + 1]]
                        vx, vy = xy[v]
                        add_w = np.empty(vis.size, dtype=np.float64)
                        for j, i in enumerate(vis.tolist()):
                            tx, ty = xy[i]
                            add_w[j] = hypot(vx - tx, vy - ty)
                        s, e = self._indptr[v]
                        self._row_write(
                            v,
                            np.concatenate([self._indices[s:e],
                                            vis.astype(np.int64,
                                                       copy=False)]),
                            np.concatenate([self._weights[s:e], add_w]))
            return retested, reopened
        # Scalar oracle: same repair, dict rows (transient targets join the
        # candidate set — scalar rows carry them inline).
        retested = reopened = 0
        srcs: List[int] = []
        tgts: List[int] = []
        for v in list(self._rows):
            row = self._rows[v]
            for r in removed_set:
                row.pop(r, None)
            vx, vy = xy[v]
            for u in range(n):
                if (u == v or not self._alive[u] or u in row):
                    continue
                tx, ty = xy[u]
                if bool(_segment_hits_box(vx, vy, np.float64(tx),
                                          np.float64(ty),
                                          xlo, ylo, xhi, yhi)):
                    srcs.append(v)
                    tgts.append(u)
            self._row_marks[v] = mark_now
        retested = len(srcs)
        if retested:
            tgt_idx = np.asarray(tgts, dtype=np.int64)
            tally = {}
            blocked = blocked_batch(
                coords[np.asarray(srcs, dtype=np.int64)], coords[tgt_idx],
                self.obstacles.rects, self.obstacles.segs,
                self.obstacles.polys,
                bounds=self._prim_bounds(), tally=tally)
            self._count_batch(retested, self._prims_now(), tally)
            self.bulk_pair_launches += 1
            for v, u, dead in zip(srcs, tgts, blocked.tolist()):
                if not dead:
                    reopened += 1
                    vx, vy = xy[v]
                    tx, ty = xy[u]
                    self._rows[v][u] = hypot(vx - tx, vy - ty)
                    if self._transient[u]:
                        self._mentions.setdefault(u, set()).add(v)
        return retested, reopened

    # ------------------------------------------------------------ adjacency
    def _current_mark(self) -> Tuple[int, int, int, int]:
        return (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                len(self.obstacles.polys), len(self._xy))

    def _array_mark(self) -> Tuple[int, int, int, int]:
        """Array-row watermark: node component counts *permanent* nodes only,
        so bind/unbind churn never invalidates a cached flat row."""
        return (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                len(self.obstacles.polys), len(self._perm_ids))

    def _visible_from(self, x: float, y: float, targets: np.ndarray,
                      chunk: int = 64) -> np.ndarray:
        """Visibility of ``targets`` (K, 2) from ``(x, y)``, early-terminating.

        Obstacles are tested nearest-first in chunks; targets already proven
        blocked drop out of later chunks.  Because a sight line is almost
        always cut by an obstacle near its source, most targets die in the
        first chunk and the effective cost is far below ``K x N``.
        """
        k = targets.shape[0]
        alive = np.ones(k, dtype=bool)
        if k == 0:
            return alive
        tx = targets[:, 0]
        ty = targets[:, 1]
        rects = self.obstacles.rects
        if rects.size:
            cdist = np.hypot((rects[:, 0] + rects[:, 2]) * 0.5 - x,
                             (rects[:, 1] + rects[:, 3]) * 0.5 - y)
            order = np.argsort(cdist)
            for start in range(0, order.size, chunk):
                idx = np.nonzero(alive)[0]
                if idx.size == 0:
                    return alive
                batch = rects[order[start:start + chunk]]
                blocked = crosses_rect_interior(
                    x, y, tx[idx][:, None], ty[idx][:, None],
                    batch[None, :, 0], batch[None, :, 1],
                    batch[None, :, 2], batch[None, :, 3],
                ).any(axis=1)
                self.visibility_tests += idx.size * batch.shape[0]
                alive[idx[blocked]] = False
        segs = self.obstacles.segs
        if segs.size:
            cdist = np.hypot((segs[:, 0] + segs[:, 2]) * 0.5 - x,
                             (segs[:, 1] + segs[:, 3]) * 0.5 - y)
            order = np.argsort(cdist)
            for start in range(0, order.size, chunk):
                idx = np.nonzero(alive)[0]
                if idx.size == 0:
                    return alive
                batch = segs[order[start:start + chunk]]
                blocked = proper_cross_segments(
                    x, y, tx[idx][:, None], ty[idx][:, None],
                    batch[None, :, 0], batch[None, :, 1],
                    batch[None, :, 2], batch[None, :, 3],
                ).any(axis=1)
                self.visibility_tests += idx.size * batch.shape[0]
                alive[idx[blocked]] = False
        for poly in self.obstacles.polys:
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                return alive
            arr = poly.as_array()
            blocked = crosses_convex_polygon(x, y, tx[idx], ty[idx], arr)
            self.visibility_tests += idx.size
            alive[idx[blocked]] = False
        return alive

    def _add_edges_to(self, node: int, row: Dict[int, float],
                      candidate_ids: List[int]) -> None:
        """Add visible ``candidate_ids`` to ``row`` (tested vs all obstacles)."""
        if not candidate_ids:
            return
        x, y = self._xy[node]
        targets = np.asarray([self._xy[i] for i in candidate_ids],
                             dtype=np.float64)
        mask = self._visible_from(x, y, targets)
        for i, visible in zip(candidate_ids, mask):
            if visible:
                tx, ty = self._xy[i]
                row[i] = math.hypot(x - tx, y - ty)
                if self._transient[i]:
                    self._mentions.setdefault(i, set()).add(node)

    # ----------------------------------------------------- adjacency (flat)
    def _prims_now(self) -> int:
        return (self.obstacles.rects.shape[0] + self.obstacles.segs.shape[0]
                + len(self.obstacles.polys))

    def _prim_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached primitive-bounds slabs for the batch kernel's prefilter."""
        rects = self.obstacles.rects
        segs = self.obstacles.segs
        key = (rects.shape[0], segs.shape[0])
        cached = self._bounds_cache
        if cached is None or (cached[0], cached[1]) != key:
            rb, sb = primitive_bounds(rects, segs)
            cached = (key[0], key[1], rb, sb)
            self._bounds_cache = cached
        return cached[2], cached[3]

    def _count_batch(self, edges: int, prims: int,
                     tally: Optional[dict] = None) -> None:
        self.batch_visibility_calls += 1
        if tally is not None:
            tested = tally["tested"]
            self.kernel_pruned_edges += tally["pruned"]
        else:
            tested = edges * prims
        self.batched_edges_tested += tested
        self.visibility_tests += tested

    def _count_bulk_push(self) -> None:
        self.heap_bulk_pushes += 1

    def _row_write(self, node: int, idx: np.ndarray, w: np.ndarray) -> None:
        """Place a row in the slab: in place when it fits, else appended."""
        span = self._indptr.get(node)
        n = idx.size
        if span is not None and n <= span[1] - span[0]:
            s = span[0]
        else:
            if self._pool_used + n > self._indices.size:
                cap = max(256, self._pool_used + n, 2 * self._indices.size)
                grown_i = np.empty(cap, dtype=np.int64)
                grown_i[:self._pool_used] = self._indices[:self._pool_used]
                grown_w = np.empty(cap, dtype=np.float64)
                grown_w[:self._pool_used] = self._weights[:self._pool_used]
                self._indices, self._weights = grown_i, grown_w
            s = self._pool_used
            self._pool_used += n
        self._indices[s:s + n] = idx
        self._weights[s:s + n] = w
        self._indptr[node] = (s, s + n)

    def _column(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(blocked(v -> p), weight(v, p))`` for every node slot v.

        One batched kernel call per transient instead of one per
        (row, transient) pair; orientation matches the scalar repair path
        (source = the row's owner, target = the transient).  Weights go
        through ``math.hypot`` exactly like materialized rows, so a
        transient edge read from the column is bit-identical to one the
        scalar engine computes.  Cached per obstacle watermark; dead slots
        compute junk that no live row ever looks up.
        """
        omark = (self.obstacles.rects.shape[0], self.obstacles.segs.shape[0],
                 len(self.obstacles.polys))
        n = len(self._xy)
        px, py = self._xy[p]
        hypot = math.hypot
        cached = self._cols.get(p)
        m = 0
        col = wcol = None
        if cached is not None and cached[2] == omark:
            col, wcol = cached[0], cached[1]
            if col.size >= n:
                return col, wcol
            # Still valid, just short: slots were added since the column
            # was cut (e.g. another bind's transients).  Extend by testing
            # only the new slots, not the whole graph again.
            m = col.size
        targets = np.empty((n - m, 2), dtype=np.float64)
        targets[:, 0] = px
        targets[:, 1] = py
        tally: dict = {}
        tail = blocked_batch(self._coords_np[m:n], targets,
                             self.obstacles.rects, self.obstacles.segs,
                             self.obstacles.polys,
                             bounds=self._prim_bounds(), tally=tally)
        self._count_batch(n - m, self._prims_now(), tally)
        wtail = np.empty(n - m, dtype=np.float64)
        for j in range(m, n):
            vx, vy = self._xy[j]
            wtail[j - m] = hypot(vx - px, vy - py)
        if m:
            col = np.concatenate([col, tail])
            wcol = np.concatenate([wcol, wtail])
        else:
            col, wcol = tail, wtail
        self._cols[p] = (col, wcol, omark)
        return col, wcol

    def _transient_block(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
        """The live transients' columns stacked: ids/blocked/weights/any.

        ``blocked[v, j]`` / ``weights[v, j]`` describe the edge between slot
        ``v`` and the j-th bound transient; ``any_blocked[v]`` collapses the
        blocked row so readers with nothing to filter (the vast majority —
        most graph nodes see every bound endpoint) take a mask-free path.
        Rebuilt lazily whenever the graph changes (generation bump);
        between changes every row read shares the same stack.
        """
        cached = self._tblock
        if cached is not None and cached[0] == self._generation:
            return cached[1], cached[2], cached[3], cached[4]
        ts = self._live_transients
        n = len(self._xy)
        tarr = np.asarray(ts, dtype=np.int64)
        bm = np.empty((n, len(ts)), dtype=bool)
        wm = np.empty((n, len(ts)), dtype=np.float64)
        for j, t in enumerate(ts):
            col, wcol = self._column(t)
            bm[:, j] = col[:n]
            wm[:, j] = wcol[:n]
        anyb = bm.any(axis=1)
        self._tblock = (self._generation, tarr, bm, wm, anyb)
        return tarr, bm, wm, anyb

    def _materialize_row(self, node: int,
                         mark_now: Tuple[int, int, int, int]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        x, y = self._xy[node]
        n = len(self._xy)
        # Rows hold *permanent* endpoints only; transient edges are appended
        # at read time from the shared visibility columns (row_arrays), so
        # bind/unbind churn never touches the slab.
        mask = self._alive_np[:n] & ~self._transient_np[:n]
        mask[node] = False
        cand = np.nonzero(mask)[0]
        if cand.size:
            sources = np.empty((cand.size, 2), dtype=np.float64)
            sources[:, 0] = x
            sources[:, 1] = y
            tally: dict = {}
            blocked = blocked_batch(sources, self._coords_np[cand],
                                    self.obstacles.rects, self.obstacles.segs,
                                    self.obstacles.polys,
                                    bounds=self._prim_bounds(), tally=tally)
            self._count_batch(cand.size, self._prims_now(), tally)
            vis = cand[~blocked]
        else:
            vis = cand
        idx = vis.astype(np.int64, copy=False)
        # Weights go through math.hypot, not np.hypot: the two differ in
        # the last ulp on ~0.5% of inputs, and engine parity is bit-exact.
        w = np.empty(idx.size, dtype=np.float64)
        xy = self._xy
        for j, i in enumerate(idx.tolist()):
            tx, ty = xy[i]
            w[j] = math.hypot(x - tx, y - ty)
        self._row_marks[node] = mark_now
        self._row_write(node, idx, w)
        s, e = self._indptr[node]
        return self._indices[s:e], self._weights[s:e]

    def _repair_row(self, node: int,
                    mark_now: Tuple[int, int, int, int]) -> None:
        n_rects, n_segs, n_polys, n_perm = self._row_marks[node]
        s, e = self._indptr[node]
        x, y = self._xy[node]
        xy = self._xy
        # Drop entries blocked by obstacles added since the row was cut.
        new_rects = self.obstacles.rects[n_rects:]
        new_segs = self.obstacles.segs[n_segs:]
        new_polys = self.obstacles.polys[n_polys:]
        if e > s and (new_rects.size or new_segs.size or new_polys):
            ids = self._indices[s:e]
            sources = np.empty((ids.size, 2), dtype=np.float64)
            sources[:, 0] = x
            sources[:, 1] = y
            rb, sb = self._prim_bounds()
            tally: dict = {}
            blocked = blocked_batch(sources, self._coords_np[ids],
                                    new_rects, new_segs, new_polys,
                                    bounds=(rb[n_rects:], sb[n_segs:]),
                                    tally=tally)
            self._count_batch(ids.size, new_rects.shape[0]
                              + new_segs.shape[0] + len(new_polys), tally)
            if blocked.any():
                keep = ~blocked
                k = int(keep.sum())
                self._indices[s:s + k] = ids[keep]
                self._weights[s:s + k] = self._weights[s:e][keep]
                e = s + k
                self._indptr[node] = (s, e)
        # Wire up permanent vertices added since the row was cut, in one
        # batched call.  Transients never enter the slab — row_arrays
        # appends them at read time from the shared visibility columns —
        # so per-query bind/unbind churn never triggers a repair at all.
        perm = [i for i in self._perm_ids[n_perm:] if i != node]
        if perm:
            add_ids: List[int] = []
            add_w: List[float] = []
            tgt = self._coords_np[np.asarray(perm, dtype=np.int64)]
            sources = np.empty((len(perm), 2), dtype=np.float64)
            sources[:, 0] = x
            sources[:, 1] = y
            tally = {}
            blocked = blocked_batch(sources, tgt, self.obstacles.rects,
                                    self.obstacles.segs,
                                    self.obstacles.polys,
                                    bounds=self._prim_bounds(), tally=tally)
            self._count_batch(len(perm), self._prims_now(), tally)
            for i, dead in zip(perm, blocked.tolist()):
                if not dead:
                    tx, ty = xy[i]
                    add_ids.append(i)
                    add_w.append(math.hypot(x - tx, y - ty))
            if add_ids:
                merged_idx = np.concatenate(
                    [self._indices[s:e], np.asarray(add_ids, dtype=np.int64)])
                merged_w = np.concatenate(
                    [self._weights[s:e], np.asarray(add_w, dtype=np.float64)])
                self._row_write(node, merged_idx, merged_w)
        self._row_marks[node] = mark_now

    # ------------------------------------------------------- adjacency (bulk)
    def _blocked_bulk(self, sources: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
        """Early-terminating bulk visibility: blocked mask over M pairs.

        The bulk counterpart of one full :func:`blocked_batch` launch,
        organized for dense scenes: primitives are processed in chunks
        ordered nearest-the-pair-cloud-first, and pairs already proven
        blocked drop out of every later chunk.  A sight line crossed by
        many obstacles — the common case in a lattice — is decided by the
        first chunk or two instead of being broadcast against the whole
        primitive set, so the effective element count is far below
        ``M x N``.  Blocking is a union over primitives and the kernels
        are elementwise, so the mask is bit-identical to the unchunked
        launch; chunking (like tiling) only changes the cost.

        Accounts one batched-call tick with everything not evaluated by a
        kernel (bbox-pruned or dropped by early termination) counted as
        pruned.  Callers still tick :attr:`bulk_pair_launches` once per
        logical bulk pass.
        """
        m = sources.shape[0]
        blocked = np.zeros(m, dtype=bool)
        if m == 0:
            return blocked
        rects = self.obstacles.rects
        segs = self.obstacles.segs
        polys = self.obstacles.polys
        rb, sb = self._prim_bounds()
        n_r = rects.shape[0] if rects.size else 0
        n_s = segs.shape[0] if segs.size else 0
        sx_all = np.ascontiguousarray(sources[:, 0])
        sy_all = np.ascontiguousarray(sources[:, 1])
        tx_all = np.ascontiguousarray(targets[:, 0])
        ty_all = np.ascontiguousarray(targets[:, 1])
        # Pair bboxes and the prune pad are computed once up front; the
        # per-chunk work below is only the overlap join, the gather, and
        # the kernel itself.  The pad scales eps by the whole batch's
        # coordinate magnitude, which bounds every per-pair scale, so the
        # prune stays sound (same argument as blocked_batch's own).
        exlo = np.minimum(sx_all, tx_all)
        exhi = np.maximum(sx_all, tx_all)
        eylo = np.minimum(sy_all, ty_all)
        eyhi = np.maximum(sy_all, ty_all)
        scale = 1.0 + max(float(np.abs(sources).max()),
                          float(np.abs(targets).max()))
        pad = 8.0 * EPS * scale
        cx = 0.5 * (float(sx_all.mean()) + float(tx_all.mean()))
        cy = 0.5 * (float(sy_all.mean()) + float(ty_all.mean()))

        def _near_first(pb: np.ndarray) -> np.ndarray:
            px = 0.5 * (pb[:, 0] + pb[:, 2])
            py = 0.5 * (pb[:, 1] + pb[:, 3])
            return np.argsort((px - cx) ** 2 + (py - cy) ** 2,
                              kind="stable")

        kinds = []
        if n_r:
            kinds.append((crosses_rect_interior, rects, rb,
                          _near_first(rb[:n_r])))
        if n_s:
            kinds.append((proper_cross_segments, segs, sb,
                          _near_first(sb[:n_s])))
        alive = np.arange(m)
        tested = 0
        for kernel, prims, pb, order in kinds:
            pos = 0
            axlo = exlo[:, None]
            axhi = exhi[:, None]
            aylo = eylo[:, None]
            ayhi = eyhi[:, None]
            while pos < order.size and alive.size:
                if alive.size < m:
                    axlo = exlo[alive, None]
                    axhi = exhi[alive, None]
                    aylo = eylo[alive, None]
                    ayhi = eyhi[alive, None]
                chunk = max(8, BATCH_TILE_ELEMS // alive.size)
                sel = order[pos:pos + chunk]
                pos += chunk
                boxes = pb[sel]
                overlap = axlo <= boxes[None, :, 2] + pad
                overlap &= axhi >= boxes[None, :, 0] - pad
                overlap &= aylo <= boxes[None, :, 3] + pad
                overlap &= ayhi >= boxes[None, :, 1] - pad
                ei, oi = overlap.nonzero()
                if not ei.size:
                    continue
                tested += ei.size
                pi = alive[ei]
                sub = prims[sel[oi]]
                pair_hit = kernel(sx_all[pi], sy_all[pi],
                                  tx_all[pi], ty_all[pi],
                                  sub[:, 0], sub[:, 1],
                                  sub[:, 2], sub[:, 3], EPS)
                if pair_hit.any():
                    blocked[pi[pair_hit]] = True
                    alive = alive[~blocked[alive]]
        for poly in polys:
            if not alive.size:
                break
            arr = (poly.as_array() if hasattr(poly, "as_array")
                   else np.asarray(poly))
            # Same padded-AABB prune per polygon: a pair whose box misses
            # the hull's box cannot cross it, so skipping it (or the whole
            # polygon) leaves the mask unchanged.
            near = ((exlo[alive] <= float(arr[:, 0].max()) + pad) &
                    (exhi[alive] >= float(arr[:, 0].min()) - pad) &
                    (eylo[alive] <= float(arr[:, 1].max()) + pad) &
                    (eyhi[alive] >= float(arr[:, 1].min()) - pad))
            cand = alive[near]
            if not cand.size:
                continue
            hit = crosses_convex_polygon(
                sx_all[cand], sy_all[cand], tx_all[cand], ty_all[cand],
                arr, EPS)
            tested += cand.size
            if hit.any():
                blocked[cand[hit]] = True
                alive = alive[~blocked[alive]]
        full = m * (n_r + n_s + len(polys))
        self._count_batch(m, self._prims_now(),
                          {"tested": tested, "pruned": full - tested})
        return blocked

    def materialize_rows(self, nodes: Iterable[int]) -> int:
        """Cut the missing adjacency rows of ``nodes`` in one batched pass.

        The cold-path counterpart of :meth:`_materialize_row`: the
        candidate (source, target) pairs of every still-unmaterialized row
        are concatenated and decided by a single tiled
        :func:`~repro.geometry.vectorized.blocked_batch` launch (bbox
        prefilter included) instead of one launch per row.  The per-pair
        kernels are elementwise — decisions are independent of how pairs
        are batched — and weights go through the same ``math.hypot``, so
        each resulting row is byte-identical (ids, order, weights, marks)
        to what the per-node path would have produced.

        Rows already materialized (even stale ones — they repair lazily on
        access, as always) and dead nodes are skipped.  On the scalar
        engine this falls back to per-node materialization: the oracle
        stays the reference implementation.

        Returns:
            Number of rows materialized.
        """
        if self.engine != ARRAY_ENGINE:
            made = 0
            for v in dict.fromkeys(nodes):
                if self._alive[v] and v not in self._rows:
                    self.neighbors(v)
                    made += 1
            return made
        todo = [v for v in dict.fromkeys(nodes)
                if self._alive[v] and v not in self._indptr]
        if not todo:
            return 0
        mark_now = self._array_mark()
        epoch = self._struct_epoch
        n = len(self._xy)
        base = self._alive_np[:n] & ~self._transient_np[:n]
        cand_all = np.nonzero(base)[0]
        m = cand_all.size
        todo_arr = np.asarray(todo, dtype=np.int64)
        # Row-major candidate ids: every row sees cand_all minus itself.
        # cand_all is ascending (nonzero order), so one searchsorted finds
        # each row's own slot; np.delete drops them all in one allocation
        # instead of one boolean-mask pass per row.
        if m:
            pos_v = np.searchsorted(cand_all, todo_arr)
            present = cand_all[np.minimum(pos_v, m - 1)] == todo_arr
            tgt_idx = np.tile(cand_all, len(todo))
            drop = np.arange(len(todo), dtype=np.int64)[present] * m \
                + pos_v[present]
            if drop.size:
                tgt_idx = np.delete(tgt_idx, drop)
            counts = np.full(len(todo), m, dtype=np.int64) - present
        else:
            tgt_idx = np.zeros(0, dtype=np.int64)
            counts = np.zeros(len(todo), dtype=np.int64)
        total = int(tgt_idx.size)
        blocked = np.zeros(0, dtype=bool)
        if total:
            sources = np.repeat(self._coords_np[todo_arr], counts, axis=0)
            blocked = self._blocked_bulk(sources, self._coords_np[tgt_idx])
            self.bulk_pair_launches += 1
        # One pass builds every row's visible-id block and weight block in
        # flat arrays; rows then slab-write slices of them.  Weights go
        # element-by-element through math.hypot — np.hypot rounds the last
        # ulp differently on ~0.5% of inputs, which would break the
        # byte-identity contract with the per-node path.
        visall = ~blocked if total else np.zeros(0, dtype=bool)
        vis_idx_all = tgt_idx[visall] if total else tgt_idx
        src_rep = np.repeat(np.arange(len(todo), dtype=np.int64), counts)
        row_vis = np.bincount(src_rep[visall], minlength=len(todo))
        w_all = np.empty(vis_idx_all.size, dtype=np.float64)
        hypot = math.hypot
        xy = self._xy
        vis_list = vis_idx_all.tolist()
        pos = 0
        for v, c in zip(todo, row_vis.tolist()):
            x, y = xy[v]
            for j in range(pos, pos + c):
                tx, ty = xy[vis_list[j]]
                w_all[j] = hypot(x - tx, y - ty)
            self._row_marks[v] = mark_now
            self._row_write(v, vis_idx_all[pos:pos + c], w_all[pos:pos + c])
            self._row_epochs[v] = epoch
            pos += c
        self.rows_bulk_materialized += len(todo)
        return len(todo)

    def _repair_rows_bulk(self, rows: List[int],
                          mark: Tuple[int, int, int, int],
                          mark_now: Tuple[int, int, int, int]) -> None:
        """Repair cached rows sharing one watermark in two batched launches.

        Exactly :meth:`_repair_row`'s two phases — drop entries blocked by
        obstacles added since ``mark``, wire up permanent vertices added
        since ``mark`` — but over the concatenated pairs of every row, so
        a refresh of R stale rows costs 2 launches instead of 2R.  Kernel
        decisions are elementwise, hence per-row results are identical.
        """
        n_rects, n_segs, n_polys, n_perm = mark
        new_rects = self.obstacles.rects[n_rects:]
        new_segs = self.obstacles.segs[n_segs:]
        new_polys = self.obstacles.polys[n_polys:]
        hypot = math.hypot
        xy = self._xy
        if new_rects.size or new_segs.size or new_polys:
            holders: List[int] = []
            spans: List[Tuple[int, int]] = []
            for v in rows:
                s, e = self._indptr[v]
                if e > s:
                    holders.append(v)
                    spans.append((s, e))
            if holders:
                tgt_idx = np.concatenate(
                    [self._indices[s:e] for s, e in spans])
                counts = [e - s for s, e in spans]
                sources = np.repeat(
                    self._coords_np[np.asarray(holders, dtype=np.int64)],
                    counts, axis=0)
                rb, sb = self._prim_bounds()
                tally: dict = {}
                blocked = blocked_batch(sources, self._coords_np[tgt_idx],
                                        new_rects, new_segs, new_polys,
                                        bounds=(rb[n_rects:], sb[n_segs:]),
                                        tally=tally)
                self._count_batch(tgt_idx.size, new_rects.shape[0]
                                  + new_segs.shape[0] + len(new_polys), tally)
                self.bulk_pair_launches += 1
                pos = 0
                for v, (s, e) in zip(holders, spans):
                    dead = blocked[pos:pos + (e - s)]
                    pos += e - s
                    if dead.any():
                        ids = self._indices[s:e]
                        keep = ~dead
                        k = int(keep.sum())
                        self._indices[s:s + k] = ids[keep]
                        self._weights[s:s + k] = self._weights[s:e][keep]
                        self._indptr[v] = (s, s + k)
        perm_tail = self._perm_ids[n_perm:]
        if perm_tail:
            srcs: List[int] = []
            per_row: List[List[int]] = []
            for v in rows:
                fresh = [i for i in perm_tail if i != v]
                per_row.append(fresh)
                srcs.extend([v] * len(fresh))
            total = len(srcs)
            if total:
                tgt_idx = np.asarray(
                    [i for fresh in per_row for i in fresh], dtype=np.int64)
                tally = {}
                blocked = blocked_batch(
                    self._coords_np[np.asarray(srcs, dtype=np.int64)],
                    self._coords_np[tgt_idx],
                    self.obstacles.rects, self.obstacles.segs,
                    self.obstacles.polys,
                    bounds=self._prim_bounds(), tally=tally)
                self._count_batch(total, self._prims_now(), tally)
                self.bulk_pair_launches += 1
                pos = 0
                for v, fresh in zip(rows, per_row):
                    x, y = xy[v]
                    add_ids: List[int] = []
                    add_w: List[float] = []
                    for i, dead in zip(fresh,
                                       blocked[pos:pos + len(fresh)].tolist()):
                        if not dead:
                            tx, ty = xy[i]
                            add_ids.append(i)
                            add_w.append(hypot(x - tx, y - ty))
                    pos += len(fresh)
                    if add_ids:
                        s, e = self._indptr[v]
                        merged_idx = np.concatenate(
                            [self._indices[s:e],
                             np.asarray(add_ids, dtype=np.int64)])
                        merged_w = np.concatenate(
                            [self._weights[s:e],
                             np.asarray(add_w, dtype=np.float64)])
                        self._row_write(v, merged_idx, merged_w)
        for v in rows:
            self._row_marks[v] = mark_now

    def _refresh_rows_bulk(self) -> int:
        """Bring every cached slab row current, grouped by watermark.

        Rows stale against different watermarks (possible when inserts
        landed between accesses) repair in separate grouped launches; rows
        sharing a watermark — the overwhelmingly common case — share one
        pair of launches.  Returns the number of rows repaired.
        """
        mark_now = self._array_mark()
        epoch = self._struct_epoch
        groups: Dict[Tuple[int, int, int, int], List[int]] = {}
        for v in self._indptr:
            if not self._alive[v]:
                continue
            m = self._row_marks.get(v)
            if m != mark_now:
                groups.setdefault(m, []).append(v)
        for mark, vs in groups.items():
            self._repair_rows_bulk(vs, mark, mark_now)
            for v in vs:
                self._row_epochs[v] = epoch
        return sum(len(vs) for vs in groups.values())

    def build_all(self) -> int:
        """Eagerly materialize (and refresh) every alive node's row.

        The bulk warm-up behind cold shared-backend builds, clone spare
        provisioning and merged shard environments: missing rows cut in
        one batched launch, stale rows repaired in grouped launches.  On
        the scalar oracle it walks :meth:`neighbors` per node (reference
        semantics), and with :attr:`bulk_build` cleared the array engine
        does the same one-row-one-launch walk — the baseline the bulk
        pass is benchmarked against and must match byte-for-byte.
        Returns the number of rows freshly materialized.
        """
        ids = self._alive_ids()
        if self.engine != ARRAY_ENGINE:
            made = sum(1 for v in ids if v not in self._rows)
            for v in ids:
                self.neighbors(v)
            return made
        if not self.bulk_build:
            made = sum(1 for v in ids if v not in self._indptr)
            for v in ids:
                self.row_arrays(v)
            return made
        made = self.materialize_rows(ids)
        self._refresh_rows_bulk()
        return made

    def _prefetch_rows(self, node: int,
                       frontier: "Callable[[], List[int]]") -> None:
        """Array-traversal hook: bulk-materialize a frontier wave.

        Invoked before each settle's row read; a no-op unless ``node``'s
        row is actually missing, so the frontier gather (a sort of the
        heap contents) is only paid once per wave, not once per settle.
        """
        width = self.frontier_prefetch
        if width <= 1 or node in self._indptr or not self._alive[node]:
            return
        wave = [node]
        for nb in frontier():
            if len(wave) >= width:
                break
            if nb != node and nb not in self._indptr and self._alive[nb]:
                wave.append(nb)
        self.materialize_rows(wave)

    def row_arrays(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """The flat adjacency row of ``node``: ``(ids, weights)``.

        The array engine's counterpart of :meth:`neighbors`: same lazy
        materialization, same two-step incremental repair, but each step
        is one batched kernel call instead of one per candidate edge, and
        the result feeds the array traversal without building a dict.

        The slab row covers permanent endpoints only and is keyed on a
        watermark that ignores transients, so steady-state query traffic
        (bind endpoints, route, unbind) never repairs a row.  Edges to the
        currently bound transients are appended here at read time from
        their shared visibility columns; when none are bound the returned
        arrays are zero-copy slab views.
        """
        epoch = self._struct_epoch
        span = self._indptr.get(node)
        if span is None:
            idx, w = self._materialize_row(node, self._array_mark())
            self._row_epochs[node] = epoch
        else:
            if self._row_epochs.get(node) != epoch:
                # Epoch moved since the row was cut; the count watermark
                # decides whether anything this row covers actually grew.
                mark_now = self._array_mark()
                if self._row_marks[node] != mark_now:
                    self._repair_row(node, mark_now)
                    span = self._indptr[node]
                self._row_epochs[node] = epoch
            s, e = span
            idx, w = self._indices[s:e], self._weights[s:e]
        if self._live_transients:
            tb = self._tblock
            if tb is not None and tb[0] == self._generation:
                _, tarr, bm, wm, anyb = tb
            else:
                tarr, bm, wm, anyb = self._transient_block()
            if not self._transient[node] and not anyb[node]:
                # Permanent reader, every bound endpoint visible: append
                # the whole stack without building a keep mask (the vast
                # majority of settles on an open corridor).
                return (np.concatenate([idx, tarr]),
                        np.concatenate([w, wm[node]]))
            keep = ~bm[node]
            if self._transient[node]:
                # Only a transient reader can appear in the transient id
                # list; permanent rows skip the self-exclusion pass.
                keep &= tarr != node
            if keep.all():
                add_i, add_w = tarr, wm[node]
            else:
                add_i, add_w = tarr[keep], wm[node][keep]
            if add_i.size:
                idx = np.concatenate([idx, add_i])
                w = np.concatenate([w, add_w])
        return idx, w

    def neighbors(self, node: int) -> Dict[int, float]:
        """The adjacency row of ``node``, computed/repaired lazily.

        A cached row records the obstacle and node counts it is current for.
        On access after growth, exactly two incremental fixes run: existing
        entries are retested against the *new* obstacles only, and sight
        lines to the *new* nodes only are added (tested against all
        obstacles).  Rows are therefore always current when returned.

        On the array engine the row lives in the flat slab; the dict view
        here is built on demand for the non-hot-path consumers (tests,
        the session surface, :func:`num_edges`).
        """
        if self.engine == ARRAY_ENGINE:
            idx, w = self.row_arrays(node)
            return dict(zip(idx.tolist(), w.tolist()))
        row = self._rows.get(node)
        mark_now = self._current_mark()
        if row is not None:
            n_rects, n_segs, n_polys, n_nodes = self._row_marks[node]
            if (n_rects, n_segs, n_polys, n_nodes) == mark_now:
                return row
            # Drop entries blocked by obstacles added since the row was cut.
            new_rects = self.obstacles.rects[n_rects:]
            new_segs = self.obstacles.segs[n_segs:]
            new_polys = self.obstacles.polys[n_polys:]
            if row and (new_rects.size or new_segs.size or new_polys):
                x, y = self._xy[node]
                ids = list(row.keys())
                arr = np.asarray([self._xy[i] for i in ids], dtype=np.float64)
                blocked = np.zeros(len(ids), dtype=bool)
                if new_rects.size:
                    blocked |= crosses_rect_interior(
                        x, y, arr[:, 0][:, None], arr[:, 1][:, None],
                        new_rects[None, :, 0], new_rects[None, :, 1],
                        new_rects[None, :, 2], new_rects[None, :, 3],
                    ).any(axis=1)
                if new_segs.size:
                    blocked |= proper_cross_segments(
                        x, y, arr[:, 0][:, None], arr[:, 1][:, None],
                        new_segs[None, :, 0], new_segs[None, :, 1],
                        new_segs[None, :, 2], new_segs[None, :, 3],
                    ).any(axis=1)
                for poly in new_polys:
                    blocked |= crosses_convex_polygon(
                        x, y, arr[:, 0], arr[:, 1], poly.as_array())
                self.visibility_tests += len(ids)
                for i, dead in zip(ids, blocked):
                    if dead:
                        del row[i]
            # Wire up nodes added since the row was cut.
            fresh = [i for i in range(n_nodes, len(self._xy))
                     if self._alive[i] and i != node]
            self._add_edges_to(node, row, fresh)
            self._row_marks[node] = mark_now
            return row
        row = {}
        self._rows[node] = row
        self._row_marks[node] = mark_now
        self._add_edges_to(node, row,
                           [i for i in self._alive_ids() if i != node])
        return row

    def num_edges(self, materialize: bool = False) -> int:
        """Count sight-line edges (cached rows only, unless ``materialize``)."""
        if materialize:
            # Bulk path: one batched launch for all missing rows instead of
            # one kernel launch per node (diagnostics used to dominate
            # small-benchmark profiles through exactly this loop).
            self.build_all()
        seen = set()
        if self.engine == ARRAY_ENGINE:
            for v, (s, e) in self._indptr.items():
                if not self._alive[v]:
                    continue
                for n in self._indices[s:e].tolist():
                    seen.add((v, n) if v < n else (n, v))
            # Slab rows cover permanent endpoints only; fold in the bound
            # transients' edges from their visibility columns.
            for t in self._live_transients:
                col, _ = self._column(t)
                for v in self._alive_ids():
                    if v != t and not col[v]:
                        seen.add((v, t) if v < t else (t, v))
            return len(seen)
        for v, row in self._rows.items():
            if not self._alive[v]:
                continue
            for n in row:
                seen.add((min(v, n), max(v, n)))
        return len(seen)

    # ------------------------------------------------------ visible regions
    def visible_region_of(self, node: int) -> IntervalSet:
        """Cached ``VR_{node,q}``, narrowed lazily as obstacles arrive."""
        epoch = self._struct_epoch
        cached = self._vr_cache.get(node)
        if cached is not None and cached[2] == epoch:
            return cached[0]
        rects = self.obstacles.rects
        segs = self.obstacles.segs
        slab = self.obstacles.poly_slab
        watermark_now = (rects.shape[0], segs.shape[0], len(slab))
        tally: dict = {}
        if cached is not None:
            vr, watermark, _ = cached
            if watermark != watermark_now:
                x, y = self._xy[node]
                vr = vr.subtract(shadow_set(x, y, self.qseg,
                                            rects[watermark[0]:],
                                            segs[watermark[1]:],
                                            slab[watermark[2]:], tally))
                self._count_shadows(tally)
            self._vr_cache[node] = (vr, watermark_now, epoch)
            return vr
        x, y = self._xy[node]
        vr = visible_region(x, y, self.qseg, self.obstacles, tally)
        self._count_shadows(tally)
        self._vr_cache[node] = (vr, watermark_now, epoch)
        return vr

    def _count_shadows(self, tally: dict) -> None:
        self.shadow_primitives_tested += tally["tested"]
        self.shadow_primitives_culled += tally["culled"]

    # -------------------------------------------------------------- dijkstra
    def _segment_heuristic(self) -> np.ndarray:
        """Per-node Euclidean distance to the bound query segment.

        The admissible heuristic behind bounded-traversal pruning.  Values
        are produced by the very same scalar ``qseg.dist_point`` that CPLC's
        Euclidean prefilter calls, so the traversal's prune test and CPLC's
        ``dist + dist(v, q) >= bound`` skip agree bit for bit — a node the
        traversal declines to relax is guaranteed to be skipped (not
        trusted) downstream.  Extended lazily as nodes appear; dead slots
        keep stale values harmlessly (their coordinates never change).
        """
        q = self.qseg
        n = len(self._xy)
        if self._h_qseg is not q:
            self._h_qseg = q
            self._h_len = 0
        if self._h_len < n:
            if self._h_np.size < n:
                grown = np.empty(max(n, 2 * self._h_np.size, 64),
                                 dtype=np.float64)
                grown[:self._h_len] = self._h_np[:self._h_len]
                self._h_np = grown
            dp = q.dist_point
            xy = self._xy
            h = self._h_np
            for i in range(self._h_len, n):
                x, y = xy[i]
                h[i] = dp(x, y)
            self._h_len = n
        return self._h_np

    def _traversal(self, source: int,
                   prune_bound: float = math.inf) -> Traversal:
        """The memoized traversal for ``source``, rebuilt when stale.

        A traversal is valid exactly while the graph is unchanged since it
        started (generation match): node insertion can open shorter paths,
        obstacle insertion can cut edges, and transient removal can kill
        settled nodes — any of which falsifies the recorded tree.  A pruned
        traversal additionally only serves requests with an equal or
        *smaller* bound (it settles a superset of their safe set); a larger
        bound forces a rebuild.
        """
        if prune_bound < math.inf and self.qseg is None:
            prune_bound = math.inf  # no segment, no heuristic to prune with
        t = self._traversals.get(source)
        if t is not None and t.stamp == self._generation \
                and t.prune_bound >= prune_bound:
            self.dijkstra_replays += 1
            return t
        if len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
            gen = self._generation
            self._traversals = {s: tr for s, tr in self._traversals.items()
                                if tr.stamp == gen}
            while len(self._traversals) >= _MAX_TRAVERSAL_MEMO:
                self._traversals.pop(next(iter(self._traversals)))
        heur = (self._segment_heuristic() if prune_bound < math.inf
                else None)
        if self.engine == ARRAY_ENGINE:
            t = ArrayTraversal(self.row_arrays, source, len(self._xy),
                               alive=self._alive_view,
                               prune_bound=prune_bound, heur=heur,
                               on_bulk_push=self._count_bulk_push,
                               stamp=self._generation,
                               prefetch=(self._prefetch_rows
                                         if self.frontier_prefetch > 1
                                         else None))
            self.array_traversals += 1
        else:
            t = Traversal(self.neighbors, source,
                          skip=lambda n: not self._alive[n],
                          prune_bound=prune_bound, heur=heur,
                          stamp=self._generation)
        self._traversals[source] = t
        self.dijkstra_runs += 1
        return t

    def dijkstra_order(self, source: int, prune_bound: float = math.inf
                       ) -> Iterator[Tuple[float, int, Optional[int]]]:
        """Yield ``(dist, node, predecessor)`` in ascending settled order.

        This is the traversal CPLC consumes; the caller breaks out when
        Lemma 7's cutoff fires.  Predecessor is the node visited right before
        on the shortest path (``u`` of Lemma 5), ``None`` for the source.
        Only settled nodes ever compute their adjacency rows, and repeated
        traversals from one source over an unchanged graph replay the
        memoized shortest-path tree instead of restarting (the cost that
        used to make ``shortest_path`` re-run a full Dijkstra per call).

        ``prune_bound`` enables goal-directed relaxation pruning toward the
        bound query segment (see :class:`~repro.routing.dijkstra.Traversal`):
        yielded nodes with ``dist + dist(node, qseg) < prune_bound`` are
        exact — distance, predecessor and position — while anything beyond
        may arrive late, inflated, or not at all, so callers must discard
        contributions at or past the bound (CPLC's global-bound skip does).
        """
        t = self._traversal(source, prune_bound)
        return t.order(on_advance=self._count_settle)

    def settled_traversal(self, source: int, prune_bound: float = math.inf):
        """The raw resumable traversal behind :meth:`dijkstra_order`.

        Returns ``(traversal, on_settle)``: hot consumers (CPLC's main
        loop) walk ``traversal.settled`` / call ``traversal.advance()``
        directly — same entries in the same order as the generator, minus
        one generator resume per settled node — and must invoke
        ``on_settle(entry)`` once per *fresh* advance so the graph's
        ``nodes_settled`` counter stays identical to the generator path.
        """
        return self._traversal(source, prune_bound), self._count_settle

    def _count_settle(self, _entry: Tuple[float, int, Optional[int]]) -> None:
        self.nodes_settled += 1

    def shortest_distances(self, source: int, targets: Iterable[int],
                           cutoff: float = math.inf,
                           prune_bound: float = math.inf) -> Dict[int, float]:
        """Early-terminating Dijkstra: distances to ``targets`` (inf if cut off).

        ``cutoff`` additionally stops the traversal once settled distances
        exceed it; targets not yet settled report ``inf``.  The underlying
        traversal stays resumable, so a later call with a larger cutoff
        continues where this one stopped.

        ``prune_bound`` opts into goal-directed relaxation pruning (see
        :meth:`dijkstra_order`): only safe for targets *on* the query
        segment (IOR's S and E, whose heuristic is zero) — their reported
        distance is exact whenever it is below the bound, and any target
        cut off by pruning necessarily reports at or above it.
        """
        remaining = set(targets)
        out = {t: math.inf for t in remaining}
        # Consume the traversal directly rather than through the
        # dijkstra_order generator: this loop touches every settled entry
        # of every warm-corridor Dijkstra, and the generator resume per
        # entry profiled at several percent of the arm.  Replay-cursor
        # discipline matches _ReplayCore.order, including the re-check
        # after an exhausted advance (a concurrent consumer may have
        # settled the tail between the length check and the locked
        # advance).
        tr = self._traversal(source, prune_bound)
        settled = tr.settled
        i = 0
        while True:
            if i < len(settled):
                d, node, _pred = settled[i]
                i += 1
            else:
                if tr.advance() is None:
                    if i < len(settled):
                        continue
                    break
                self.nodes_settled += 1
                continue
            if d > cutoff:
                break
            if node in remaining:
                out[node] = d
                remaining.discard(node)
                if not remaining:
                    break
        return out

    def shortest_path(self, source: int, target: int) -> Tuple[float, List[int]]:
        """Distance and node path from ``source`` to ``target`` (inf, [] if none)."""
        preds: Dict[int, Optional[int]] = {}
        for d, node, pred in self.dijkstra_order(source):
            preds[node] = pred
            if node == target:
                path = [node]
                while preds[path[-1]] is not None:
                    path.append(preds[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return d, path
        return math.inf, []
