"""Numpy-vectorized visibility predicates.

The visibility graph needs, per query, on the order of ``|VG|^2`` sight-line
tests, each against every retrieved obstacle.  Pure-Python predicates would
dominate the runtime, so the hot paths batch over numpy arrays.  Semantics
are identical to the scalar predicates in :mod:`repro.geometry.predicates`
(the test suite cross-checks them on random inputs):

* rectangle obstacles block only when the sight line crosses their *open*
  interior;
* segment obstacles block only on a *proper* crossing;
* all inputs broadcast, so the same kernels serve "1 segment x N obstacles",
  "E edges x 1 obstacle" and the per-row grids used by shadow computation.
"""

from __future__ import annotations

import numpy as np

from .predicates import EPS

__all__ = [
    "crosses_rect_interior",
    "crosses_convex_polygon",
    "crosses_convex_polygons",
    "proper_cross_segments",
    "blocked_by_rects",
    "blocked_by_segments",
    "blocked_batch",
    "primitive_bounds",
    "visibility_mask",
    "pairwise_visibility",
]

BATCH_TILE_ELEMS = 65_536
"""Edge-x-obstacle elements evaluated per tile of :func:`blocked_batch`.

Sized to keep a tile's broadcast intermediates (~16 temporaries per
element) inside the L2 cache: measured on the bulk-build workload, 64k
tiles run the same pair set ~2.5x faster than the former 4M cap, which
only bounded peak memory and let every temporary stream through DRAM.
Tiling never changes results — the kernels are elementwise."""

_TINY = 1e-300
"""Division guard: replacing a zero direction component by this keeps the
slab-test signs correct while avoiding NaNs entirely."""


def crosses_rect_interior(ax, ay, bx, by, xlo, ylo, xhi, yhi, eps: float = EPS):
    """Broadcasted test: does segment ``[a, b]`` cross the open rectangle interior?

    All eight arguments broadcast against each other; the result has the
    broadcast shape.  Degenerate rectangles never block; running along an
    edge or touching a corner never blocks.
    """
    with np.errstate(all="ignore"):
        dx = np.subtract(bx, ax)
        dy = np.subtract(by, ay)
        dxs = np.where(dx == 0.0, _TINY, dx)
        dys = np.where(dy == 0.0, _TINY, dy)
        tx1 = (xlo - ax) / dxs
        tx2 = (xhi - ax) / dxs
        ty1 = (ylo - ay) / dys
        ty2 = (yhi - ay) / dys
        t0 = np.maximum(np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2)),
                        0.0)
        t1 = np.minimum(np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2)),
                        1.0)
        width = xhi - xlo
        height = yhi - ylo
        overlap = (t1 - t0) > eps
        tm = 0.5 * (t0 + t1)
        mx = ax + tm * dx
        my = ay + tm * dy
        ex = np.minimum(eps, width * 1e-7)
        ey = np.minimum(eps, height * 1e-7)
        inside = ((mx > xlo + ex) & (mx < xhi - ex) &
                  (my > ylo + ey) & (my < yhi - ey))
        nondegenerate = (width > eps) & (height > eps)
        return overlap & inside & nondegenerate


def crosses_convex_polygon(ax: float, ay: float, bx, by, poly: np.ndarray,
                           eps: float = EPS) -> np.ndarray:
    """Do segments from ``(ax, ay)`` to each ``(bx, by)`` cross a convex polygon?

    ``poly`` is a (V, 2) array of counter-clockwise vertices.  Semantics match
    the rectangle kernel: only passing through the *open interior* blocks;
    grazing along an edge or through a vertex does not.  The source point is
    scalar, targets broadcast — the shape every caller needs (visibility rows,
    shadow midpoint grids).
    """
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    n = poly.shape[0]
    with np.errstate(all="ignore"):
        dxs = bx - ax
        dys = by - ay
        t0 = np.zeros(bx.shape)
        t1 = np.ones(bx.shape)
        feasible = np.ones(bx.shape, dtype=bool)
        for i in range(n):
            px, py = poly[i]
            qx, qy = poly[(i + 1) % n]
            ex = qx - px
            ey = qy - py
            c = ex * (ay - py) - ey * (ax - px)   # cross(edge, a - p)
            d = ex * dys - ey * dxs               # cross(edge, b - a)
            r = np.where(d != 0.0, -c / np.where(d == 0.0, 1.0, d), 0.0)
            t0 = np.where(d > 0.0, np.maximum(t0, r), t0)
            t1 = np.where(d < 0.0, np.minimum(t1, r), t1)
            feasible &= ~((d == 0.0) & (c < 0.0))
        overlap = feasible & ((t1 - t0) > eps)
        tm = 0.5 * (t0 + t1)
        mx = ax + tm * dxs
        my = ay + tm * dys
        inside = overlap.copy()
        for i in range(n):
            px, py = poly[i]
            qx, qy = poly[(i + 1) % n]
            ex = qx - px
            ey = qy - py
            scale = max(abs(ex) + abs(ey), 1.0)
            f = ex * (my - py) - ey * (mx - px)
            inside &= f > eps * scale
        return inside


def crosses_convex_polygons(ax: float, ay: float, bx: np.ndarray,
                            by: np.ndarray, verts: np.ndarray,
                            edges: np.ndarray,
                            eps: float = EPS) -> np.ndarray:
    """:func:`crosses_convex_polygon` for many polygons in one launch.

    ``verts`` is a (P, Vmax, 2) slab of counter-clockwise vertices; a
    polygon with fewer than ``Vmax`` vertices repeats its last one, so its
    padded edges are zero-length.  ``edges`` (P, Vmax) marks the real
    edges (edge ``i`` runs from vertex ``i`` to vertex ``(i + 1) % Vmax``).
    Row ``p`` of the (P, M) targets ``bx`` / ``by`` is tested against
    polygon ``p`` with exactly the per-element float operations of the
    single-polygon kernel, so every decision is bit-identical to it.  A
    zero-length edge never moves the clip parameters; it is only excluded
    from the interior test, which it would otherwise always fail.
    """
    vmax = verts.shape[1]
    nxt = np.arange(1, vmax + 1) % vmax
    px = verts[:, :, 0, None]                # (P, Vmax, 1)
    py = verts[:, :, 1, None]
    ex = px[:, nxt] - px
    ey = py[:, nxt] - py
    with np.errstate(all="ignore"):
        dxs = (bx - ax)[:, None, :]          # (P, 1, M)
        dys = (by - ay)[:, None, :]
        c = ex * (ay - py) - ey * (ax - px)  # cross(edge, a - p)
        d = ex * dys - ey * dxs              # cross(edge, b - a)
        r = np.where(d != 0.0, -c / np.where(d == 0.0, 1.0, d), 0.0)
        # Folding the per-edge clip updates with max/min reductions gives
        # the same values as the single-polygon kernel's running update.
        t0 = np.where(d > 0.0, r, 0.0).max(axis=1, initial=0.0)
        t1 = np.where(d < 0.0, r, 1.0).min(axis=1, initial=1.0)
        inside = ~((d == 0.0) & (c < 0.0)).any(axis=1) & ((t1 - t0) > eps)
        tm = 0.5 * (t0 + t1)
        mx = (ax + tm * dxs[:, 0])[:, None, :]
        my = (ay + tm * dys[:, 0])[:, None, :]
        f = ex * (my - py) - ey * (mx - px)
        tol = eps * np.maximum(np.abs(ex) + np.abs(ey), 1.0)
        return inside & ((f > tol) | ~edges[:, :, None]).all(axis=1)


def _orient_sign(ax, ay, bx, by, cx, cy, eps: float = EPS):
    """Vectorized tolerant orientation sign (-1, 0, +1)."""
    bax = np.subtract(bx, ax)
    bay = np.subtract(by, ay)
    cax = np.subtract(cx, ax)
    cay = np.subtract(cy, ay)
    v = bax * cay - bay * cax
    scale = (np.maximum(np.abs(bax) + np.abs(bay), 1.0) *
             np.maximum(np.abs(cax) + np.abs(cay), 1.0))
    tol = eps * scale
    return (v > tol).astype(np.int8) - (v < -tol).astype(np.int8)


def proper_cross_segments(ax, ay, bx, by, cx, cy, dx, dy, eps: float = EPS):
    """Broadcasted proper-crossing test of open segments ``(a,b)`` and ``(c,d)``."""
    s1 = _orient_sign(ax, ay, bx, by, cx, cy, eps)
    s2 = _orient_sign(ax, ay, bx, by, dx, dy, eps)
    s3 = _orient_sign(cx, cy, dx, dy, ax, ay, eps)
    s4 = _orient_sign(cx, cy, dx, dy, bx, by, eps)
    return (s1 * s2 < 0) & (s3 * s4 < 0)


def blocked_by_rects(ax, ay, bx, by, rects: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Mask of which rectangles in ``rects`` (N, 4) block segment ``[a, b]``."""
    if rects.size == 0:
        return np.zeros(0, dtype=bool)
    return crosses_rect_interior(ax, ay, bx, by,
                                 rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3],
                                 eps)


def blocked_by_segments(ax, ay, bx, by, segs: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Mask of which segment obstacles in ``segs`` (M, 4) block segment ``[a, b]``."""
    if segs.size == 0:
        return np.zeros(0, dtype=bool)
    return proper_cross_segments(ax, ay, bx, by,
                                 segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3],
                                 eps)


def primitive_bounds(rects: np.ndarray, segs: np.ndarray
                     ) -> "tuple[np.ndarray, np.ndarray]":
    """Per-primitive AABBs for :func:`blocked_batch`'s bbox prefilter.

    Returns ``(rect_bounds, seg_bounds)``, each of shape (N, 4) as
    ``[xlo, ylo, xhi, yhi]`` rows.  Rectangle obstacles already *are*
    their bounds (``RectObstacle`` validates ``lo <= hi``), so that slab
    is returned without copying; segment bounds order each coordinate
    pair.
    """
    if segs.size:
        sb = np.empty((segs.shape[0], 4), dtype=np.float64)
        np.minimum(segs[:, 0], segs[:, 2], out=sb[:, 0])
        np.minimum(segs[:, 1], segs[:, 3], out=sb[:, 1])
        np.maximum(segs[:, 0], segs[:, 2], out=sb[:, 2])
        np.maximum(segs[:, 1], segs[:, 3], out=sb[:, 3])
    else:
        sb = np.empty((0, 4), dtype=np.float64)
    return rects, sb


def _kind_hits(hit: np.ndarray, kernel, sx, sy, tx, ty, prims: np.ndarray,
               pb, pad: float, eps: float,
               ebounds) -> "tuple[int, int]":
    """Test one obstacle kind for one tile, optionally bbox-prefiltered.

    Updates ``hit`` in place; returns ``(pairs_tested, pairs_pruned)``.
    The prefilter only skips (edge, primitive) pairs whose padded AABBs
    are disjoint — pairs the tolerant kernels below could never have
    decided "blocking" (the pad dominates their eps tolerance and the
    midpoint-lerp rounding) — so the resulting mask is identical to the
    full broadcast.
    """
    full = hit.shape[0] * prims.shape[0]
    if pb is not None:
        exlo, eylo, exhi, eyhi = ebounds
        overlap = ((exlo[:, None] <= pb[None, :, 2] + pad) &
                   (exhi[:, None] >= pb[None, :, 0] - pad) &
                   (eylo[:, None] <= pb[None, :, 3] + pad) &
                   (eyhi[:, None] >= pb[None, :, 1] - pad))
        ei, oi = overlap.nonzero()
        # Gathering pairs costs ~2x the broadcast per element, so a dense
        # overlap (most boxes touch most edges) runs the plain broadcast.
        if ei.size * 2 < full:
            if ei.size:
                pair_hit = kernel(sx[ei], sy[ei], tx[ei], ty[ei],
                                  prims[oi, 0], prims[oi, 1],
                                  prims[oi, 2], prims[oi, 3], eps)
                hit[ei[pair_hit]] = True
            return ei.size, full - ei.size
    hit |= kernel(sx[:, None], sy[:, None], tx[:, None], ty[:, None],
                  prims[None, :, 0], prims[None, :, 1],
                  prims[None, :, 2], prims[None, :, 3], eps).any(axis=1)
    return full, 0


def blocked_batch(sources: np.ndarray, targets: np.ndarray,
                  rects: np.ndarray, segs: np.ndarray, polys=(),
                  eps: float = EPS,
                  tile_elems: int = BATCH_TILE_ELEMS,
                  bounds: "tuple[np.ndarray, np.ndarray] | None" = None,
                  tally: "dict | None" = None) -> np.ndarray:
    """Which of M candidate edges are blocked by *any* cached obstacle?

    The batch kernel behind the array-native visibility graph: row ``i`` of
    ``sources`` / ``targets`` (both (M, 2)) is one candidate sight line, and
    the whole M-edge block is tested against all N obstacle primitives in
    one ``M x N`` broadcast per obstacle kind — one numpy call where the
    scalar path made one call per edge.  Above ``tile_elems`` the broadcast
    is tiled over source rows so intermediates stay bounded.

    Semantics are exactly the elementwise kernels above (the per-edge
    results are independent of how edges are batched, tiled, or bbox-
    prefiltered), so a batch decision is bit-identical to the scalar
    predicates on the same edge.

    Args:
        polys: optional sequence of (V, 2) counter-clockwise vertex arrays
            for convex polygon obstacles.
        bounds: optional :func:`primitive_bounds` result for ``rects`` /
            ``segs``.  When given, each edge is only evaluated against
            primitives whose padded AABB overlaps the edge's AABB; a pair
            whose boxes are disjoint cannot block (see :func:`_kind_hits`),
            so results are unchanged — only cheaper.
        tally: optional dict the call fills with ``tested`` (pairs actually
            evaluated by a kernel) and ``pruned`` (pairs skipped by the
            prefilter) for the owner's counters.

    Returns:
        Boolean mask of shape (M,): True where the edge is blocked.
    """
    m = sources.shape[0]
    blocked = np.zeros(m, dtype=bool)
    tested = pruned = 0
    if m == 0:
        if tally is not None:
            tally["tested"] = tally["pruned"] = 0
        return blocked
    n_rects = rects.shape[0] if rects.size else 0
    n_segs = segs.shape[0] if segs.size else 0
    rb = sb = None
    pad = 0.0
    if bounds is not None and (n_rects or n_segs):
        rb, sb = bounds
        if not n_rects or not rb.size:
            rb = None
        if not n_segs or not sb.size:
            sb = None
        # The pad scales eps by the coordinate magnitude so it dominates
        # both the kernels' tolerant comparisons and the rounding of the
        # clipped-midpoint lerp — no truly blocking pair can be pruned.
        scale = 1.0 + max(float(np.abs(sources).max()),
                          float(np.abs(targets).max()))
        pad = 8.0 * eps * scale
    n_prims = n_rects + n_segs
    rows_per_tile = m if n_prims == 0 else max(1, tile_elems // n_prims)
    for start in range(0, m, rows_per_tile):
        stop = min(start + rows_per_tile, m)
        sx = sources[start:stop, 0]
        sy = sources[start:stop, 1]
        tx = targets[start:stop, 0]
        ty = targets[start:stop, 1]
        hit = np.zeros(stop - start, dtype=bool)
        ebounds = None
        if rb is not None or sb is not None:
            ebounds = (np.minimum(sx, tx), np.minimum(sy, ty),
                       np.maximum(sx, tx), np.maximum(sy, ty))
        if n_rects:
            t, p = _kind_hits(hit, crosses_rect_interior, sx, sy, tx, ty,
                              rects, rb, pad, eps, ebounds)
            tested += t
            pruned += p
        if n_segs:
            t, p = _kind_hits(hit, proper_cross_segments, sx, sy, tx, ty,
                              segs, sb, pad, eps, ebounds)
            tested += t
            pruned += p
        blocked[start:stop] = hit
    pb_edges = None
    if polys and bounds is not None:
        if pad == 0.0:
            scale = 1.0 + max(float(np.abs(sources).max()),
                              float(np.abs(targets).max()))
            pad = 8.0 * eps * scale
        pb_edges = (np.minimum(sources[:, 0], targets[:, 0]),
                    np.minimum(sources[:, 1], targets[:, 1]),
                    np.maximum(sources[:, 0], targets[:, 0]),
                    np.maximum(sources[:, 1], targets[:, 1]))
    for poly in polys:
        arr = poly.as_array() if hasattr(poly, "as_array") else np.asarray(poly)
        if pb_edges is not None:
            # Same padded-AABB prune as _kind_hits, per polygon: an edge
            # whose box misses the hull's box cannot cross it, so skipping
            # the kernel (or the whole polygon, the usual case for a
            # localized launch) leaves the mask unchanged.
            exlo, eylo, exhi, eyhi = pb_edges
            sel = ((exlo <= float(arr[:, 0].max()) + pad) &
                   (exhi >= float(arr[:, 0].min()) - pad) &
                   (eylo <= float(arr[:, 1].max()) + pad) &
                   (eyhi >= float(arr[:, 1].min()) - pad)).nonzero()[0]
            if sel.size * 2 < m:
                tested += sel.size
                pruned += m - sel.size
                if sel.size:
                    ph = crosses_convex_polygon(
                        sources[sel, 0], sources[sel, 1],
                        targets[sel, 0], targets[sel, 1], arr, eps)
                    blocked[sel[ph]] = True
                continue
        blocked |= crosses_convex_polygon(sources[:, 0], sources[:, 1],
                                          targets[:, 0], targets[:, 1],
                                          arr, eps)
        tested += m
    if tally is not None:
        tally["tested"] = tested
        tally["pruned"] = pruned
    return blocked


def visibility_mask(vx: float, vy: float, targets: np.ndarray,
                    rects: np.ndarray, segs: np.ndarray,
                    polys=(), eps: float = EPS) -> np.ndarray:
    """For each row of ``targets`` (K, 2): is the sight line from ``v`` unblocked?

    ``polys`` is an optional sequence of (V, 2) counter-clockwise vertex
    arrays for convex polygon obstacles.
    """
    k = targets.shape[0]
    visible = np.ones(k, dtype=bool)
    if k == 0:
        return visible
    tx = targets[:, 0]
    ty = targets[:, 1]
    if rects.size:
        blocked = crosses_rect_interior(
            vx, vy, tx[:, None], ty[:, None],
            rects[None, :, 0], rects[None, :, 1], rects[None, :, 2], rects[None, :, 3],
            eps,
        ).any(axis=1)
        visible &= ~blocked
    if segs.size:
        blocked = proper_cross_segments(
            vx, vy, tx[:, None], ty[:, None],
            segs[None, :, 0], segs[None, :, 1], segs[None, :, 2], segs[None, :, 3],
            eps,
        ).any(axis=1)
        visible &= ~blocked
    for poly in polys:
        visible &= ~crosses_convex_polygon(vx, vy, tx, ty, poly, eps)
    return visible


def pairwise_visibility(sources: np.ndarray, targets: np.ndarray,
                        rects: np.ndarray, segs: np.ndarray,
                        eps: float = EPS,
                        chunk_elems: int = 2_000_000) -> np.ndarray:
    """Visibility matrix (A, B): sight line from each source to each target.

    One broadcast evaluates ``chunk ⨯ B ⨯ (N + M)`` obstacle tests at a time;
    ``chunk_elems`` bounds the intermediate array size.
    """
    a = sources.shape[0]
    b = targets.shape[0]
    out = np.ones((a, b), dtype=bool)
    if a == 0 or b == 0 or (rects.size == 0 and segs.size == 0):
        return out
    per_row = max(1, b * max(rects.shape[0] + segs.shape[0], 1))
    rows_per_chunk = max(1, chunk_elems // per_row)
    tx = targets[:, 0][None, :, None]
    ty = targets[:, 1][None, :, None]
    for start in range(0, a, rows_per_chunk):
        stop = min(start + rows_per_chunk, a)
        sx = sources[start:stop, 0][:, None, None]
        sy = sources[start:stop, 1][:, None, None]
        visible = np.ones((stop - start, b), dtype=bool)
        if rects.size:
            blocked = crosses_rect_interior(
                sx, sy, tx, ty,
                rects[None, None, :, 0], rects[None, None, :, 1],
                rects[None, None, :, 2], rects[None, None, :, 3],
                eps,
            ).any(axis=2)
            visible &= ~blocked
        if segs.size:
            blocked = proper_cross_segments(
                sx, sy, tx, ty,
                segs[None, None, :, 0], segs[None, None, :, 1],
                segs[None, None, :, 2], segs[None, None, :, 3],
                eps,
            ).any(axis=2)
            visible &= ~blocked
        out[start:stop] = visible
    return out
