"""Outside-in span tracing of the library's layers.

The tracer never edits the library: :func:`install` replaces a fixed list
of public functions and methods with thin wrappers that open a span on
entry and close it on exit, and the returned :class:`Installed` handle
puts the originals back.  Several callees are imported *by name* into
their callers (``compute_cpl`` into ``repro.core.engine``,
``blocked_batch`` into ``repro.obstacles.visgraph``, ...), so those are
replaced in the calling module, which is where the name is looked up at
call time.  ``ArrayTraversal`` binds ``graph.row_arrays`` when it is
constructed, so replacing the class attribute before any graph exists is
enough.

A span is ``(name, start, end, parent, request)``; spans live in flat
typed arrays (28 bytes each) and are written out once, at the end of the
run.  A layer's *self time* is its span's duration minus the time its
child spans cover; the self times of one request's spans add up to the
duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (module, attribute path inside the module, span name).  The span name's
#: prefix is the layer (the package under ``repro``) the metric reports.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.visible_region_of",
     "obstacles.visible_region"),
    ("repro.obstacles.visgraph", "shadow_set", "obstacles.shadow"),
    ("repro.obstacles.visgraph", "visible_region", "obstacles.shadow"),
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.row_arrays",
     "obstacles.rows"),
    ("repro.obstacles.visgraph", "LocalVisibilityGraph.materialize_rows",
     "obstacles.materialize"),
    ("repro.obstacles.visgraph", "blocked_batch", "geometry.kernel"),
    ("repro.routing.dijkstra", "ArrayTraversal.advance", "routing.traverse"),
    ("repro.routing.backends", "SharedVGBackend.attach_endpoints",
     "routing.attach"),
    ("repro.routing.backends", "SharedVGBackend.warm", "routing.warm"),
    ("repro.routing.backends", "SharedVGBackend.note_obstacle_insert",
     "routing.patch"),
    ("repro.routing.backends", "SharedVGBackend.note_obstacle_remove",
     "routing.repair"),
    ("repro.core.engine", "ior_fixpoint", "core.ior"),
    ("repro.core.engine", "compute_cpl", "core.cplc"),
    ("repro.core.engine", "KEnvelope.insert", "core.envelope"),
    ("repro.query.executor", "build_plan", "query.plan"),
    ("repro.service.cache", "CachedObstacleView.ensure", "service.retrieve"),
)

#: Root spans opened by the harness around each measured operation.
EXECUTE = "query.execute"
UPDATE = "service.update"


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.current_request = -1

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        """Drop every recorded span (none may be open)."""
        if self._stack:
            raise RuntimeError("cannot clear with spans open")
        for column in (self.name, self.parent, self.request, self.start,
                       self.end):
            del column[:]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        """Open a span of name id ``nid``; returns its index."""
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        """Close the innermost open span, ``idx``."""
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.leave(idx)

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    # ------------------------------------------------------------ analysis
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """``(name, parent, request, start, end)`` as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.request, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the summed durations of its children.

        Spans of one thread nest strictly, so children never overlap and
        their summed duration is exactly the part of the parent they cover.
        """
        name, parent, _req, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        if has_parent.any():
            child += np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return dur - child

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self time in s, span count)``."""
        name = self.arrays()[0]
        selft = self.self_times()
        out: Dict[str, Tuple[float, int]] = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = (float(selft[mask].sum()), int(mask.sum()))
        return out

    def inclusive(self, name: str) -> float:
        """Summed duration of the spans called ``name`` that have no
        ancestor of the same name (self time plus everything below)."""
        if name not in self._ids:
            return 0.0
        names, parent, _req, start, end = self.arrays()
        nid = self._ids[name]
        mine = names == nid
        nested = np.zeros(len(names), dtype=bool)
        anc = parent.astype(np.int64)
        while (anc >= 0).any():  # one step up the tree per pass
            up = anc >= 0
            nested[up] |= names[anc[up]] == nid
            anc[up] = parent[anc[up]]
        top = mine & ~nested
        return float((end[top] - start[top]).sum())

    def root_wall(self, root: str) -> float:
        """Summed duration of every top-level span called ``root``."""
        if root not in self._ids:
            return 0.0
        name, parent, _req, start, end = self.arrays()
        mask = (name == self._ids[root]) & (parent < 0)
        return float((end[mask] - start[mask]).sum())

    def subtree_self(self, root: str) -> Dict[str, float]:
        """Self time per span name, restricted to trees under ``root``."""
        if root not in self._ids:
            return {}
        name, parent, _req, _start, _end = self.arrays()
        selft = self.self_times()
        top = np.arange(len(name))
        up = parent.astype(np.int64)
        while (up >= 0).any():  # climb until every span sits at its root
            climbing = up >= 0
            top[climbing] = up[climbing]
            up[climbing] = parent[up[climbing]]
        under = name[top] == self._ids[root]
        out: Dict[str, float] = {}
        for nid, label in enumerate(self.names):
            mask = under & (name == nid)
            if mask.any():
                out[label] = float(selft[mask].sum())
        return out

    def write(self, path: str) -> None:
        """Write every span to a compressed ``.npz``: int columns ``name``
        (an index into ``names``), ``parent`` (-1 for a root) and
        ``request``, and float columns ``start_s``/``end_s`` in seconds
        from the first span."""
        name, parent, req, start, end = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, request=req, start_s=start - t0,
                            end_s=end - t0)


class Installed:
    """Wrappers in place; :meth:`remove` restores every original."""

    def __init__(self, saved: List[Tuple[object, str, object]]):
        self._saved = saved

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target; call before building the workspace to trace."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for module_name, path, span_name in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, span_name))
            saved.append((owner, attr, original))
    except BaseException:
        Installed(saved).remove()
        raise
    return Installed(saved)
