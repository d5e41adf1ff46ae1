"""Closed-loop measurement of one workload against ``repro.Workspace``.

One client, one process, no worker threads: every operation waits for its
answer before the next one is sent.  The shared backend is warmed before
timing starts (``prefetch_all()``, ``routing.warm()`` and one unmeasured
query); that warm-up is what ``setup_s`` measures.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import (
    CoknnQuery,
    ConnQuery,
    OnnQuery,
    PlannerOptions,
    PolygonObstacle,
    RangeQuery,
    RectObstacle,
    Segment,
    SegmentObstacle,
    Workspace,
)
from repro.routing.stats import BackendStats

import oracle as oracle_mod
import tracer as tracer_mod
from workloads import Inputs, Op, Workload

PAGE_SIZE = 256
SETUP_REPS = 15
"""Workspace builds per run; ``setup_s`` is their median."""

ROUND_OPS = {"corridor-mixed": 8, "lattice-kinds": 5, "churn": 8}
"""Each workload's stream is a sequence of rounds with the same mix of
operations; a run stops only at a round boundary."""

MIN_OPS = {"corridor-mixed": 8, "lattice-kinds": 20, "churn": 16}
"""Operations every run completes, however short ``--seconds`` is.  The
deterministic counters and the answer digest cover exactly this prefix."""

N_OPS = {"corridor-mixed": 2000, "lattice-kinds": 5000, "churn": 500}
"""Operations generated per run (churn: rounds); more than any run uses."""

QUERY_KINDS = ("conn", "coknn", "onn", "range")
OBSTACLE_UPDATES = ("add_obstacle", "remove_obstacle")
SITE_UPDATES = ("add_site", "remove_site")

CHURN_CHECK_EVERY = 8
"""Churn answers given while an inserted rect is live are checked on every
``CHURN_CHECK_EVERY``-th round (each such state needs a fresh oracle
graph); every other churn answer is checked."""


def make_obstacle(spec: Tuple):
    kind, geom = spec
    if kind == "rect":
        return RectObstacle(*geom)
    if kind == "segment":
        return SegmentObstacle(*geom)
    return PolygonObstacle(list(geom))


def make_query(op: Op):
    if op.kind == "conn":
        return ConnQuery(Segment(*op.args[0]))
    if op.kind == "coknn":
        return CoknnQuery(Segment(*op.args[0]), knn=op.args[1])
    if op.kind == "onn":
        return OnnQuery(op.args[0], knn=op.args[1])
    return RangeQuery(op.args[0], radius=op.args[1])


def build_workspace(inputs: Inputs) -> Tuple[Workspace, float]:
    """Fresh workspace, warmed; returns it with its set-up wall."""
    obstacles = [make_obstacle(s) for s in inputs.obstacles]
    t0 = time.perf_counter()
    ws = Workspace.from_points(inputs.sites, obstacles, page_size=PAGE_SIZE,
                               planner=PlannerOptions(backend="shared"))
    ws.prefetch_all()
    ws.routing.warm()
    return ws, time.perf_counter() - t0


def warm_query(ws: Workspace, inputs: Inputs) -> None:
    """One unmeasured query before timing starts."""
    ws.execute(make_query(inputs.warmup))


# ---------------------------------------------------------------- counters
class Counters:
    """Deltas of the program's own counters since construction."""

    def __init__(self, ws: Workspace):
        self.ws = ws
        self._backend = dataclasses.replace(ws.routing.stats)
        self._cache = dataclasses.replace(ws.cache.stats)
        self._io = self._io_now()
        self.npe = self.nodes_expanded = self.split_solves = 0

    def _io_now(self) -> Tuple[int, int]:
        reads = faults = 0
        for tree in (self.ws.data_tree, self.ws.obstacle_tree):
            reads += tree.tracker.stats.logical_reads
            faults += tree.tracker.stats.page_faults
        return reads, faults

    def add_query(self, stats) -> None:
        self.npe += stats.npe
        self.nodes_expanded += stats.nodes_expanded
        self.split_solves += stats.split_solves

    def snapshot(self) -> Dict[str, float]:
        now = self.ws.routing.stats
        d = BackendStats(**{f.name: getattr(now, f.name) - getattr(
            self._backend, f.name) for f in dataclasses.fields(BackendStats)})
        cache = self.ws.cache.stats
        hits = cache.hits - self._cache.hits
        misses = cache.misses - self._cache.misses
        reads, faults = self._io_now()
        tested, pruned = d.batched_edges_tested, d.kernel_pruned_edges
        return {
            "nodes_settled": d.nodes_settled,
            "dijkstra_runs": d.dijkstra_runs,
            "replay_rate": d.replay_rate,
            "kernel_pairs": tested,
            "kernel_prune_ratio": (pruned / (pruned + tested)
                                   if pruned + tested else 0.0),
            "rows_materialized": d.rows_bulk_materialized,
            "repair_retested_pairs": d.repair_retested_pairs,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "logical_reads": reads - self._io[0],
            "page_faults": faults - self._io[1],
            "npe": self.npe,
            "nodes_expanded": self.nodes_expanded,
            "split_solves": self.split_solves,
        }


DETERMINISTIC = ("nodes_settled", "dijkstra_runs", "kernel_pairs",
                 "rows_materialized", "repair_retested_pairs",
                 "logical_reads", "page_faults", "npe", "nodes_expanded",
                 "split_solves")


# -------------------------------------------------------------------- loop
@dataclasses.dataclass
class Record:
    index: int
    kind: str
    op: Op
    seconds: float
    result: Any = None
    error: Optional[str] = None


@dataclasses.dataclass
class Phase:
    records: List[Record]
    wall: float
    counters: Dict[str, float]
    prefix_counters: Dict[str, float]
    digest: str


def _apply(ws: Workspace, op: Op, live: Dict[Tuple, Any]) -> bool:
    """One update followed by ``routing.warm()`` (update-to-ready)."""
    if op.kind == "add_obstacle":
        live[op.args[0]] = make_obstacle(op.args[0])
        ok = ws.add_obstacle(live[op.args[0]])
    elif op.kind == "remove_obstacle":
        ok = ws.remove_obstacle(live.pop(op.args[0]))
    elif op.kind == "add_site":
        payload, (x, y) = op.args[0]
        ok = ws.add_site(payload, x, y)
    else:
        payload, (x, y) = op.args[0]
        ok = ws.remove_site(payload, x, y)
    ws.routing.warm()
    return ok


def run_phase(ws: Workspace, ops: Sequence[Op], seconds: float,
              min_ops: int, round_ops: int = 1, max_ops: Optional[int] = None,
              tracer: Optional[tracer_mod.Tracer] = None) -> Phase:
    """Run ``ops`` in a closed loop for ``seconds`` (and >= ``min_ops``),
    stopping at a multiple of ``round_ops``; or run exactly ``max_ops``."""
    counters = Counters(ws)
    prefix: Dict[str, float] = {}
    digest = oracle_mod.Digest()
    records: List[Record] = []
    live: Dict[Tuple, Any] = {}
    clock = time.perf_counter
    limit = len(ops) if max_ops is None else min(max_ops, len(ops))
    start = clock()
    for i in range(limit):
        if (max_ops is None and i >= min_ops and i % round_ops == 0
                and clock() - start >= seconds):
            break
        op = ops[i]
        is_query = op.kind in QUERY_KINDS
        query = make_query(op) if is_query else None
        rec = Record(i, op.kind, op, 0.0)
        if tracer is not None:
            tracer.current_request = i
            root = tracer.enter(tracer.name_id(
                tracer_mod.EXECUTE if is_query else tracer_mod.UPDATE))
        t0 = clock()
        try:
            if is_query:
                rec.result = ws.execute(query)
            elif not _apply(ws, op, live):
                rec.error = f"{op.kind} reported no change"
        except Exception as exc:  # a failed operation is counted, not fatal
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = clock() - t0
        if tracer is not None:
            tracer.leave(root)
        if is_query and rec.result is not None:
            counters.add_query(rec.result.stats)
        records.append(rec)
        if i < min_ops and rec.result is not None:
            digest.add(op.kind, rec.result)
        if i == min_ops - 1:
            prefix = counters.snapshot()
    wall = clock() - start
    if not prefix:
        prefix = counters.snapshot()
    return Phase(records, wall, counters.snapshot(), prefix,
                 digest.hexdigest())


# ----------------------------------------------------------------- checking
def check_answers(inputs: Inputs, records: Sequence[Record]
                  ) -> Tuple[int, List[str]]:
    """Oracle-check the answers; returns (answers checked, failures).

    Runs after the timed phase.  Read workloads have one scene state.
    Churn tracks the state each answer was given in; states with an
    inserted rect live are checked on every ``CHURN_CHECK_EVERY``-th round.
    """
    failures = [f"op {r.index} {r.kind}: {r.error}" for r in records
                if r.error]
    obstacles = [make_obstacle(s) for s in inputs.obstacles]
    base = oracle_mod.Oracle(obstacles, inputs.sites)
    cache: Dict[Tuple, oracle_mod.Oracle] = {(None, None): base}
    rect = site = None
    checked = 0
    for rec in records:
        op = rec.op
        if op.kind == "add_obstacle":
            rect = op.args[0]
        elif op.kind == "remove_obstacle":
            rect = None
        elif op.kind == "add_site":
            site = op.args[0]
        elif op.kind == "remove_site":
            site = None
        if op.kind not in QUERY_KINDS or rec.result is None:
            continue
        round_no = rec.index // 8
        if rect is not None and round_no % CHURN_CHECK_EVERY:
            continue
        key = (rect, site)
        if key not in cache:
            # Only the base state recurs; keep it and the current states.
            cache = {k: v for k, v in cache.items()
                     if k[0] in (None, rect) and k[1] in (None, site)}
            scene = cache.get((rect, None))
            if scene is None:
                scene = cache[(rect, None)] = oracle_mod.Oracle(
                    obstacles + [make_obstacle(rect)], inputs.sites)
            cache[key] = scene.with_site(*site) if site else scene
        verdict = oracle_mod.check(cache[key], op.kind, op.args, rec.result)
        checked += 1
        if verdict:
            failures.append(f"op {rec.index} {op.kind}: {verdict}")
    return checked, failures


# ------------------------------------------------------------------ metrics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics plus deterministic counters."""
    inputs = workload.generate(seed, N_OPS[workload.name])
    setups = []
    for _ in range(SETUP_REPS):
        ws = None  # drop the previous build before timing the next
        ws, wall = build_workspace(inputs)
        setups.append(wall)
    warm_query(ws, inputs)
    phase = run_phase(ws, inputs.ops, seconds, MIN_OPS[workload.name],
                      ROUND_OPS[workload.name])
    rss = peak_rss_mb()
    checked, failures = check_answers(inputs, phase.records)

    lat: Dict[str, List[float]] = {}
    for r in phase.records:
        if r.error is None:
            lat.setdefault(r.kind, []).append(r.seconds * 1000.0)
    queries = [v for k in QUERY_KINDS for v in lat.get(k, [])]
    obstacle = [v for k in OBSTACLE_UPDATES for v in lat.get(k, [])]
    site = [v for k in SITE_UPDATES for v in lat.get(k, [])]
    n_queries = sum(1 for r in phase.records if r.kind in QUERY_KINDS)

    def stat(values, q, unit):
        return {"value": percentile(values, q), "unit": unit,
                "samples": len(values),
                "beyond": len(values) - math.ceil(len(values) * q / 100.0)}

    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "query_p50_ms": stat(queries, 50, "ms"),
        "query_p90_ms": stat(queries, 90, "ms"),
        "throughput_qps": {"value": n_queries / phase.wall, "unit": "1/s",
                           "samples": n_queries},
        "conn_p50_ms": stat(lat.get("conn", []), 50, "ms"),
        "rss_peak_mb": {"value": rss, "unit": "MB", "samples": 1},
    }
    optional = {"coknn_p50_ms": (lat.get("coknn", []), 50),
                "onn_p50_ms": (lat.get("onn", []), 50),
                "range_p50_ms": (lat.get("range", []), 50),
                "obstacle_update_p50_ms": (obstacle, 50),
                "obstacle_update_p90_ms": (obstacle, 90),
                "site_update_p50_ms": (site, 50)}
    for name, (values, q) in optional.items():
        if values:
            metrics[name] = stat(values, q, "ms")
    attempted = len(phase.records)
    failed = len(failures)
    metrics["error_rate"] = {"value": failed / attempted,
                             "unit": "fraction", "samples": attempted}
    return {"attempted": attempted, "failed": failed, "checked": checked,
            "failures": failures, "metrics": metrics,
            "counters": {k: phase.prefix_counters[k] for k in DETERMINISTIC},
            "digest": phase.digest, "prefix_ops": MIN_OPS[workload.name],
            "phase_wall_s": phase.wall}


# ------------------------------------------------------------------ tracing
LAYER_TIMES = (
    ("obstacles.visible_region_s", "obstacles.visible_region"),
    ("obstacles.shadow_s", "obstacles.shadow"),
    ("obstacles.rows_s", "obstacles.rows"),
    ("obstacles.materialize_s", "obstacles.materialize"),
    ("geometry.kernel_s", "geometry.kernel"),
    ("routing.traverse_s", "routing.traverse"),
    ("routing.attach_s", "routing.attach"),
    ("routing.warm_s", "routing.warm"),
    ("routing.patch_s", "routing.patch"),
    ("routing.repair_s", "routing.repair"),
    ("core.ior_s", "core.ior"),
    ("core.cplc_s", "core.cplc"),
    ("core.envelope_s", "core.envelope"),
    ("query.plan_s", "query.plan"),
    ("service.retrieve_s", "service.retrieve"),
    ("query.execute_s", tracer_mod.EXECUTE),
    ("service.update_s", tracer_mod.UPDATE),
)
"""Per-layer self-time metrics and the span each one sums.  The last two
are the self time of the harness's root spans: work inside ``execute`` or
an update that no wrapped function covers."""

LAYER_COUNTS = (
    ("obstacles.visible_region_calls", "obstacles.visible_region"),
    ("obstacles.row_reads", "obstacles.rows"),
    ("service.retrieve_calls", "service.retrieve"),
)

LAYER_COUNTERS = (
    ("obstacles.rows_materialized", "rows_materialized"),
    ("geometry.kernel_pairs", "kernel_pairs"),
    ("geometry.kernel_prune_ratio", "kernel_prune_ratio"),
    ("routing.nodes_settled", "nodes_settled"),
    ("routing.dijkstra_runs", "dijkstra_runs"),
    ("routing.replay_rate", "replay_rate"),
    ("routing.repair_retested_pairs", "repair_retested_pairs"),
    ("core.npe", "npe"),
    ("core.nodes_expanded", "nodes_expanded"),
    ("core.split_solves", "split_solves"),
    ("service.cache_hit_rate", "cache_hit_rate"),
    ("index.logical_reads", "logical_reads"),
    ("index.page_faults", "page_faults"),
)


def measure_traced(workload: Workload, seed: int, seconds: float,
                   spans_path: Optional[str] = None) -> Dict[str, Any]:
    """The traced run: per-layer self times and counts.

    First an untraced pass runs for ``seconds / 2``; then the wrappers go
    in and a fresh workspace runs exactly the same operations traced.
    Tracing overhead is the ratio of the two passes' operation walls, and
    the two passes must give byte-identical answers.
    """
    inputs = workload.generate(seed, N_OPS[workload.name])
    min_ops = MIN_OPS[workload.name]
    ws, _ = build_workspace(inputs)
    warm_query(ws, inputs)
    plain = run_phase(ws, inputs.ops, seconds / 2.0, min_ops,
                      ROUND_OPS[workload.name])
    n_ops = len(plain.records)
    ws = None

    tracer = tracer_mod.Tracer()
    with tracer_mod.install(tracer):
        ws, _ = build_workspace(inputs)
        warm_query(ws, inputs)
        tracer.clear()
        traced = run_phase(ws, inputs.ops, math.inf, min_ops,
                           max_ops=n_ops, tracer=tracer)
    checked, failures = check_answers(inputs, plain.records)
    plain_digest = oracle_mod.Digest()
    traced_digest = oracle_mod.Digest()
    for a, b in zip(plain.records, traced.records):
        if a.result is not None:
            plain_digest.add(a.kind, a.result)
        if b.result is not None:
            traced_digest.add(b.kind, b.result)
    if plain_digest.hexdigest() != traced_digest.hexdigest():
        failures.append("answers differ with tracing wrappers installed")

    totals = tracer.totals()
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, span in LAYER_TIMES:
        metrics[name] = {"value": totals.get(span, (0.0, 0))[0], "unit": "s"}
    for name, span in LAYER_COUNTS:
        metrics[name] = {"value": totals.get(span, (0.0, 0))[1],
                         "unit": "count"}
    for name, key in LAYER_COUNTERS:
        unit = "ratio" if key.endswith(("_rate", "_ratio")) else "count"
        metrics[name] = {"value": traced.counters[key], "unit": unit}
    execute_wall = tracer.root_wall(tracer_mod.EXECUTE)
    update_wall = tracer.root_wall(tracer_mod.UPDATE)
    vr = tracer.inclusive("obstacles.visible_region")
    plain_wall = sum(r.seconds for r in plain.records)
    traced_wall = sum(r.seconds for r in traced.records)
    metrics["obstacles.visible_region_share"] = {
        "value": vr / execute_wall if execute_wall else 0.0, "unit": "ratio"}
    metrics["trace.ops"] = {"value": n_ops, "unit": "count"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / plain_wall if plain_wall else 0.0,
        "unit": "ratio"}

    # The self times under each root add up to that root's wall.
    execute_self = sum(tracer.subtree_self(tracer_mod.EXECUTE).values())
    if execute_wall and abs(execute_self - execute_wall) > 1e-6 * execute_wall:
        failures.append(f"self times {execute_self!r} do not add up to the "
                        f"execute wall {execute_wall!r}")
    counters = {k: traced.prefix_counters[k] for k in DETERMINISTIC}
    names, _parent, request, _start, _end = tracer.arrays()
    for name, span in LAYER_COUNTS:
        nid = tracer.name_id(span)
        counters[name.split(".")[-1]] = int(
            ((names == nid) & (request < min_ops)).sum())
    if spans_path:
        tracer.write(spans_path)
    return {"attempted": n_ops, "failed": len(failures), "checked": checked,
            "failures": failures, "metrics": metrics,
            "counters": counters, "digest": traced.digest,
            "prefix_ops": min_ops, "execute_wall_s": execute_wall, "update_wall_s": update_wall,
            "self_total_s": execute_self, "spans": len(tracer),
            "shares": {span: totals[span][0] / (execute_wall + update_wall)
                       for span in totals} if execute_wall + update_wall
            else {}}
