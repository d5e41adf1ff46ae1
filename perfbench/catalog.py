"""Every metric the benchmark reports: unit, direction and workloads.

``END_TO_END`` are the metrics a user of the library sees.  The ones with
a ``bound`` are the gated set listed in ``BENCHMARK.json``: every workload
reports them and they are never zero.  The others are printed and written
to the result file but not gated: most exist only on the workloads that
run that kind of operation, ``error_rate`` is zero when all is well, and
the medians of the cheap queries (``query_p50_ms``, ``conn_p50_ms``) swing
with the host's speed more than the bounds allow: over ten seeds their
spread reached 0.26 and 0.21 on corridor-mixed, and the ``conn_p50_ms``
median of two ten-run sets moved by 21%.  ``PER_LAYER`` come from the
traced run.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

ALL = ("corridor-mixed", "lattice-kinds", "churn")
READS = ("corridor-mixed", "lattice-kinds")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    bound: Optional[float] = None
    what: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", ALL, 0.25,
           "median over the run's builds of Workspace.from_points + "
           "prefetch_all() + routing.warm()"),
    Metric("query_p50_ms", "ms", "lower", ALL, None,
           "median Workspace.execute latency over all measured queries"),
    Metric("query_p90_ms", "ms", "lower", ALL, 0.25,
           "p90 of the same samples (count beyond it printed)"),
    Metric("throughput_qps", "1/s", "higher", ALL, 0.25,
           "measured queries / wall of the measured phase (churn: the "
           "phase includes the updates)"),
    Metric("conn_p50_ms", "ms", "lower", ALL, None,
           "median over CONN queries"),
    Metric("rss_peak_mb", "MB", "lower", ALL, 0.1,
           "peak RSS of the benchmark process after the measured phase"),
    Metric("coknn_p50_ms", "ms", "lower", READS, None,
           "median over COkNN(k=3) queries"),
    Metric("onn_p50_ms", "ms", "lower", ("lattice-kinds",), None,
           "median over ONN(k=3) queries"),
    Metric("range_p50_ms", "ms", "lower", ("lattice-kinds",), None,
           "median over range(r=15) queries"),
    Metric("obstacle_update_p50_ms", "ms", "lower", ("churn",), None,
           "add_obstacle/remove_obstacle call until routing.warm() returns"),
    Metric("obstacle_update_p90_ms", "ms", "lower", ("churn",), None,
           "p90 of the same samples"),
    Metric("site_update_p50_ms", "ms", "lower", ("churn",), None,
           "add_site/remove_site call until routing.warm() returns"),
    Metric("error_rate", "fraction", "lower", ALL, None,
           "failed operations / attempted; a failure is an exception or "
           "an answer the oracle rejects"),
)

_S, _C, _R = "s", "count", "ratio"
PER_LAYER = (
    Metric("obstacles.visible_region_s", _S, "lower", READS, None,
           "LocalVisibilityGraph.visible_region_of"),
    Metric("obstacles.visible_region_calls", _C, "lower", READS, None,
           "visible_region_of spans"),
    Metric("obstacles.visible_region_share", _R, "lower", READS, None,
           "visible_region_of inclusive time (shadows included) / traced "
           "execute wall"),
    Metric("obstacles.shadow_s", _S, "lower", READS, None,
           "shadow_set and visible_region as bound in visgraph"),
    Metric("obstacles.rows_s", _S, "lower", ALL, None,
           "LocalVisibilityGraph.row_arrays (incl. transient columns)"),
    Metric("obstacles.row_reads", _C, "lower", ALL, None, "row_arrays spans"),
    Metric("obstacles.materialize_s", _S, "lower", ALL, None,
           "LocalVisibilityGraph.materialize_rows"),
    Metric("obstacles.rows_materialized", _C, "lower", ALL, None,
           "BackendStats.rows_bulk_materialized"),
    Metric("geometry.kernel_s", _S, "lower", ALL, None,
           "blocked_batch as bound in visgraph"),
    Metric("geometry.kernel_pairs", _C, "lower", ALL, None,
           "BackendStats.batched_edges_tested"),
    Metric("geometry.kernel_prune_ratio", _R, "higher", ALL, None,
           "kernel_pruned_edges / (pruned + tested)"),
    Metric("routing.traverse_s", _S, "lower", ALL, None,
           "ArrayTraversal.advance"),
    Metric("routing.nodes_settled", _C, "lower", ALL, None,
           "BackendStats.nodes_settled"),
    Metric("routing.dijkstra_runs", _C, "lower", ALL, None,
           "BackendStats.dijkstra_runs"),
    Metric("routing.replay_rate", _R, "higher", ALL, None,
           "BackendStats.replay_rate over the phase"),
    Metric("routing.attach_s", _S, "lower", ALL, None,
           "SharedVGBackend.attach_endpoints"),
    Metric("routing.warm_s", _S, "lower", ("churn",), None,
           "SharedVGBackend.warm"),
    Metric("routing.patch_s", _S, "lower", ("churn",), None,
           "SharedVGBackend.note_obstacle_insert"),
    Metric("routing.repair_s", _S, "lower", ("churn",), None,
           "SharedVGBackend.note_obstacle_remove"),
    Metric("routing.repair_retested_pairs", _C, "lower", ("churn",), None,
           "BackendStats.repair_retested_pairs"),
    Metric("core.ior_s", _S, "lower", ALL, None,
           "ior_fixpoint as bound in repro.core.engine"),
    Metric("core.cplc_s", _S, "lower", ALL, None,
           "compute_cpl as bound in repro.core.engine"),
    Metric("core.envelope_s", _S, "lower", ALL, None, "KEnvelope.insert"),
    Metric("core.npe", _C, "lower", ALL, None, "QueryStats.npe summed"),
    Metric("core.nodes_expanded", _C, "lower", ALL, None,
           "QueryStats.nodes_expanded summed"),
    Metric("core.split_solves", _C, "lower", ALL, None,
           "QueryStats.split_solves summed"),
    Metric("query.plan_s", _S, "lower", ALL, None,
           "build_plan as bound in repro.query.executor"),
    Metric("query.execute_s", _S, "lower", ALL, None,
           "Workspace.execute time no wrapped function covers"),
    Metric("service.update_s", _S, "lower", ("churn",), None,
           "update call time no wrapped function covers"),
    Metric("service.retrieve_s", _S, "lower", ALL, None,
           "CachedObstacleView.ensure"),
    Metric("service.retrieve_calls", _C, "lower", ALL, None, "ensure spans"),
    Metric("service.cache_hit_rate", _R, "higher", ALL, None,
           "CacheStats hits / (hits + misses) over the phase"),
    Metric("index.logical_reads", _C, "lower", ALL, None,
           "data- and obstacle-tree page reads"),
    Metric("index.page_faults", _C, "lower", ALL, None,
           "data- and obstacle-tree page faults"),
    Metric("trace.ops", _C, "higher", ALL, None,
           "operations in the traced pass"),
    Metric("trace.overhead_ratio", _R, "lower", ALL, None,
           "traced wall / untraced wall over the same operations"),
)

GATED = tuple(m for m in END_TO_END if m.bound is not None)


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in GATED],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
