"""Counters attributing obstructed-distance work to its routing backend.

One :class:`BackendStats` block lives on every backend (cumulative across
the workspace's lifetime) and another on every
:class:`~repro.core.stats.QueryStats` (that query's share), so warm/cold
benchmarks can attribute time to graph build vs Dijkstra vs visibility
tests without instrumenting the engine.

This module is deliberately import-free within the package: it is the
bottom of the routing dependency stack (``core.stats`` imports it).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BackendStats:
    """Work performed by an obstructed-distance backend.

    The split mirrors where OkNN engines actually spend their time (Zhao
    et al. 2018): building the distance substrate (``graphs_built`` /
    ``build_time_s``), traversing it (``dijkstra_runs`` /
    ``nodes_settled``), and testing sight lines (``visibility_tests``).
    """

    sessions: int = 0
    """Query endpoint attachments served (one per executed query leg)."""

    graphs_built: int = 0
    """Full visibility-graph constructions (the cost a shared backend
    amortizes away: per-query backends pay one per session)."""

    graph_reuses: int = 0
    """Sessions served by an already-built workspace-shared graph."""

    graph_spawns: int = 0
    """Extra shared graphs built from the obstacle cache for *concurrent*
    sessions (every resident graph was busy when the session attached).
    Each spawn is also counted in ``graphs_built``."""

    graph_clones: int = 0
    """Shared graphs replicated from the primary skeleton — cached
    adjacency rows included — to pre-provision a parallel worker pool."""

    build_time_s: float = 0.0
    """Wall-clock time spent constructing/seeding visibility graphs."""

    dijkstra_runs: int = 0
    """Fresh single-source traversals started (no memoized tree to serve)."""

    dijkstra_replays: int = 0
    """Traversals answered by replaying/resuming a memoized
    shortest-path tree of an already-settled source."""

    nodes_settled: int = 0
    """Graph nodes settled by fresh traversal work (replays excluded)."""

    visibility_tests: int = 0
    """Sight-line tests performed while adjacency rows materialized."""

    batch_visibility_calls: int = 0
    """Batched visibility-kernel launches (array engine: one per
    materialized row, repair step, or transient visibility column)."""

    batched_edges_tested: int = 0
    """Candidate-edge x obstacle-primitive pairs evaluated inside batched
    kernel launches (the array engine's share of ``visibility_tests``)."""

    kernel_pruned_edges: int = 0
    """Candidate-edge x primitive pairs the batch kernel's bbox prefilter
    skipped without evaluating (provably non-blocking: padded AABBs
    disjoint).  Not counted in ``batched_edges_tested``."""

    shadow_primitives_tested: int = 0
    """Obstacle primitives (rects, walls, polygons) handed to a shadow
    kernel while visible regions were computed or narrowed."""

    shadow_primitives_culled: int = 0
    """Obstacle primitives the sight-triangle cull dropped before any
    shadow kernel ran (bounding box disjoint from the padded box of the
    triangle ``(v, q.a, q.b)``: provably shadowless).  Not counted in
    ``shadow_primitives_tested``."""

    heap_bulk_pushes: int = 0
    """Relaxed adjacency rows long enough to enter the array engine's
    sequence heap as one sorted run (shorter rows push per-element, which
    profiles faster below ~16 entries)."""

    array_traversals: int = 0
    """Fresh traversals run on the array-backed Dijkstra engine (0 under
    the scalar parity oracle)."""

    rows_bulk_materialized: int = 0
    """Adjacency rows cut by the bulk path (``materialize_rows``: eager
    ``build_all`` seeding and frontier-prefetch waves) rather than one
    kernel launch per settled node."""

    bulk_pair_launches: int = 0
    """Batched kernel launches issued by the bulk materialization /
    repair paths, each covering the concatenated candidate pairs of many
    rows (also counted in ``batch_visibility_calls``)."""

    removal_repairs: int = 0
    """Announced obstacle removals absorbed by surgically repairing a
    resident graph in place (nodes deleted, re-opened sight lines
    re-tested) instead of dropping it (``evicted``)."""

    repair_retested_pairs: int = 0
    """Absent (source, target) pairs re-tested by removal repairs: pairs
    not currently visible whose sight segment's bbox overlaps a removed
    obstacle's padded bbox (the only pairs removal can re-open)."""

    patched: int = 0
    """Announced obstacle inserts patched into a shared graph in place."""

    evicted: int = 0
    """Announced obstacle removals that dropped the shared graph (vertex
    removal cannot be proven sound in place; the graph rebuilds lazily)."""

    invalidations: int = 0
    """Shared graphs dropped by the version guard (unannounced obstacle
    tree mutations observed at attach time)."""

    compactions: int = 0
    """In-place compactions of a shared graph's dead node slots (cached
    adjacency rows survive; only node ids are remapped)."""

    @property
    def replay_rate(self) -> float:
        """Fraction of traversals served from memoized shortest-path trees."""
        total = self.dijkstra_runs + self.dijkstra_replays
        return self.dijkstra_replays / total if total else 0.0

    def merge(self, other: "BackendStats") -> None:
        """Accumulate another block's counters into this one."""
        self.sessions += other.sessions
        self.graphs_built += other.graphs_built
        self.graph_reuses += other.graph_reuses
        self.graph_spawns += other.graph_spawns
        self.graph_clones += other.graph_clones
        self.build_time_s += other.build_time_s
        self.dijkstra_runs += other.dijkstra_runs
        self.dijkstra_replays += other.dijkstra_replays
        self.nodes_settled += other.nodes_settled
        self.visibility_tests += other.visibility_tests
        self.batch_visibility_calls += other.batch_visibility_calls
        self.batched_edges_tested += other.batched_edges_tested
        self.kernel_pruned_edges += other.kernel_pruned_edges
        self.shadow_primitives_tested += other.shadow_primitives_tested
        self.shadow_primitives_culled += other.shadow_primitives_culled
        self.heap_bulk_pushes += other.heap_bulk_pushes
        self.array_traversals += other.array_traversals
        self.rows_bulk_materialized += other.rows_bulk_materialized
        self.bulk_pair_launches += other.bulk_pair_launches
        self.removal_repairs += other.removal_repairs
        self.repair_retested_pairs += other.repair_retested_pairs
        self.patched += other.patched
        self.evicted += other.evicted
        self.invalidations += other.invalidations
        self.compactions += other.compactions
