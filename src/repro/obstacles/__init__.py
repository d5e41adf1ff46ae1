"""Obstacle substrate: obstacle model, shadows, visibility graphs, distances."""

from .obstacle import (
    Obstacle,
    ObstacleSet,
    PolygonObstacle,
    PolygonSlab,
    RectObstacle,
    SegmentObstacle,
)
from .obstructed import (
    all_obstructed_distances,
    build_full_graph,
    obstructed_distance,
    obstructed_path,
)
from .shadow import (
    shadow_intervals_polys,
    shadow_intervals_rects,
    shadow_intervals_scalar,
    shadow_intervals_segs,
    shadow_set,
    sight_cull,
    visible_region,
    visible_region_scalar,
)
from .visgraph import LocalVisibilityGraph

__all__ = [
    "LocalVisibilityGraph",
    "Obstacle",
    "ObstacleSet",
    "PolygonObstacle",
    "PolygonSlab",
    "RectObstacle",
    "SegmentObstacle",
    "all_obstructed_distances",
    "build_full_graph",
    "obstructed_distance",
    "obstructed_path",
    "shadow_intervals_polys",
    "shadow_intervals_rects",
    "shadow_intervals_scalar",
    "shadow_intervals_segs",
    "shadow_set",
    "sight_cull",
    "visible_region",
    "visible_region_scalar",
]
