"""Tag cloud layout: line breaking, reordering, and min-cut placement."""

from .inline import (
    BadnessAggregate,
    aggregate,
    dp_break,
    greedy_break,
    layout_badness,
    line_badness,
    line_badnesses,
)
from .ingest import build_cloud_from_text, build_tag_cloud, cooccurrence_graph, importance
from .metrics import bbox_area, layout_to_placement, weighted_distance
from .mincut import bipartition, build_slicing_tree, layout_mincut
from .model import (
    Cloud,
    CloudError,
    InfeasibleLineError,
    InternalError,
    InvalidInputError,
    LineLayout,
    PlacedCloud,
    Placement,
    RelationGraph,
    TagBox,
    cloud_from_json,
    cloud_to_json,
    estimate_box,
    font_size_pt,
    validate_cloud,
)
from .reorder import ffdh, ffdhw, nfdh, shuffle_best
from .sizing import combine_shapes, gen_shape_options, select_and_place
from .tree import Cut, Leaf, Node

__all__ = [
    "BadnessAggregate",
    "Cloud",
    "CloudError",
    "Cut",
    "InfeasibleLineError",
    "InternalError",
    "InvalidInputError",
    "Leaf",
    "LineLayout",
    "Node",
    "PlacedCloud",
    "Placement",
    "RelationGraph",
    "TagBox",
    "aggregate",
    "bbox_area",
    "bipartition",
    "build_cloud_from_text",
    "build_slicing_tree",
    "build_tag_cloud",
    "cloud_from_json",
    "cloud_to_json",
    "combine_shapes",
    "cooccurrence_graph",
    "dp_break",
    "estimate_box",
    "ffdh",
    "ffdhw",
    "font_size_pt",
    "gen_shape_options",
    "greedy_break",
    "importance",
    "layout_badness",
    "layout_mincut",
    "layout_to_placement",
    "line_badness",
    "line_badnesses",
    "nfdh",
    "select_and_place",
    "shuffle_best",
    "validate_cloud",
    "weighted_distance",
]
