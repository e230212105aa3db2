"""Recognition, embedding enumeration and drawing of maximal
outer-fan-planar graphs, together with a generator and validator for
3-Partition hardness instances of fan-planarity under a fixed rotation
system."""

from .circular import (
    CircularOrder,
    CrossingReport,
    EdgeClass,
    canonicalize,
    check_outer_fan_planar,
    chords_cross,
    classify_edge,
    render_svg,
)
from .graph import (
    Graph,
    SeparationPair,
    build_graph,
    complete_graph,
    complete_two_hop_graph,
    cycle_graph,
    is_biconnected,
    is_triconnected,
    load_graph,
    path_graph,
    separation_pairs,
)
from .oracle import (
    enumerate_embeddings,
    is_maximal_outer_fan_planar,
    outer_fan_planar_order,
)
from .recognizer import (
    RecognitionOutcome,
    Verdict,
    is_complete_2hop,
    is_porous,
    recognize,
    recognize_3connected,
)
from .reduction import (
    ReductionInstance,
    ThreePartitionInstance,
    WitnessDrawing,
    generate_instance,
    route_witness,
    validate_witness,
)
from .spqr import SpqrNode, SpqrTree, build_spqr, reconstruct

__all__ = [
    "CircularOrder",
    "CrossingReport",
    "EdgeClass",
    "Graph",
    "RecognitionOutcome",
    "ReductionInstance",
    "SeparationPair",
    "SpqrNode",
    "SpqrTree",
    "ThreePartitionInstance",
    "Verdict",
    "WitnessDrawing",
    "build_graph",
    "build_spqr",
    "canonicalize",
    "check_outer_fan_planar",
    "chords_cross",
    "classify_edge",
    "complete_graph",
    "complete_two_hop_graph",
    "cycle_graph",
    "enumerate_embeddings",
    "generate_instance",
    "is_biconnected",
    "is_complete_2hop",
    "is_maximal_outer_fan_planar",
    "is_porous",
    "is_triconnected",
    "load_graph",
    "outer_fan_planar_order",
    "path_graph",
    "recognize",
    "recognize_3connected",
    "reconstruct",
    "render_svg",
    "route_witness",
    "separation_pairs",
    "validate_witness",
]
