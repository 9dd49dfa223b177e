"""Pliable index coding toolkit.

Complete size-profile instances, linear broadcast codes over prime fields,
decodability verification, converse bounds with closed forms, topology
hypergraph machinery including the circular-arc two-transmission scheme,
and the combinatorial oracles behind the converse arguments.
"""

from .bounds import (
    BoundReport,
    ChainBoundResult,
    best_chain_bound,
    chain_bound,
    closed_form_length,
    full_report,
    mais,
    min_mais_lower_bound,
)
from .coding import (
    LinearCode,
    PartitionPlan,
    build_partition_scheme,
    mds_rows,
    optimal_partition,
    smallest_prime_at_least,
    unit_rows,
)
from .errors import (
    CapExceeded,
    FieldTooSmall,
    NotAFactor,
    PicodError,
    SearchOverflow,
)
from .hypergraph import (
    CircularArcTrace,
    Hypergraph,
    circular_arc_scheme_with_trace,
    dual,
    has_one_factor,
    network_topology,
    one_transmission_code,
    verify_circular_arc,
)
from .instance import (
    Instance,
    SizeProfile,
    build_complete_s,
    instance_from_wire,
    instance_wire,
    validate_assignment,
)
from .oracles import (
    BlockCover,
    block_cover_impossibility,
    check_block_cover,
    averaging_pair,
    intersection_family_witness,
    random_averaging_suite,
    sweep_intersection_families,
    verify_intersection_witness,
)
from .verifier import (
    DecodabilityReport,
    decodable_closure,
    induced_assignment,
    is_valid,
    min_linear_length_exhaustive,
)

__all__ = [
    "BlockCover",
    "BoundReport",
    "CapExceeded",
    "ChainBoundResult",
    "CircularArcTrace",
    "DecodabilityReport",
    "FieldTooSmall",
    "Hypergraph",
    "Instance",
    "LinearCode",
    "NotAFactor",
    "PartitionPlan",
    "PicodError",
    "SearchOverflow",
    "SizeProfile",
    "best_chain_bound",
    "block_cover_impossibility",
    "build_complete_s",
    "build_partition_scheme",
    "chain_bound",
    "check_block_cover",
    "circular_arc_scheme_with_trace",
    "closed_form_length",
    "averaging_pair",
    "decodable_closure",
    "dual",
    "full_report",
    "has_one_factor",
    "induced_assignment",
    "instance_from_wire",
    "instance_wire",
    "intersection_family_witness",
    "is_valid",
    "mais",
    "mds_rows",
    "min_linear_length_exhaustive",
    "min_mais_lower_bound",
    "network_topology",
    "one_transmission_code",
    "optimal_partition",
    "random_averaging_suite",
    "smallest_prime_at_least",
    "sweep_intersection_families",
    "unit_rows",
    "validate_assignment",
    "verify_circular_arc",
    "verify_intersection_witness",
]

__version__ = "0.1.0"
