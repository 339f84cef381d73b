"""Bell colouring graphs: construction, reconstruction, and verification.

Build the reconfiguration graph of a small graph's partitions into
independent sets (full, at-most-k, or at-least-k part bounds), strip the
labels, and recover the host graph back from adjacency structure alone.
"""

from .bell import (
    FULL,
    BellGraph,
    BellVariant,
    UnlabeledGraph,
    at_least,
    at_most,
    bell_to_json,
    build_bell,
    scramble,
    scramble_with_map,
)
from .candidates import (
    CandidateSets,
    NeighbourhoodStats,
    neighbourhood_stats,
    pstar_candidates,
    psi_map,
    satisfies_property1,
    satisfies_property2,
)
from .classify import classify_pair, oracle_isomorphic
from .graphs import (
    CanonicalReport,
    Graph,
    canonical_code,
    canonical_code_report,
    chromatic_number,
    claw_closure,
    complement,
    count_triangles,
    from_graph6,
    generate_nonisomorphic_graphs,
    is_isomorphic,
    line_graph,
    normalize_ddagger,
    strip_universal,
    to_graph6,
    universal_vertices,
)
from .lineroot import NotLineGraph, krausz_root
from .lower import (
    NoCertifiedCandidate,
    detect_k_regime,
    find_fat_partition,
    is_double_closed,
    reconstruct_from_bk,
    reconstruction_candidates,
)
from .partitions import (
    SetPartition,
    are_adjacent,
    count_partitions,
    enumerate_partitions,
    neighbors_of,
)
from .suites import conjecture_search, run_suite
from .upper import phi, reconstruct_prime, reconstruct_upper_auto

__all__ = [name for name in dir() if not name.startswith("_")]
