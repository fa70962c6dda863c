"""Equi-n-squares: constructions, transversal solvers, and the
bounded-dependence random matching pipeline."""

from .squares import (
    Cell,
    EquiNSquare,
    Transversal,
    read_square,
    read_transversal,
    validate_square,
    validate_transversal,
    write_square,
    write_transversal,
)
from .constructions import (
    BlockStructure,
    BoxPairing,
    CertificateReport,
    block_structured_square,
    counterexample_square,
    cyclic_latin,
    missing_colour_certificate,
    random_equi_square,
    read_blocks,
    write_blocks,
)
from .bipartite import (
    BipartiteMultigraph,
    decompose_regular,
    union_components,
)
from .hypergraph import (
    TripartiteHypergraph,
    alon_kim,
    blow_up,
    codegree,
    from_square,
    greedy_edge_colouring,
    max_matching_exact,
    split_high_codegree,
)
from .halving import (
    HalvingTrace,
    block_transversal,
    default_cap,
    iterated_halving,
    mcdiarmid_bound,
    row_loads,
)
from .solvers import (
    brute_force_max,
    exact_max,
    local_search,
    peel_decomposition,
    random_greedy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
