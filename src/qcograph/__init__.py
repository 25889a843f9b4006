"""Cographs from cotree expressions: signless Laplacian spectra, main
eigenvalues (full and condensed routes), structural recognition, and
verification of the characterization laws tying them together."""

from .graph import (
    Graph,
    union,
    join,
    complement,
    induced_subgraph,
    components,
    bipartition,
    parse_edge_list,
    format_edge_list,
)
from .cotree import (
    Leaf,
    Internal,
    Cotree,
    UNION,
    JOIN,
    CotreeSyntaxError,
    NotCograph,
    parse,
    normalize,
    canonicalize,
    canonical_string,
    to_graph,
    from_graph,
    complement_cotree,
    Bag,
    BagRepresentation,
    bags,
)
from .spectra import (
    SolverError,
    EigenDecomposition,
    jacobi_eigh,
    signless_laplacian,
    laplacian,
    SpectrumGroup,
    QSpectrumReport,
    q_spectrum,
    q_spectrum_cotree,
    main_count_exact,
    CondensedMatrix,
    condensed,
    main_eigs_condensed,
    algebraic_connectivity,
)
from .recognition import (
    NotApplicable,
    InternalContradiction,
    find_induced,
    perfect_elimination_ordering,
    is_chordal,
    is_regular,
    is_complete,
    is_connected,
    ClassificationReport,
    cotree_flags,
    classify,
    vertex_connectivity,
    ConnectivityReport,
    connectivity_report,
    UniversalCliqueDecomposition,
    universal_clique_decomposition,
    SatelliteSpec,
    parse_generalized_core_satellite,
)
from .families import FamilySpec, build, expected_mains
from .oracle import (
    sigma_complete,
    sigma_bipartite_join,
    mains_complete_split,
    mains_core_union,
    zero_is_q_main,
    MainCountPrediction,
    predict_main_count,
    FormA,
    FormB,
    predict_two_main_forms,
)
from .enumeration import EnumerationIndex, enumerate_cographs, enumerate_cotrees
from .verify import VerificationCase, THEOREM_IDS, run_verify

__version__ = "0.1.0"
