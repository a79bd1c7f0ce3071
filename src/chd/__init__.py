"""Exact tools for graphs diagonalised by complex Hadamard matrices.

The package keeps three layers strictly apart:

- an exact algebraic core (integer combinations of roots of unity,
  exponent-table Hadamard matrices, rational-weight graphs);
- exact certification built on that core (diagonalisation certificates,
  equitable partitions, parity and divisibility reports, the small-graph
  catalogue, brute-force cut searches);
- a floating-point layer used only for continuous-time walk evolution and
  for cross-checking the exact results.
"""

from .cyclotomic import CyclotomicInt, cyclotomic_polynomial
from .errors import (
    ChdError,
    ExactnessError,
    InternalCheckError,
    PreconditionError,
    ScaleError,
    SimplicityError,
)
from .graphs import (
    AbelianGroup,
    WeightedGraph,
    cayley,
    cocktail_party,
    complement,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    empty_graph,
    graph_join,
    graph_union,
    hypercube,
    merge,
    named,
    neps,
    product,
    weighted_tensor_sum,
)
from .hadamard import (
    ButsonMatrix,
    HadamardClass,
    character_table,
    classify,
    conference_lift,
    dephase,
    double,
    instance_library,
    monomial_transform,
    paley_conference,
    sylvester_hadamard,
    tensor,
    verify,
)
from .diagonalise import (
    CatalogueEntry,
    EquitablePartition,
    SpectrumAssignment,
    TheoremReport,
    bipartition_from_column,
    catalogue,
    certify,
    odd_union_obstruction,
    p_partition_from_column,
    regularity_check,
    theorem_checks,
)
from .spectral import (
    CutReport,
    cheeger,
    cheeger_inequality_audit,
    exact_rational_spectrum,
    min_edge_density,
    tightness_check,
)
from .walks import (
    FRCertificate,
    RationalAngle,
    adjacency_walk_relation,
    cayley_fr_conditions,
    check_fr,
    check_pst,
    double_cover_fr,
    evolve,
    find_fr,
    strongly_cospectral,
)

__version__ = "0.1.0"
