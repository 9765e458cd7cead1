"""Exact and numerical toolkit for spectral extremal graph problems on
forbidden clique/book subgraphs: constructors, spectral bounds, structural
predicates, exact quotient algebra, and exhaustive desk-scale searches."""

from .graphs import (
    FamilySpec,
    Graph,
    Graph6ParseError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    generalized_book,
    graph6_decode,
    graph6_encode,
    join,
    make_multipartite,
    path_graph,
    turan,
    turan_part_sizes,
    u_graph,
    y_graph,
    y_graph_layout,
)
from .quotient import (
    EquitabilityError,
    IntMatrix,
    IntPoly,
    NoRealRootError,
    char_poly,
    det_exact,
    equitable_refine,
    largest_root,
    lemma32_polynomial,
    quotient_matrix,
    verify_lemma32,
    y_graph_quotient_partition,
    y_quotient_cross_check,
    y_spectral_lower_bound,
)
from .search import (
    PredicateSpec,
    SearchReport,
    are_isomorphic,
    canonical_certificate,
    canonical_form,
    canonical_graph6,
    census_rows,
    conjecture_scan,
    enumerate_graphs,
    ex_search,
    hill_climb,
    lemma27_scan,
    spex_search,
    write_census,
)
from .spectral import (
    SpectralResult,
    check_wilf,
    deletion_bound,
    rayleigh_quotient,
    rotate_edges,
    spectral_radius,
)
from .structure import (
    DegreeClasses,
    FeasibilityError,
    Partition,
    chromatic_number,
    contains_clique,
    contains_generalized_book,
    degree_classes,
    is_color_critical,
    is_complete_bipartite,
    is_r_colorable,
    max_cross_partition,
)

__version__ = "0.1.0"
