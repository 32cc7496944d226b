"""Weak-order involution prefixes and ancestor decompositions in Coxeter groups.

Build a finite Coxeter group into a flat lookup table, enumerate prefixes and
involution prefixes of its elements, compute ancestor decompositions and
involution lengths, verify the ancestor/rank-bound properties exhaustively,
and analyze Coxeter elements of arbitrary finite-rank groups through their
Coxeter graph alone.
"""

from .core import (
    INFINITY,
    CoxeterGraph,
    CoxeterMatrix,
    SystemSpec,
    build_matrix,
    graph_of,
    is_finite_type,
    parse_spec,
)
from .coxeter_elements import (
    CoxeterElementWord,
    EdgeOrientation,
    coxeter_ancestor_decomposition,
    coxeter_descents,
    coxeter_element_classes,
    ilen_spectrum,
    min_ilen_coxeter_element,
    orientation_of,
    path_length,
)
from .engine import (
    GroupTable,
    Root,
    RootSystem,
    build_group,
    build_group_table,
    build_root_system,
    canonical_reduced_word,
    element_from_word,
    element_order,
    format_word,
    is_involution,
    left_descents,
    left_multiply_generator,
    multiply,
    support,
)
from .graphs import (
    chromatic_number,
    extend_to_maximal_independent,
    is_bipartite,
    longest_path_order,
)
from .universal import (
    reduce_word,
    ug_ancestor_decomposition,
    ug_involution_length,
    ug_involution_prefixes,
    ug_multiply,
    ug_power_word,
)
from .verifier import (
    PAPER_PRESET,
    AncestorScan,
    ConjectureReport,
    ancestor_scan,
    reports_to_csv,
    reports_to_json,
    sweep,
    verify_ancestor_property,
    verify_group,
    verify_ilen_bound,
)
from .weak_order import (
    Ambiguity,
    AncestorDecomposition,
    PrefixSet,
    ancestor,
    ancestor_decomposition,
    ancestors,
    format_factors,
    involution_length,
    involution_prefixes,
    is_prefix,
    prefixes,
    suffix_ancestor_decomposition,
)

__version__ = "0.1.0"
