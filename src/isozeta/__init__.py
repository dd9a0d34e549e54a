"""Ihara zeta functions of supersingular isogeny graphs with level
structure, over exact arithmetic."""

from .errors import GuardError, InputError, InternalCheckError
from .fields import Fel, Fq, canonical_key, embedding, find_irreducible, is_prime
from .graphs import (
    IsogenyGraph,
    OrientedGraph,
    QuotientData,
    euler_characteristic,
    format_graph,
    homotopy_rank,
    is_connected,
    oriented_graphs,
    parse_graph,
    quotients,
    random_graph,
    random_oriented_regular_graph,
    validate,
)
from .zeta import (
    CycleCounts,
    FactoredRationalFunction,
    adjacency_matrix,
    associated_permutation,
    classical_ihara_zeta,
    cycle_count_series,
    hashimoto_matrix,
    hashimoto_series,
    ihara_matrix,
    ihara_zeta,
    poly_det,
    self_map_det_factors,
    zeta_involution_form,
    zeta_numerator,
)
from .walks import count_closed_walks, enumerate_primes, nr_from_primes
from .curves import (
    Curve,
    Isogeny,
    automorphisms,
    count_points,
    curve_from_j,
    isomorphisms,
    j_invariant,
    supersingular_j_invariants,
    supersingular_model,
    velu_isogeny,
)
from .ssgraph import (
    BuildResult,
    LevelSubgroup,
    build_isogeny_graph,
    diamond_order,
    format_provenance,
    level_from_spec,
)
from .quadforms import (
    EulerCharReport,
    QuadOrder,
    asymptotic_report,
    borel_euler_characteristics,
    borel_vertex_count,
    class_number,
    compose,
    cycle_orders,
    form_order_of_ell,
    genus_x0,
    kronecker,
    modular_point_count,
    nr_from_class_numbers,
    point_count_residual,
    reduced_forms,
)

__version__ = "0.1.0"
