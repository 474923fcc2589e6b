"""Edgewise subdivisions of a simplex and the combinatorics built on them.

The subdivision T_{k,q} triangulates the simplex 0 <= x_1 <= ... <= x_{k-1}
<= q into q^(k-1) facets indexed by codes in {0,...,q-1}^(k-1).  This
package materializes the triangulation and everything this project proves
about it: vertex and face links against chain-product models, link type
censuses, star clusters of interior faces with their structured shellings,
a global shelling with closed-form restrictions, and h-vectors computed by
independent routes that are required to agree.
"""

from .combinat import (
    DescentInitTable,
    descent_set,
    des,
    eulerian,
    eulerian_vector,
    h_matrix,
    h_rows_recursive,
    init,
    multiset_permutations,
    partitions,
    x_sequence,
)
from .complexes import (
    CapacityError,
    DisagreementError,
    ShellingCertificate,
    SimplicialComplex,
    are_isomorphic,
    find_isomorphism,
    full_simplex,
    h_from_f,
    h_vector,
    join,
    link,
    star,
    verify_shelling,
)
from .posets import (
    check_r_labeling,
    h_k_lambda,
    is_join_irreducible,
    k_lambda,
)
from .shelling import (
    certify_order,
    h_by_ascents,
    h_by_binomial,
    h_by_polynomial,
    h_by_recurrence,
    h_routes,
    h_vector_checked,
    predicted_restriction,
    shelling_certificate,
    shelling_order,
)
from .starcluster import (
    StarClusterReport,
    base_facet_code,
    init_shelling_order,
    sc_count_general_face,
    sc_count_inclusion_exclusion,
    sc_count_partition_formula,
    sc_h_formula,
    sc_shelling_and_h,
    star_cluster,
)
from .subdivision import (
    build_complex,
    code_of_facet,
    count_distinct_links_dim,
    count_faces_with_link_type,
    count_link_types,
    count_link_types_of_faces,
    decode_facet,
    encode_facet,
    facet_codes,
    is_interior_vertex,
    link_of_face,
    link_of_vertex,
    number_of_facets,
    number_of_vertices,
    off_export,
    q_sequence,
    ridge_neighbors,
    star_of_vertex,
    vertex_partition,
    vertex_set,
    vertex_type,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
