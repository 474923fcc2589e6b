"""Edgewise subdivisions of a simplex and the combinatorics built on them.

The subdivision T_{k,q} triangulates the simplex 0 <= x_1 <= ... <= x_{k-1}
<= q into q^(k-1) facets indexed by codes in {0,...,q-1}^(k-1).  This
package materializes the triangulation and everything this project proves
about it: vertex and face links against chain-product models, link type
censuses, star clusters of interior faces with their structured shellings,
a global shelling with closed-form restrictions, and h-vectors computed by
independent routes that are required to agree.
"""

from .complexes import CapacityError, DisagreementError
from .shelling import h_vector_checked
from .starcluster import base_facet_code, sc_shelling_and_h
from .subdivision import build_complex, decode_facet, link_of_vertex, vertex_partition

__version__ = "0.1.0"

# What README's quick start imports, and the two error types.
__all__ = ["CapacityError", "DisagreementError", "base_facet_code", "build_complex",
           "decode_facet", "h_vector_checked", "link_of_vertex", "sc_shelling_and_h",
           "vertex_partition"]
