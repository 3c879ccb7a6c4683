"""Singular-locus ideals of hyperplane arrangements.

Exact computation of Jacobian ideals, their unmixed parts and radicals,
free resolutions and Betti tables, Hilbert data, Cohen-Macaulayness,
deficiency-module dimensions, and the liaison constructions that realize
prescribed deficiency tables.
"""

from .arrangement import (Arrangement, Flat, Graph, combinatorial_degrees,
                          generic_section, graphic_arrangement,
                          hypothesis_check, intersection_flats,
                          jacobian_ideal, lattice_isomorphic,
                          parse_arrangement, parse_graph, radical_comb,
                          rule_powers, standard_ring, symbolic_intersection,
                          top_comb, triangle_condition, uniform_powers)
from .errors import (InternalLimitError, InvariantError, ParseError,
                     RingContextError, SingError, ValidationError)
from .groebner import (GroebnerBasis, Ideal, intersect, intersect_many,
                       radical_membership, saturate_irrelevant)
from .homology import (BettiTable, GradedFreeModule, GradedMap, HilbertData,
                       Resolution, betti_json, betti_of, betti_table,
                       betti_text, dimensions, hilbert, is_cm,
                       is_saturated, minimal_free_resolution, rao_dimensions,
                       schreyer_syzygies)
from .liaison import (Construction, arrangement_product_hypotheses,
                      basic_double_link, construct_lr, construct_lr_radical,
                      liaison_addition, radical_block, top_block,
                      verify_construction)
from .polyring import (GF, GREVLEX, QQ, DEFAULT_PRIME, PolyRing, Polynomial,
                       expand_product, gradient, parse_linear_expr)

__version__ = "0.1.0"
