"""btkit: exact computation in the braids-and-ties algebra, its tensor
representation, the partition Temperley-Lieb quotient, and the tower trace.
"""

from .algebra import (AlgebraElement, BasisIndex, E, E_arc, E_of_partition, F,
                      L, T, gamma, gamma_inverse, inverse_T, one, steinberg,
                      verify_relations)
from .domains import SYMBOLIC, PrimeDomain, RationalDomain
from .partitions import (SetPartition, arc_partition, bell_number,
                         enumerate_partitions, generator_partition)
from .permutations import Permutation, enumerate_permutations
from .quotient import (FReducedWord, IdealBasis, build_ideal, catalan_number,
                       enumerate_F_reduced, spanning_check,
                       verify_ideal_closure, verify_presentations)
from .scalars import Scalar, parse_scalar
from .tensor import (classical_jimbo_check, represent, representation_rank,
                     verify_relations_in_rep)
from .trace import TraceFunctional, factorization_condition, solve_trace

__version__ = "0.1.0"
