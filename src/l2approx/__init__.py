"""Exact rank functions, twisted homology dimensions, and finite-quotient
approximation experiments for groups inside products of SL2."""

from .exactalg import FieldElement, NumberField, QQ, ScaledMatrix
from .groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, Word,
                        free_reduce, word_from_string)
from .repweights import (ParityError, RepAssignment, WeightVector,
                         central_character_value, evaluate, sym_power, weight_dim, weight_rep)
from .foxhomology import (HomologyReport, boundary_stack, fox_derivative, fox_jacobian,
                          homology_dims, invariants_dim, presentation_complex)
from .rankfun import (FiniteQuotientMap, RankValue, characters_of_cyclic, cyclotomic_field,
                      finite_vn_rank, luck_rank, sylvester_rank, twisted_finite_rank)
from .padicharris import HarrisRow, harris_sequence
from .limitlab import ConvergenceReport, betti_estimate, convergence_fit, weight_schedule
from .census import CensusEntry, builtin_catalog, builtin_entry, load_entry

__version__ = "0.1.0"
