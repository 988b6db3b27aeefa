"""Fox-calculus presentation chain complex and twisted homology dimensions.

From a presentation with g generators and r relators and a weight module of
dimension d, the evaluated complex is

    C: d  --D-->  g*d  --J-->  r*d

where D stacks the blocks rho(x_j) - Id and J evaluates the Fox Jacobian.
Dimensions in degrees 0, 1, 2 come from the two ranks:

    h0 = d - rk D,   h1 = g*d - rk D - rk J,   h2 = r*d - rk J.

h2 is the homology of the presentation 2-complex; it is group homology only
when that complex is aspherical (the census entry's `aspherical` flag).

Every run makes three exact checks, and they catch different faults.  J*D = 0
is tested before any rank is taken, so it catches images that do not satisfy
the relators, not a wrong rank.  Non-negative dimensions catch a rank that is
too large.  The Euler identity h0 - h1 + h2 = d*(1 - g + r) follows from the
three formulas above whatever the two ranks are, so it cannot catch a wrong
rank.  A rank that is too small passes all three; the tests cross-check the
ranks against independent oracles.

The checked identity J*D = 0 also shrinks the rank of J.  Write J's column
blocks E_1..E_g and F_j = rho(x_j) - Id, so that sum_j E_j*F_j = 0.  Then
E_g*F_g = -sum_{j<g} E_j*F_j: E_g maps the column span of F_g into the span
of the other blocks.  If P is a maximal independent set of rows of F_g, the
unit vectors e_i with i outside P span a complement of that column span.  So
rk J is the rank of the blocks E_1..E_(g-1) plus the columns of E_g outside
P, which drops rk F_g columns and is exact over Q.  One elimination of D's
transpose, with F_g's rows first, gives both rk D and P (`pivot_columns`).
Any block could be the reduced one; the last generator's is chosen for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactalg import (InvariantError, ScaledMatrix, pivot_columns, product_is_zero,
                       rank_rows)
from .groupcore import GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, Word, sum_terms
from .repweights import RepAssignment, WeightVector, evaluate, validate_weight, weight_dim


def fox_derivative(w: Word, j: int, field) -> dict:
    """Free Fox derivative d(w)/d(x_j) as a group-ring cell (`sum_terms`).

    Axioms: d(x_j)/d(x_j) = 1, d(x_i)/d(x_j) = 0 for i != j,
    d(uv) = du + u dv, d(x_j^-1) = -x_j^-1.
    """
    terms = []
    prefix = IDENTITY_WORD
    for idx, exp in w.letters:
        step = prefix * Word(((idx, exp),))
        if idx == j:
            terms.append((prefix, 1) if exp == 1 else (step, -1))
        prefix = step
    return sum_terms(field, terms)


def fox_jacobian(p: GroupPresentation, field) -> GroupAlgebraMatrix:
    """r x g matrix with entry (k, j) = d(relator_k)/d(x_j)."""
    g = p.num_generators
    return GroupAlgebraMatrix(field, p.num_relators, g, tuple(
        fox_derivative(rel, j, field) for rel in p.relators for j in range(g)))


def boundary_stack(p: GroupPresentation, field) -> GroupAlgebraMatrix:
    """g x 1 column of the elements x_j - 1."""
    return GroupAlgebraMatrix.from_rows(field, [
        [{Word(((j, 1),)): 1, IDENTITY_WORD: -1}] for j in range(p.num_generators)])


def presentation_complex(p: GroupPresentation, rep: RepAssignment, lam: Sequence[int]
                         ) -> tuple[ScaledMatrix, ScaledMatrix, list[list[int]], list[list[int]]]:
    """(J, D, rows of J, rows of D): the evaluated pair, J of shape (r*d, g*d)
    and D of shape (g*d, d), and their integer companion embeddings.

    Requires the relator-sign parity gate to pass; verifies J*D = 0 exactly
    on the rows, which `homology_dims` then ranks.
    """
    lam = rep.check_admissible(lam, central=False)
    d = weight_dim(lam)
    D = evaluate(boundary_stack(p, rep.field), rep, lam)
    if p.num_relators:
        J = evaluate(fox_jacobian(p, rep.field), rep, lam)
    else:
        J = ScaledMatrix(rep.field, 0, p.num_generators * d, 1, ())
    j_rows, d_rows = J.embed(), D.embed()
    if not product_is_zero(j_rows, d_rows):
        raise InvariantError("composite J*D is nonzero; presentation and images disagree")
    return J, D, j_rows, d_rows


@dataclass(frozen=True)
class HomologyReport:
    lam: WeightVector
    d: int
    h0: int
    h1: int
    h2: int
    rank_j: int
    rank_d: int

    def dims(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def _boundary_ranks(j_rows: list[list[int]], d_rows: list[list[int]], g: int
                    ) -> tuple[int, int]:
    """(rank J, rank D) over Q of the embedded complex, whose product J*D is
    already checked to be zero; J is ranked without the columns of the last
    generator's block that lie in the row rank profile of its D block (see
    the module docstring).  The rows may be consumed."""
    if not j_rows:
        return 0, rank_rows(d_rows)
    n = len(d_rows[0])  # width of one generator block
    last = (g - 1) * n
    # rows of D's transpose are D's columns, with the last block's entries first
    pivots = pivot_columns([list(col) for col in zip(*d_rows[last:], *d_rows[:last])])
    profile = {c for c in pivots if c < n}
    free = [last + i for i in range(n) if i not in profile]
    return rank_rows([row[:last] + [row[k] for k in free] for row in j_rows]), len(pivots)


def homology_dims(p: GroupPresentation, rep: RepAssignment, lam: Sequence[int]) -> HomologyReport:
    """Twisted homology dimensions in degrees 0..2 from two exact ranks."""
    lam = rep.check_admissible(lam)
    d = weight_dim(lam)
    g, r = p.num_generators, p.num_relators
    if g == 0:
        # trivial group: W itself in degree 0
        return HomologyReport(lam, d, d, 0, 0, 0, 0)
    _, _, j_rows, d_rows = presentation_complex(p, rep, lam)
    rank_j, rank_d = (rank // rep.field.degree for rank in _boundary_ranks(j_rows, d_rows, g))
    h0 = d - rank_d
    h1 = g * d - rank_d - rank_j
    h2 = r * d - rank_j
    if h0 - h1 + h2 != d * (1 - g + r):
        raise InvariantError("Euler identity violated (rank computation inconsistent)")
    if min(h0, h1, h2) < 0:
        raise InvariantError("negative homology dimension (rank computation inconsistent)")
    return HomologyReport(lam, d, h0, h1, h2, rank_j, rank_d)


def invariants_dim(rep: RepAssignment, lam: Sequence[int]) -> int:
    """Dimension of the joint fixed space of all generator images on the
    weight module (degree-0 cohomology).  No parity gate."""
    lam = validate_weight(lam)
    d = weight_dim(lam)
    if not rep.images:
        return d
    return d - evaluate(boundary_stack(rep.presentation, rep.field), rep, lam).rank()

