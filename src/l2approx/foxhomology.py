"""Fox-calculus presentation chain complex and twisted homology dimensions.

From a presentation with g generators and r relators and a weight module of
dimension d, the evaluated complex is

    C: d  --D-->  g*d  --J-->  r*d

where D stacks the blocks rho(x_j) - Id and J evaluates the Fox Jacobian.
Dimensions in degrees 0, 1, 2 come from the two ranks:

    h0 = d - rk D,   h1 = g*d - rk D - rk J,   h2 = r*d - rk J.

h2 is group homology only when the presentation 2-complex is aspherical;
otherwise it is reported as homology of the complex.  The composite J*D and
the Euler identity are verified exactly on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactalg import ExactMatrix, rank_exact, vstack
from .groupcore import (GroupAlgebraElement, GroupAlgebraMatrix, GroupPresentation,
                        IDENTITY_WORD, Word)
from .repweights import (RepAssignment, WeightVector, evaluate, sl2_inverse, validate_weight,
                         weight_dim, weight_rep)


class InvariantError(RuntimeError):
    """A runtime identity of the complex failed: an internal inconsistency,
    not bad input."""


def fox_derivative(w: Word, j: int, field) -> GroupAlgebraElement:
    """Free Fox derivative d(w)/d(x_j) as a group-algebra element.

    Axioms: d(x_j)/d(x_j) = 1, d(x_i)/d(x_j) = 0 for i != j,
    d(uv) = du + u dv, d(x_j^-1) = -x_j^-1.
    """
    terms: dict[Word, list] = {}
    prefix = IDENTITY_WORD
    for idx, exp in w.letters:
        if exp == 1:
            if idx == j:
                _accumulate(terms, prefix, 1)
            prefix = prefix * Word(((idx, 1),))
        else:
            prefix = prefix * Word(((idx, -1),))
            if idx == j:
                _accumulate(terms, prefix, -1)
    return GroupAlgebraElement.from_dict(field, {w_: c for w_, c in terms.items() if c})


def _accumulate(terms: dict, w: Word, c: int):
    terms[w] = terms.get(w, 0) + c


def fox_jacobian(p: GroupPresentation, field) -> GroupAlgebraMatrix:
    """r x g matrix with entry (k, j) = d(relator_k)/d(x_j)."""
    g = p.num_generators
    rows = [[fox_derivative(rel, j, field) for j in range(g)] for rel in p.relators]
    if not rows:
        return GroupAlgebraMatrix(field, 0, g, ())
    return GroupAlgebraMatrix.from_rows(field, rows)


def boundary_stack(p: GroupPresentation, field) -> GroupAlgebraMatrix:
    """g x 1 column of the elements x_j - 1."""
    col = []
    for j in range(p.num_generators):
        xj = Word(((j, 1),))
        col.append([GroupAlgebraElement.from_dict(field, {xj: 1, IDENTITY_WORD: -1})])
    return GroupAlgebraMatrix.from_rows(field, col)


def check_fox_identity(p: GroupPresentation, field) -> None:
    """Fundamental identity: sum_j d(r)/d(x_j) * (x_j - 1) = r - 1, per relator."""
    for rel in p.relators:
        acc = GroupAlgebraElement.zero(field)
        for j in range(p.num_generators):
            xj_minus_1 = GroupAlgebraElement.from_dict(
                field, {Word(((j, 1),)): 1, IDENTITY_WORD: -1})
            acc = acc + fox_derivative(rel, j, field) * xj_minus_1
        rhs = GroupAlgebraElement.from_dict(field, {rel: 1, IDENTITY_WORD: -1})
        if acc != rhs:
            raise InvariantError(f"fundamental Fox identity fails for relator {rel!r}")


def presentation_complex(p: GroupPresentation, rep: RepAssignment,
                         lam: Sequence[int]) -> tuple[ExactMatrix, ExactMatrix]:
    """Evaluated pair (J, D) with J of shape (r*d, g*d) and D of shape (g*d, d).

    Requires the relator-sign parity gate to pass; verifies J*D = 0 exactly.
    """
    lam = rep.check_admissible(lam, central=False)
    field = rep.field
    d = weight_dim(lam)
    images = rep.weight_images(lam)
    ident = ExactMatrix.identity(field, d)
    D = vstack([img - ident for img in images])
    jac = fox_jacobian(p, field)
    if p.num_relators:
        J = evaluate(jac, rep, lam)
    else:
        J = ExactMatrix(field, 0, p.num_generators * d, ())
    if p.num_relators and not (J * D).is_zero():
        raise InvariantError("composite J*D is nonzero; presentation and images disagree")
    return J, D


@dataclass(frozen=True)
class HomologyReport:
    lam: WeightVector
    d: int
    h0: int
    h1: int
    h2: int
    rank_j: int
    rank_d: int
    aspherical: bool  # True: h2 is group homology; False: homology of the 2-complex

    def dims(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def homology_dims(p: GroupPresentation, rep: RepAssignment, lam: Sequence[int],
                  aspherical: bool = False) -> HomologyReport:
    """Twisted homology dimensions in degrees 0..2 from two exact ranks."""
    lam = rep.check_admissible(lam)
    d = weight_dim(lam)
    g, r = p.num_generators, p.num_relators
    if g == 0:
        # trivial group: W itself in degree 0
        return HomologyReport(lam, d, d, 0, 0, 0, 0, aspherical)
    J, D = presentation_complex(p, rep, lam)
    rank_d = rank_exact(D)
    rank_j = rank_exact(J)
    h0 = d - rank_d
    h1 = g * d - rank_d - rank_j
    h2 = r * d - rank_j
    if h0 - h1 + h2 != d * (1 - g + r):
        raise InvariantError("Euler identity violated (rank computation inconsistent)")
    if min(h0, h1, h2) < 0:
        raise InvariantError("negative homology dimension (rank computation inconsistent)")
    return HomologyReport(lam, d, h0, h1, h2, rank_j, rank_d, aspherical)


def invariants_dim(rep: RepAssignment, lam: Sequence[int]) -> int:
    """Dimension of the joint fixed space of all generator images on the
    weight module (degree-0 cohomology).  No parity gate."""
    lam = validate_weight(lam)
    d = weight_dim(lam)
    images = rep.weight_images(lam)
    if not images:
        return d
    ident = ExactMatrix.identity(rep.field, d)
    stack = vstack([img - ident for img in images])
    return d - rank_exact(stack)


def coinvariants_dim(rep: RepAssignment, lam: Sequence[int]) -> int:
    """Dimension of the joint coinvariants (degree-0 homology), computed from
    the transposed/dual action independently of homology_dims."""
    lam = validate_weight(lam)
    d = weight_dim(lam)
    if not rep.images:
        return d
    ident = ExactMatrix.identity(rep.field, d)
    # the inverse image lifts from the SL2 adjugate
    dual_blocks = [weight_rep([sl2_inverse(g) for g in tup], lam).transpose() - ident
                   for tup in rep.images]
    return d - rank_exact(vstack(dual_blocks))
