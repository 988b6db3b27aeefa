"""Sylvester matrix rank functions that are exactly computable.

Four families live here:

* representation rank of a group-algebra matrix through a weight module,
* von Neumann rank over a finite group (exact),
* twisted finite-group rank relative to a central character, and
* Lueck ranks through finite quotient maps.

Every function takes the one group-ring matrix type, `GroupAlgebraMatrix`.
The weight-module and Lueck ranks take it over words of a presented group;
the finite-group ranks take it over elements of the finite group, as
`FiniteQuotientMap.push` returns it.

All values are exact `Fraction`s.  A finite-group rank is the rank of `a` on
a module of the group, and one assembler, `_module_matrix`, builds that
matrix from the action of each group element: the regular, Wedderburn and
twisted modules are three actions.  Over an abelian group Z/m_1 x ... x Z/m_g
the rank sums one block per cyclic subgroup C of the dual group, from the
rational Wedderburn decomposition Q[Q] = (+)_C Q(zeta_|C|).  Over any other
group the regular module is built over the subgroup the support generates,
which gives the same normalized rank; `elements=` forces the full list.  A
twist by a central character ranks `a` times the central idempotent on the
regular module, with no transversal.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Protocol, Sequence

from .exactalg import (FieldElement, NumberField, QQ, ScaledMatrix, StructuralError,
                       scaled_vectors)
from .groupcore import GroupAlgebraMatrix, GroupPresentation, Word, sum_terms
from .repweights import RepAssignment, evaluate, weight_dim

RankValue = Fraction

# bounds the side of the largest matrix materialized: |H| * max(rows, cols)
# for a regular representation, phi(k) * max(rows, cols) for a Wedderburn
# block; a side above ~4k means millions of dense entries under elimination
DEFAULT_MEMORY_CAP = 4096
_MEMORY_CAP_ENV = "L2APPROX_MEMORY_CAP"


class MemoryCapError(RuntimeError):
    """Materializing the requested matrix would exceed the cap."""


def memory_cap() -> int:
    """The cap from `L2APPROX_MEMORY_CAP`, or the default when it is unset."""
    env = os.environ.get(_MEMORY_CAP_ENV)
    if not env:
        return DEFAULT_MEMORY_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"{_MEMORY_CAP_ENV} must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"{_MEMORY_CAP_ENV} must be positive, got {env!r}")
    return cap


class GroupOps(Protocol):
    """Duck-typed finite group element domain: hashable elements, exact ops."""

    identity: Hashable

    def mul(self, a, b): ...

    def inv(self, a): ...


@dataclass(frozen=True)
class PermutationOps:
    """Permutations of {0..n-1} as tuples; p[x] is the image of x."""

    degree: int

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def mul(self, a, b):
        # apply b first, then a
        return tuple(a[b[x]] for x in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)


def cyclic_generator(n: int) -> tuple[int, ...]:
    return tuple((x + 1) % n for x in range(n))


@dataclass(frozen=True)
class AbelianTupleOps:
    """Direct product of cyclic groups Z/m_1 x ... x Z/m_k, elements as tuples."""

    moduli: tuple[int, ...]

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))


def subgroup_closure(ops: GroupOps, generators: Iterable, cap: int) -> list:
    """Elements of the subgroup generated by `generators`, deterministic order."""
    gens = []
    for g in generators:
        if g not in gens:
            gens.append(g)
    seen = {ops.identity}
    order = [ops.identity]
    frontier = [ops.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = ops.mul(g, h)
                if e not in seen:
                    seen.add(e)
                    order.append(e)
                    nxt.append(e)
                    if len(seen) > cap:
                        raise MemoryCapError(
                            f"support subgroup exceeds the configured cap ({cap})")
        frontier = nxt
    return order


def _module_matrix(a: GroupAlgebraMatrix, n: int, action: Callable) -> ScaledMatrix:
    """`a` acting on an n-dimensional module: block (i, j) is the sum of
    c * action(g) over the terms c * g of cell (i, j), where action(g) lists
    the nonzero (row, col, int) entries of g on the module."""
    den, vectors = scaled_vectors([c for cell in a.entries for c in cell.values()])
    coeffs = iter(vectors)
    out_rows, out_cols = a.rows * n, a.cols * n
    d = a.field.degree
    sums: dict[int, list[int]] = {}  # flat position -> coordinates, touched ones only
    for idx, cell in enumerate(a.entries):
        i, j = divmod(idx, a.cols)
        base = i * n * out_cols + j * n
        for g in cell:
            vec = next(coeffs)
            for row, col, y in action(g):
                acc = sums.setdefault(base + row * out_cols + col, [0] * d)
                for m, t in enumerate(vec):
                    acc[m] += y * t
    flat = [(0,) * d] * (out_rows * out_cols)
    for at, acc in sums.items():
        flat[at] = tuple(acc)
    return ScaledMatrix(a.field, out_rows, out_cols, den, tuple(flat))


def _regular_rank(a: GroupAlgebraMatrix, ops: GroupOps, elements: Sequence,
                  limit: int) -> RankValue:
    """Rank of `a` on the group algebra of the listed elements, g sending v to
    g * v, over the list's length; a `MemoryCapError` refuses a list with
    |Q| * max(r, s) above `limit`."""
    size = len(elements) * max(a.rows, a.cols)
    if size > limit:
        raise MemoryCapError(f"|Q| * max(r, s) = {size} exceeds the cap ({limit})")
    index = {g: i for i, g in enumerate(elements)}
    if len(index) != len(elements):
        raise StructuralError("element list repeats an element")
    try:
        mat = _module_matrix(a, len(elements), lambda g: [
            (index[ops.mul(g, v)], col, 1) for col, v in enumerate(elements)])
    except KeyError:
        raise StructuralError("matrix support escapes the listed elements: some g * v "
                              "with g in the support is not listed") from None
    return Fraction(mat.rank(), len(elements))


def finite_vn_rank(a: GroupAlgebraMatrix, ops: GroupOps, *,
                   elements: Optional[Sequence] = None) -> RankValue:
    """Exact von Neumann rank rk(a) = rank of the regular representation / |Q|.

    With `elements` given, the representation is materialized over exactly
    that full element list.  Otherwise an `AbelianTupleOps` group is ranked
    block by block over its Wedderburn decomposition (`_wedderburn_rank`),
    and any other group is materialized over the subgroup generated by the
    support, which yields the same normalized value.  On an abelian group
    the cost follows |Q|, not the order of the subgroup the support
    generates, since every character of Q is visited.
    """
    if a.rows == 0 or a.cols == 0:
        return Fraction(0)
    limit = memory_cap()
    if elements is None:
        if isinstance(ops, AbelianTupleOps):
            return _wedderburn_rank(a, ops.moduli, limit)
        elements = subgroup_closure(ops, a.support(), max(1, limit // max(a.rows, a.cols)))
    return _regular_rank(a, ops, list(elements), limit)


def _wedderburn_rank(a: GroupAlgebraMatrix, moduli: Sequence[int], limit: int) -> RankValue:
    """rk(a) over Q = Z/m_1 x ... x Z/m_g by the rational Wedderburn
    decomposition Q[Q] = (+)_v Q(zeta_k), one summand per orbit
    {u * v : gcd(u, k) = 1} of an element v of order k in the dual group.

    The character of v sends g to zeta_M^(sum v_i g_i M / m_i), M = lcm(m_i),
    which is zeta_k^e(g).  On the summand, with the power basis of Q(zeta_k)
    modulo Phi_k, g acts as multiplication by zeta_k^e(g), an integer matrix;
    over a's field K, cell sum c_g g becomes the phi(k) x phi(k) block
    sum c_g zeta_k^e(g).  The K-ranks of the blocks add up to the rank of the
    regular representation, so the value is their sum over |Q|, exactly.

    A `MemoryCapError` refuses, before any block is built, a block side
    phi(k) * max(r, s) above `limit` (phi(M) is the largest phi(k)) and a
    group with |Q| above limit^2, the entry count of the largest dense matrix
    the cap admits, which bounds the byte map of visited characters.
    """
    order = math.prod(moduli)
    if order > limit * limit:
        raise MemoryCapError(f"|Q| = {order} exceeds the cap squared ({limit * limit})")
    big = math.lcm(1, *moduli)
    side = _totient(big) * max(a.rows, a.cols)
    if side > limit:
        raise MemoryCapError(f"phi({big}) * max(r, s) = {side} exceeds the cap ({limit})")
    strides = [math.prod(moduli[i + 1:]) for i in range(len(moduli))]
    seen = bytearray(order)
    tables: dict[int, tuple] = {}  # k -> (phi(k), powers of zeta_k)
    total = 0
    for idx, v in enumerate(itertools.product(*map(range, moduli))):
        if seen[idx]:
            continue
        weights = [x * (big // m) for x, m in zip(v, moduli)]
        step = math.gcd(big, *weights)
        k = big // step
        for u in range(1, k + 1):
            if math.gcd(u, k) == 1:
                seen[sum(u * x % m * st for x, m, st in zip(v, moduli, strides))] = 1
        # zeta_M^(sum w_i g_i) = zeta_k^(sum (w_i / step) g_i)
        weights = [w // step for w in weights]
        if k not in tables:
            tables[k] = (_totient(k), _root_powers(k))
        n, powers = tables[k]

        def action(g):
            # column c of zeta_k^e holds the coordinates of zeta_k^(e + c)
            e = sum(w * x for w, x in zip(weights, g))
            return [(l, c, y) for c in range(n) for l, y in powers[(e + c) % k]]

        total += _module_matrix(a, n, action).rank()
    return Fraction(total, order)


def twisted_finite_rank(a: GroupAlgebraMatrix, ops: GroupOps, elements: Sequence,
                        center: Sequence, chi: Mapping) -> RankValue:
    """Rank of `a` on the quotient of the group algebra by a central character.

    `center` lists a central subgroup Z of the group whose elements are
    `elements`; `chi` maps each z in Z to a root of unity in a's field.  The
    quotient, where each z acts as chi(z), is the summand of the regular module
    cut out by the central idempotent sum_z chi(z^-1) z / |Z|, of dimension
    |Q/Z|; the value is the rank of a times that idempotent over |Q/Z|.
    """
    field = a.field
    elements = list(elements)
    center = list(center)
    elem_set = set(elements)
    if ops.identity not in elem_set:
        raise StructuralError("element list must contain the identity")
    for z in center:
        if z not in elem_set:
            raise StructuralError("central subgroup must lie inside the element list")
        for g in elements:
            if ops.mul(z, g) != ops.mul(g, z):
                raise ValueError("designated subgroup is not central")
    if len(set(center)) != len(center) or any(ops.mul(g, z) not in elem_set
                                              for z in center for g in elements):
        raise StructuralError("central subgroup does not evenly tile the element list")
    chi_e = {z: field.coerce(chi[z]) for z in center}
    if chi_e[ops.identity] != field.one:
        raise ValueError("character must send the identity to 1")
    if any(chi_e[ops.mul(z, w)] != chi_e[z] * chi_e[w] for z in center for w in center):
        raise ValueError("character is not multiplicative on the central subgroup")
    twist = [(z, chi_e[ops.inv(z)]) for z in center]
    b = GroupAlgebraMatrix(field, a.rows, a.cols, tuple(
        sum_terms(field, ((ops.mul(g, z), c * x) for g, c in cell.items() for z, x in twist))
        for cell in a.entries))
    return _regular_rank(b, ops, elements, memory_cap()) * len(center)


def characters_of_cyclic(ops: GroupOps, center: Sequence, zeta: FieldElement) -> list[dict]:
    """All characters of a cyclic central subgroup, given a primitive |Z|-th
    root of unity in the target field."""
    center = list(center)
    m = len(center)
    gen = None
    for cand in center:
        powers = [ops.identity]
        cur = cand
        while cur != ops.identity:
            powers.append(cur)
            cur = ops.mul(cur, cand)
            if len(powers) > m:
                break
        if len(powers) == m and set(powers) == set(center):
            gen = cand
            break
    if gen is None:
        raise StructuralError("central subgroup is not cyclic")
    field = zeta.field
    zpow = [field.one]
    for _ in range(m - 1):
        zpow.append(zpow[-1] * zeta)
    if m > 1 and (zpow[-1] * zeta) != field.one:
        raise ValueError("zeta is not an |Z|-th root of unity")
    for k in range(1, m):
        if zpow[k] == field.one:
            raise ValueError("zeta is not a primitive |Z|-th root of unity")
    chars = []
    for t in range(m):
        chi = {}
        cur = ops.identity
        for j in range(m):
            chi[cur] = zpow[(t * j) % m]
            cur = ops.mul(cur, gen)
        chars.append(chi)
    return chars


def cyclotomic_field(m: int) -> tuple[NumberField, FieldElement]:
    """(Q(zeta_m), zeta_m) for m >= 1; degree-1 cases return plain Q."""
    if m < 1:
        raise StructuralError("root-of-unity order must be positive")
    if m == 1:
        return QQ, QQ.one
    if m == 2:
        return QQ, QQ.from_rational(-1)
    poly = _cyclotomic_poly(m)
    field = NumberField(tuple(Fraction(c) for c in poly))
    return field, field.gen()


@functools.lru_cache(maxsize=None)
def _cyclotomic_poly(m: int) -> tuple[int, ...]:
    # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d, exact integer division
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _intpoly_div(num, _cyclotomic_poly(d))
    return tuple(num)


def _totient(n: int) -> int:
    # Euler's phi by trial division; n is at most the cap squared here
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def _root_powers(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (index, coordinate) pairs of zeta_k^0 .. zeta_k^(k-1) in
    the power basis 1, x, .., x^(phi(k)-1) of Q(zeta_k) = Q[x] / Phi_k."""
    poly = _cyclotomic_poly(k)
    cur = [1] + [0] * (len(poly) - 2)
    out = []
    for _ in range(k):
        out.append(tuple((l, y) for l, y in enumerate(cur) if y))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [x - top * p for x, p in zip(cur, poly)]
    return tuple(out)


def _intpoly_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        coef = num[k + len(den) - 1] // den[-1]
        q[k] = coef
        for j, dj in enumerate(den):
            num[k + j] -= coef * dj
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return q


@dataclass(frozen=True)
class FiniteQuotientMap:
    """Quotient of a presented group onto a finite group, by generator images.

    Validated at construction: every relator maps to the identity.  `order`
    is the declared order of the full quotient, used for reporting only:
    `finite_vn_rank` ranks an abelian quotient over all of it, one Wedderburn
    block per cyclic subgroup of the dual group, and any other quotient over
    the subgroup the pushed support generates, which gives the same value.
    """

    presentation: GroupPresentation
    ops: GroupOps
    gen_images: tuple
    order: int
    name: str

    @staticmethod
    def build(presentation: GroupPresentation, ops: GroupOps, gen_images: Sequence,
              order: int, name: str) -> "FiniteQuotientMap":
        if len(gen_images) != presentation.num_generators:
            raise StructuralError("need one image per generator")
        q = FiniteQuotientMap(presentation, ops, tuple(gen_images), order, name)
        for k, rel in enumerate(presentation.relators):
            if q.word_image(rel) != ops.identity:
                raise ValueError(f"relator {k} is not killed by the quotient map")
        return q

    def word_image(self, w: Word):
        out = self.ops.identity
        for idx, exp in w.letters:
            g = self.gen_images[idx]
            out = self.ops.mul(out, g if exp == 1 else self.ops.inv(g))
        return out

    def push(self, a: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
        """`a` with every word replaced by its image; words with one image add.

        Each cell's words are taken shortest first, then by letters, so the
        pushed support lists its elements in that order whatever order the
        cell was built in.  The support is the generator list of
        `subgroup_closure`, whose element order is the basis order of a
        non-abelian regular module."""
        def shortest_first(term):
            return term[0].length, term[0].letters

        cells = (sum_terms(a.field, ((self.word_image(w), c)
                                     for w, c in sorted(e.items(), key=shortest_first)))
                 for e in a.entries)
        return GroupAlgebraMatrix(a.field, a.rows, a.cols, tuple(cells))


def sylvester_rank(a: GroupAlgebraMatrix, rep: RepAssignment, lam: Sequence[int]) -> RankValue:
    """Representation rank: exact rank of the evaluated matrix divided by the
    weight module dimension.  Requires the relator-sign parity gate to pass
    (the weight must carry an honest action of the presented group)."""
    lam = rep.check_admissible(lam, central=False)
    if a.field != rep.field:
        raise StructuralError("matrix and representation live over different fields")
    d = weight_dim(lam)
    if a.rows == 0 or a.cols == 0:
        return Fraction(0)
    return Fraction(evaluate(a, rep, lam).rank(), d)


def luck_rank(a: GroupAlgebraMatrix, q: FiniteQuotientMap) -> RankValue:
    """Rank through a finite quotient: push the matrix forward, then take the
    exact finite von Neumann rank."""
    return finite_vn_rank(q.push(a), q.ops)


def cyclic_power_quotient(presentation: GroupPresentation, modulus: int) -> FiniteQuotientMap:
    """Quotient sending generator i of a free-abelian-style presentation to
    the i-th unit vector of (Z/modulus)^g."""
    g = presentation.num_generators
    ops = AbelianTupleOps((modulus,) * g)
    images = []
    for i in range(g):
        vec = [0] * g
        vec[i] = 1 % modulus
        images.append(tuple(vec))
    return FiniteQuotientMap.build(presentation, ops, images,
                                   order=modulus ** g, name=f"(Z/{modulus})^{g}")
