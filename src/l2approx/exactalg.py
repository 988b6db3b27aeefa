"""Exact arithmetic over Q and number fields Q(alpha), plus exact matrix rank.

Everything here is exact.  A `FieldElement` holds `Fraction` coordinates in
the power basis of Q(alpha); its products reduce modulo the monic minimal
polynomial directly.  The one matrix type, `ScaledMatrix`, stores every entry
as a vector of Python ints over one common denominator.  Integer coordinate
vectors multiply by `NumberField.int_mul`, the only reader of the field's one
integer reduction table, and `embed`, from multiplication matrices built by
`int_mul`, turns a matrix into integer rows over Q for the fraction-free
elimination kernel `pivot_columns` (its count is `rank_rows`) and the exact
zero test `product_is_zero`.
`_pack` and `_unpack` hold a column of ints as one big int in balanced slots
(Kronecker substitution), so convolutions and sums of columns run as big-int
arithmetic.  Nothing divides in Q(alpha), and no floating point is used on any rank path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

Coeffish = Union[int, Fraction, "FieldElement"]


class StructuralError(ValueError):
    """Ill-formed input: mixed fields, bad shapes, malformed data."""


class FieldMismatchError(StructuralError):
    """Entries or operands built over different number fields."""


class InvariantError(RuntimeError):
    """A runtime identity failed: an internal inconsistency, not bad input."""


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise StructuralError(f"expected an integer or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class NumberField:
    """The field Q(alpha) where alpha has the given monic minimal polynomial.

    `minpoly` lists coefficients constant-first, length degree+1.  Degree 1
    means Q itself (alpha plays no role).
    """

    minpoly: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.minpoly) < 2:
            raise StructuralError("minpoly needs degree >= 1")
        object.__setattr__(self, "minpoly", tuple(as_fraction(c) for c in self.minpoly))
        if self.minpoly[-1] != 1:
            raise StructuralError("minpoly must be monic")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @cached_property
    def _int_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # (t, t * the reduced coordinates of alpha^d, ..., alpha^(2d-2)), with
        # t the least denominator making them integral: 1 for an integral minpoly
        d = self.degree
        power, rows = [0] * (d - 1) + [1], []  # alpha^(d-1)
        for _ in range(d - 1):
            # times alpha: shift up, then replace alpha^d by minus the rest of minpoly
            top = power[-1]
            power = [(power[k - 1] if k else 0) - top * self.minpoly[k] for k in range(d)]
            rows.append(power)
        t = math.lcm(1, *(c.denominator for row in rows for c in row))
        return t, tuple(tuple(int(c * t) for c in row) for row in rows)

    @property
    def int_scale(self) -> int:
        """The factor t that `int_mul` and `ScaledMatrix.embed` multiply in."""
        return self._int_table[0]

    @cached_property
    def int_mul_bound(self) -> int:
        """K with ||int_mul(u, v)||_1 <= K * ||u||_1 * ||v||_1: the larger of
        t and the l1 norms of t times the reduced powers alpha^d..alpha^(2d-2)."""
        t, table = self._int_table
        return max([t, *(sum(map(abs, row)) for row in table)])

    def int_mul(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        """t * u * v for integer power-basis vectors u and v, t = int_scale.

        t clears the denominators of a rational minimal polynomial, so the
        result stays integral; the caller carries t in its denominator.
        Only ring operations on the coordinates, so it works unchanged on
        packed coordinates (see `_pack`), a polynomial in Y = 2^W each."""
        d = len(u)
        if d == 1:
            return (u[0] * v[0],)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        conv[i + j] += x * y
        t, table = self._int_table
        out = conv[:d] if t == 1 else [t * x for x in conv[:d]]
        for x, row in zip(conv[d:], table):
            if x:
                for j in range(d):
                    out[j] += x * row[j]
        return tuple(out)

    @cached_property
    def _mult_basis(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        # per power alpha^m, the nonzero (l, k, value) of t times its
        # multiplication matrix: column k is int_mul(alpha^m, alpha^k)
        unit = [tuple(int(i == m) for i in range(self.degree)) for m in range(self.degree)]
        return tuple(tuple((l, k, x) for k, e in enumerate(unit)
                           for l, x in enumerate(self.int_mul(u, e)) if x) for u in unit)

    def element(self, coeffs: Sequence[Coeffish]) -> "FieldElement":
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise StructuralError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, q: Union[int, Fraction]) -> "FieldElement":
        return self.element([as_fraction(q)])

    def coerce(self, c: Coeffish) -> "FieldElement":
        """`c` as an element of this field: an int or Fraction as a rational,
        a `FieldElement` only if it already lies in this field."""
        if isinstance(c, FieldElement):
            if c.field != self:
                raise FieldMismatchError("coefficient lies in a different number field")
            return c
        return self.from_rational(c)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            raise StructuralError("degree-1 field has no generator beyond Q")
        return self.element([0, 1])

    @cached_property
    def zero(self) -> "FieldElement":
        return self.element([])

    @cached_property
    def one(self) -> "FieldElement":
        return self.element([1])


QQ = NumberField((Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class FieldElement:
    field: NumberField
    coeffs: tuple[Fraction, ...]

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise FieldMismatchError("operands lie in different number fields")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        d = self.field.degree
        if d == 1:
            return FieldElement(self.field, (a[0] * b[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        # clear x^k, k >= d, from the top down: subtract c * x^(k-d) * minpoly
        minpoly = self.field.minpoly
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c:
                for j in range(d):
                    conv[k - d + j] -= c * minpoly[j]
        return FieldElement(self.field, tuple(conv[:d]))

    def __repr__(self) -> str:
        if not self:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "a" if k == 1 else f"a^{k}"
                parts.append(f"{c}*{var}" if c != 1 else var)
        return " + ".join(parts)


def scaled_vectors(elems: Sequence[FieldElement]) -> tuple[int, list[tuple[int, ...]]]:
    """(den, vectors): the elements as integer power-basis vectors divided by
    den, the least common denominator of all their coordinates."""
    den = math.lcm(1, *{c.denominator for e in elems for c in e.coeffs})
    return den, [tuple(c.numerator * (den // c.denominator) for c in e.coeffs) for e in elems]


def flatten_rows(rows: Sequence[Sequence]) -> tuple[int, int, list]:
    """(row count, column count, row-major entries) of a matrix given as a
    list of rows; rows of unequal length are a `StructuralError`."""
    c = len(rows[0]) if rows else 0
    if any(len(row) != c for row in rows):
        raise StructuralError("ragged rows")
    return len(rows), c, [v for row in rows for v in row]


@dataclass(frozen=True)
class ScaledMatrix:
    """Matrix over Q(alpha) in integer coordinates.

    Entry (i, j) is the power-basis vector entries[i * cols + j], a tuple of
    Python ints, divided by the one positive denominator `den`.
    """

    field: NumberField
    rows: int
    cols: int
    den: int
    entries: tuple[tuple[int, ...], ...]  # row-major

    @staticmethod
    def from_rows(field: NumberField, rows: Sequence[Sequence[Coeffish]]) -> "ScaledMatrix":
        """Matrix from rows of ints, Fractions or `FieldElement`s over `field`."""
        r, c, flat = flatten_rows(rows)
        den, vectors = scaled_vectors([field.coerce(v) for v in flat])
        return ScaledMatrix(field, r, c, den, tuple(vectors))

    def embed(self) -> list[list[int]]:
        """Integer rows of t * den times the companion embedding over Q.

        Each entry becomes its d x d multiplication matrix, whose column k
        holds the coordinates of entry * alpha^k; t is the field's int_scale.
        The result has (rows*d) rows of (cols*d) ints and rank d times the
        rank of this matrix.  Zero coordinates are skipped.
        """
        d, cols, entries = self.field.degree, self.cols, self.entries
        if d == 1:
            return [[v[0] for v in entries[i * cols:(i + 1) * cols]] for i in range(self.rows)]
        basis = self.field._mult_basis
        out = []
        for i in range(self.rows):
            block = [[0] * (cols * d) for _ in range(d)]
            for j in range(cols):
                for m, x in enumerate(entries[i * cols + j]):
                    if x:
                        for l, k, y in basis[m]:
                            block[l][j * d + k] += x * y
            out.extend(block)
        return out

    def rank(self) -> int:
        """Exact rank over Q(alpha): `rank_rows` on the embedding, divided by d."""
        return rank_rows(self.embed()) // self.field.degree


def rank_rows(rows: list[list[int]]) -> int:
    """Exact rank over Q of a matrix given as integer rows: the number of
    `pivot_columns`, which consumes the rows."""
    return len(pivot_columns(rows))


def pivot_columns(rows: list[list[int]]) -> list[int]:
    """The pivot columns of an integer matrix, in increasing order: column c
    is listed iff it is not in the span of columns 0..c-1 over Q, so there
    are rank-many, and those inside any leading block of columns are that
    block's first independent columns.

    Fraction-free elimination: a row with a nonzero c in the pivot column
    becomes (p/g)*row - (c/g)*pivot_row, where p is the pivot and
    g = gcd(p, c), and is then divided by the gcd of its entries; rows with a
    zero there are left untouched, which keeps sparse matrices cheap.
    The pivot of each column is the entry of smallest absolute value, which
    keeps the integers small; the scan stops at the first +-1, and ties go
    to the lowest row index, so the elimination is deterministic.  The rows
    are consumed: the list is reordered and its rows replaced in place, so a
    replaced row is freed at once.
    """
    a = rows
    nrows = len(a)
    pivots: list[int] = []
    if nrows == 0:
        return pivots
    rank = 0
    for col in range(len(a[0])):
        piv, best = None, 0
        for i in range(rank, nrows):
            c = abs(a[i][col])
            if c and (piv is None or c < best):
                piv, best = i, c
                if c == 1:
                    break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        # rows below the pivot are zero left of col, so only the tail changes
        p, pivot_tail = a[rank][col], a[rank][col + 1:]
        head = [0] * (col + 1)
        for i in range(rank + 1, nrows):
            c = a[i][col]
            if not c:
                continue
            g = math.gcd(p, c)
            s, t = p // g, c // g
            tail = [s * x - t * y for x, y in zip(a[i][col + 1:], pivot_tail)]
            content = math.gcd(*tail)
            a[i] = head + ([x // content for x in tail] if content > 1 else tail)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


# Packed columns (Kronecker substitution): a vector of ints v_0..v_(n-1) is
# held as the one int sum v_i * 2^(i*W).  Packing is the ring homomorphism
# Z[Y] -> Z, Y -> 2^W, so sums and products of packed ints are the packed
# sums and products, whatever the size of the values along the way.  Only
# unpacking needs a bound: slot i reads back v_i when every |v_i| < 2^(W-1).

def _slot_width(bound: int) -> int:
    """Slot width W for values of absolute value at most `bound`: more than
    1 + bound.bit_length() bits, rounded up to whole bytes."""
    return 8 * ((bound.bit_length() + 9) // 8)


def _bias(count: int, width: int) -> int:
    # 2^(W-1) in each of `count` slots
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _pack(values: Sequence[int], width: int) -> int:
    """sum values[i] * 2^(i*width), for |values[i]| < 2^(width-1) and a width
    that is a multiple of 8."""
    nb, bias = width // 8, 1 << (width - 1)
    raw = b"".join((v + bias).to_bytes(nb, "little") for v in values)
    return int.from_bytes(raw, "little") - _bias(len(values), width)


def _unpack(x: int, count: int, width: int) -> list[int]:
    """The `count` balanced slots of a packed int: the values v_i with
    x = sum v_i * 2^(i*width) and |v_i| < 2^(width-1)."""
    nb, bias = width // 8, 1 << (width - 1)
    raw = (x + _bias(count, width)).to_bytes(count * nb, "little")
    return [int.from_bytes(raw[i:i + nb], "little") - bias for i in range(0, count * nb, nb)]


def product_is_zero(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> bool:
    """Exact test that the integer matrix product left * right vanishes.

    Applied to two companion embeddings it tests the product over Q(alpha),
    since the embedding is multiplicative.  Each row of `right` is packed
    once into one int (see `_pack`) with slots wider than the bound
    max|right entry| * max ||left row||_1 on every entry of the product, so
    a row of the product is one sum of int products, and that sum is zero
    exactly when every slot, every product entry, is zero.  Zero entries of
    `left` are skipped.
    """
    if left and len(left[0]) != len(right):
        raise StructuralError("inner dimensions do not match")
    if not left or not right:
        return True
    bound = max((abs(y) for row in right for y in row), default=0)
    width = _slot_width(bound * max(sum(map(abs, row)) for row in left))
    packed = [_pack(row, width) for row in right]
    for row in left:
        if sum(x * packed[k] for k, x in enumerate(row) if x):
            return False
    return True
