"""Exact arithmetic over Q and number fields Q(alpha), plus exact matrix rank.

Everything here is exact: coefficients are `fractions.Fraction`, elements of
Q(alpha) are polynomials in alpha reduced modulo a monic minimal polynomial,
and ranks come from fraction-free elimination on integer rows after embedding
into Q.  Nothing divides in Q(alpha), and no floating point is used on any
rank path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

Rational = Fraction
Coeffish = Union[int, Fraction, "FieldElement"]


class StructuralError(ValueError):
    """Ill-formed input: mixed fields, bad shapes, malformed data."""


class FieldMismatchError(StructuralError):
    """Entries or operands built over different number fields."""


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
    def _power_table(self) -> tuple[tuple[Fraction, ...], ...]:
        # reduced coefficient vectors of alpha^d, ..., alpha^(2d-2)
        d = self.degree
        base = tuple(-c for c in self.minpoly[:d])  # alpha^d
        table = [base]
        for _ in range(d - 2):
            prev = table[-1]
            shifted = [Fraction(0)] + list(prev[: d - 1])
            top = prev[d - 1]
            table.append(tuple(shifted[k] + top * base[k] for k in range(d)))
        return tuple(table)

    def element(self, coeffs: Sequence[Coeffish]) -> "FieldElement":
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise StructuralError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, q: Union[int, Fraction]) -> "FieldElement":
        return self.element([as_fraction(q)])

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

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        d = self.degree
        if len(coeffs) <= d:
            return tuple(coeffs + [Fraction(0)] * (d - len(coeffs)))
        out = list(coeffs[:d])
        table = self._power_table
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                red = table[k - d]
                for j in range(d):
                    out[j] += c * red[j]
        return tuple(out)


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
        return FieldElement(self.field, self.field._reduce(conv))

    def rational_value(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise StructuralError("field element is not rational")
        return self.coeffs[0]

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


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix with FieldElement entries over a single number field."""

    field: NumberField
    rows: int
    cols: int
    entries: tuple[FieldElement, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise StructuralError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise StructuralError("entry count does not match shape")
        for e in self.entries:
            if e.field != self.field:
                raise FieldMismatchError("matrix entries over inconsistent fields")

    @staticmethod
    def from_rows(field: NumberField, rows: Sequence[Sequence[Coeffish]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise StructuralError("ragged rows")
            for v in row:
                flat.append(v if isinstance(v, FieldElement) else field.from_rational(as_fraction(v)))
        return ExactMatrix(field, r, c, tuple(flat))

    @staticmethod
    def identity(field: NumberField, n: int) -> "ExactMatrix":
        z, o = field.zero, field.one
        return ExactMatrix(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(field: NumberField, r: int, c: int) -> "ExactMatrix":
        return ExactMatrix(field, r, c, (field.zero,) * (r * c))

    def entry(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StructuralError("shape mismatch in matrix addition")
        return ExactMatrix(self.field, self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise StructuralError("shape mismatch in matrix subtraction")
        return ExactMatrix(self.field, self.rows, self.cols,
                           tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise FieldMismatchError("matrix product over different fields")
        if self.cols != other.rows:
            raise StructuralError("inner dimensions do not match")
        z = self.field.zero
        a, b = self.entries, other.entries
        n, m, p = self.rows, self.cols, other.cols
        flat = []
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            for j in range(p):
                acc = z
                for k in range(m):
                    aik = arow[k]
                    if aik:
                        bkj = b[k * p + j]
                        if bkj:
                            acc = acc + aik * bkj
                flat.append(acc)
        return ExactMatrix(self.field, n, p, tuple(flat))

    def scalar_mul(self, c: FieldElement) -> "ExactMatrix":
        return ExactMatrix(self.field, self.rows, self.cols, tuple(c * e for e in self.entries))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, self.cols, self.rows,
                           tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise FieldMismatchError("Kronecker product over different fields")
        r, c = self.rows * other.rows, self.cols * other.cols
        flat = [None] * (r * c)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entry(i, j)
                for k in range(other.rows):
                    base = (i * other.rows + k) * c + j * other.cols
                    for l in range(other.cols):
                        flat[base + l] = a * other.entry(k, l)
        return ExactMatrix(self.field, r, c, tuple(flat))


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    field, rows = mats[0].field, mats[0].rows
    for m in mats:
        if m.field != field or m.rows != rows:
            raise StructuralError("hstack needs equal row counts over one field")
    flat = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return ExactMatrix(field, rows, sum(m.cols for m in mats), tuple(flat))


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    field, cols = mats[0].field, mats[0].cols
    for m in mats:
        if m.field != field or m.cols != cols:
            raise StructuralError("vstack needs equal column counts over one field")
    flat = []
    for m in mats:
        flat.extend(m.entries)
    return ExactMatrix(field, sum(m.rows for m in mats), cols, tuple(flat))


def block_diag(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    field = mats[0].field
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[field.zero] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[ro + i][co + j] = m.entry(i, j)
        ro += m.rows
        co += m.cols
    return ExactMatrix(field, rows, cols, tuple(v for row in out for v in row))


def companion_embed(m: ExactMatrix) -> ExactMatrix:
    """Replace each Q(alpha) entry by its d x d multiplication matrix over Q.

    The result is a (rows*d) x (cols*d) matrix over Q with
    rank_exact(result) = d * rank_exact(m).  Degree-1 input is returned as is.
    """
    field = m.field
    d = field.degree
    if d == 1:
        return m
    gen = field.gen()
    flat = [None] * (m.rows * d * m.cols * d)
    out_cols = m.cols * d
    for i in range(m.rows):
        for j in range(m.cols):
            e = m.entry(i, j)
            # column k of the multiplication matrix = coefficients of e*alpha^k
            cur = e
            for k in range(d):
                for l in range(d):
                    flat[(i * d + l) * out_cols + (j * d + k)] = QQ.from_rational(cur.coeffs[l])
                if k < d - 1:
                    cur = cur * gen
    return ExactMatrix(QQ, m.rows * d, m.cols * d, tuple(flat))


def _integer_row(entries: Sequence[FieldElement]) -> list[int]:
    """Rational entries scaled by the lcm of their denominators."""
    values = [e.coeffs[0] for e in entries]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def rank_exact(m: ExactMatrix) -> int:
    """Exact rank by fraction-free elimination on Python integer rows.

    Entries over Q(alpha) are first replaced by their multiplication matrices
    over Q, which multiplies the rank by the field degree.  A row with a
    nonzero c in the pivot column becomes (p/g)*row - (c/g)*pivot_row, where
    p is the pivot and g = gcd(p, c), and is then divided by the gcd of its
    entries; rows with a zero there are left untouched, which keeps sparse
    matrices cheap.  Deterministic: pivots are chosen first-nonzero in column
    order.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    q = companion_embed(m)
    a = [_integer_row(q.entries[i * q.cols:(i + 1) * q.cols]) for i in range(q.rows)]
    rows = len(a)
    rank = 0
    for col in range(q.cols):
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        p = pivot_row[col]
        for i in range(rank + 1, rows):
            c = a[i][col]
            if not c:
                continue
            g = math.gcd(p, c)
            s, t = p // g, c // g
            row = [s * x - t * y for x, y in zip(a[i], pivot_row)]
            content = math.gcd(*row)
            a[i] = [x // content for x in row] if content > 1 else row
        rank += 1
        if rank == rows:
            break
    return rank // m.field.degree
