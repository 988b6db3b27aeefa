"""Finitely presented groups, free-group words, and group-algebra matrices.

Group elements are freely reduced words; no word-problem solving happens
anywhere.  Equality of group elements is never needed by a rank computation,
only their images under a matrix representation (`repweights.evaluate`) or
a finite quotient (`rankfun.FiniteQuotientMap.push`).

`GroupAlgebraMatrix` is the one group-ring matrix type.  Each cell is the
dict `sum_terms` returns, key -> nonzero coefficient: the keys are words for
a presented group and hashable group elements for a finite one, so the
weight-module route and the finite-quotient route rank the same type.  The
library never multiplies group-ring elements; the test oracles do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .exactalg import Coeffish, FieldMismatchError, NumberField, StructuralError, flatten_rows

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)


@dataclass(frozen=True)
class Word:
    """Freely reduced word in the free group on indexed generators."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        for idx, exp in self.letters:
            if exp not in (1, -1):
                raise StructuralError("letter exponents must be +1 or -1")
            if idx < 0:
                raise StructuralError("negative generator index")
        for k in range(len(self.letters) - 1):
            (i, e), (j, f) = self.letters[k], self.letters[k + 1]
            if i == j and e == -f:
                raise StructuralError("word is not freely reduced")

    @property
    def length(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce(self.letters + other.letters)

    def max_generator(self) -> int:
        return max((i for i, _ in self.letters), default=-1)

    def __repr__(self) -> str:
        if not self.letters:
            return "<1>"
        return "".join(f"x{i}" if e == 1 else f"x{i}^-1" for i, e in self.letters)


IDENTITY_WORD = Word(())


def free_reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    stack: list[Letter] = []
    for idx, exp in letters:
        if exp not in (1, -1):
            raise StructuralError("letter exponents must be +1 or -1")
        if idx < 0:
            raise StructuralError("negative generator index")
        if stack and stack[-1][0] == idx and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((idx, exp))
    return Word(tuple(stack))


def word_from_string(text: str, generator_names: Sequence[str]) -> Word:
    """Parse a word in census letter notation: lowercase = generator,
    uppercase = its inverse.  Empty string is the identity."""
    index = {name: k for k, name in enumerate(generator_names)}
    letters: list[Letter] = []
    for ch in text.strip():
        low = ch.lower()
        if low not in index:
            raise StructuralError(f"unknown generator letter {ch!r}")
        letters.append((index[low], 1 if ch.islower() else -1))
    return free_reduce(letters)


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely presented group: generators by name, relators as reduced words.

    `central_involution` optionally names one generator that is a designated
    central element of order two (used by the parity admissibility gate).
    """

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    central_involution: Optional[int] = None

    def __post_init__(self):
        if len(set(self.generator_names)) != len(self.generator_names):
            raise StructuralError("generator names must be distinct")
        for name in self.generator_names:
            if not name or not name.isalpha() or not name.islower():
                raise StructuralError(f"generator name {name!r} must be a lowercase letter string")
        g = len(self.generator_names)
        for r in self.relators:
            if r.max_generator() >= g:
                raise StructuralError("relator references an unknown generator")
        if self.central_involution is not None and not (0 <= self.central_involution < g):
            raise StructuralError("central involution index out of range")

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @property
    def num_relators(self) -> int:
        return len(self.relators)


def sum_terms(field: NumberField, pairs: Iterable[tuple[Hashable, Coeffish]]) -> dict:
    """The formal sum of (key, coefficient) pairs as a dict key -> coefficient:
    each coefficient coerced into `field`, repeated keys added, keys whose sum
    is zero dropped, keys in first-seen order."""
    acc: dict = {}
    for key, c in pairs:
        c = field.coerce(c)
        acc[key] = acc[key] + c if key in acc else c
    return {key: c for key, c in acc.items() if c}


@dataclass(frozen=True)
class GroupAlgebraMatrix:
    """Matrix over the group algebra of a group with coefficients in one
    number field.  Each cell is a `sum_terms` dict key -> nonzero
    `FieldElement`: the keys are free-group `Word`s for a presented group,
    or hashable elements of a finite group (`FiniteQuotientMap.push`)."""

    field: NumberField
    rows: int
    cols: int
    entries: tuple[dict, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise StructuralError("entry count does not match shape")
        if any(c.field != self.field for cell in self.entries for c in cell.values()):
            raise FieldMismatchError("matrix entries over inconsistent fields")

    @staticmethod
    def from_rows(field: NumberField, rows: Sequence[Sequence[Mapping]]) -> "GroupAlgebraMatrix":
        """The matrix whose cells are the `sum_terms` of the given maps."""
        r, c, flat = flatten_rows(rows)
        return GroupAlgebraMatrix(field, r, c,
                                  tuple(sum_terms(field, cell.items()) for cell in flat))

    @staticmethod
    def single(field: NumberField, cell: Mapping) -> "GroupAlgebraMatrix":
        return GroupAlgebraMatrix.from_rows(field, [[cell]])

    def entry(self, i: int, j: int) -> dict:
        return self.entries[i * self.cols + j]

    def support(self) -> tuple:
        """Every key of every cell once, in first-seen row-major order."""
        return tuple(dict.fromkeys(key for cell in self.entries for key in cell))
