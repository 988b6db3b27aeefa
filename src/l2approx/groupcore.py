"""Finitely presented groups, free-group words, and group-algebra matrices.

Group elements are freely reduced words; no word-problem solving happens
anywhere.  Equality of group elements is never needed by a rank computation,
only their images under a matrix representation (`repweights.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .exactalg import (Coeffish, FieldElement, FieldMismatchError, NumberField,
                       StructuralError, flatten_rows)

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
class GroupAlgebraElement:
    """Finite formal sum of words with coefficients in one number field."""

    field: NumberField
    terms: tuple[tuple[Word, FieldElement], ...]  # sorted, no zero coefficients

    @staticmethod
    def from_terms(field: NumberField, pairs: Iterable[tuple[Word, Coeffish]]) -> "GroupAlgebraElement":
        """The sum of (word, coefficient) pairs (see `sum_terms`), words sorted."""
        ordered = sorted(sum_terms(field, pairs).items(),
                         key=lambda t: (t[0].length, t[0].letters))
        return GroupAlgebraElement(field, tuple(ordered))

    @staticmethod
    def zero(field: NumberField) -> "GroupAlgebraElement":
        return GroupAlgebraElement(field, ())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.field != other.field:
            raise FieldMismatchError("sum over different fields")
        return GroupAlgebraElement.from_terms(self.field, self.terms + other.terms)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.field, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.field != other.field:
            raise FieldMismatchError("product over different fields")
        return GroupAlgebraElement.from_terms(
            self.field, ((w1 * w2, c1 * c2) for w1, c1 in self.terms for w2, c2 in other.terms))


@dataclass(frozen=True)
class GroupAlgebraMatrix:
    field: NumberField
    rows: int
    cols: int
    entries: tuple[GroupAlgebraElement, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise StructuralError("entry count does not match shape")
        for e in self.entries:
            if e.field != self.field:
                raise FieldMismatchError("matrix entries over inconsistent fields")

    @staticmethod
    def from_rows(field: NumberField, rows: Sequence[Sequence[GroupAlgebraElement]]) -> "GroupAlgebraMatrix":
        r, c, flat = flatten_rows(rows)
        return GroupAlgebraMatrix(field, r, c, tuple(flat))

    @staticmethod
    def single(elem: GroupAlgebraElement) -> "GroupAlgebraMatrix":
        return GroupAlgebraMatrix(elem.field, 1, 1, (elem,))

    def entry(self, i: int, j: int) -> GroupAlgebraElement:
        return self.entries[i * self.cols + j]

    def __mul__(self, other: "GroupAlgebraMatrix") -> "GroupAlgebraMatrix":
        if self.field != other.field:
            raise FieldMismatchError("matrix product over different fields")
        if self.cols != other.rows:
            raise StructuralError("inner dimensions do not match")
        z = GroupAlgebraElement.zero(self.field)
        flat = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entry(i, k)
                    if a:
                        b = other.entry(k, j)
                        if b:
                            acc = acc + a * b
                flat.append(acc)
        return GroupAlgebraMatrix(self.field, self.rows, other.cols, tuple(flat))

    def support(self) -> tuple[Word, ...]:
        seen: dict[Word, None] = {}
        for e in self.entries:
            for w in e.support():
                seen.setdefault(w, None)
        return tuple(seen)

