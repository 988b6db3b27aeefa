"""Shipped example groups with validated representations, and ingestion of
user-supplied presentation/representation files.

File formats (exact grammar; parsing is byte-deterministic, `#` starts a
comment line, blank lines are ignored):

Presentation file::

    name: figure-eight
    generators: a b
    relator: aBAbabABab          # uppercase letters are inverses; repeatable
    central-involution: g        # optional, must be a generator name
    aspherical: true             # optional, default false
    cusps: 1                     # optional manifold metadata
    euler: 0                     # optional manifold metadata
    targets: 0 0 0               # optional known (b0, b1, b2), rationals
    provenance: free text        # optional

Representation file::

    field: 1 -1 1                # minpoly coefficients, constant first, monic
    factors: 1                   # number of SL2 factors (default 1)
    image: a 1 : 1 ; 1 ; 0 ; 1   # generator, factor index (1-based), then the
                                 # four entries a;b;c;d, each a comma-separated
                                 # rational coefficient vector in the power
                                 # basis (missing high coefficients are zero);
                                 # one line per generator and factor

Only `relator:` and `image:` lines repeat; any other key given twice is a
`CensusFormatError`.

Validation on load: relators freely reduce, every generator image has
determinant exactly 1, every relator evaluates to +-Identity per factor, all
entries lie in the declared field, and the minimal polynomial passes an
irreducibility certification (rational-root test in low degree, factor degree
patterns modulo several primes otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .exactalg import NumberField, ScaledMatrix
from .groupcore import GroupPresentation, word_from_string
from .modp import factor_degrees
from .repweights import RepAssignment, validate_weight

_BUILTIN_FILES = {
    "figure-eight": "figure_eight",
    "whitehead": "whitehead",
    "sanov-f2": "sanov_f2",
    "z-unipotent": "z_unipotent",
    "c2-central": "c2_central",
    "z2-lattice": "z2_lattice",
}


class CensusFormatError(ValueError):
    """Malformed presentation or representation file."""


@dataclass(frozen=True)
class CensusEntry:
    name: str
    presentation: GroupPresentation
    rep: RepAssignment
    field: NumberField
    aspherical: bool
    targets: Optional[tuple[Fraction, Fraction, Fraction]]  # known (b0, b1, b2)
    cusps: Optional[int]
    euler: Optional[int]
    provenance: str

    def expected_dims(self, lam: Sequence[int]) -> Optional[tuple[int, int, int]]:
        """Closed-form homology dimensions for cusped-manifold entries with
        every weight even and exactly one weight nonzero: (0, k - d * euler, k),
        for k cusps and module dimension d.  None when the entry carries no
        manifold metadata, some weight is odd, every weight is 0 (the trivial
        module, where h0 = 1 and the closed form does not hold), or two or more
        weights are nonzero (where cuspidal classes can add to h1: a two-factor
        figure-eight has h1 = 2 at (6, 6))."""
        lam = validate_weight(lam)
        if self.cusps is None or self.euler is None:
            return None
        if any(l % 2 for l in lam) or sum(1 for l in lam if l) != 1:
            return None
        d = math.prod(l + 1 for l in lam)
        return (0, self.cusps - d * self.euler, self.cusps)


def _key_values(text: str, path: str, repeatable: str) -> Iterator[tuple[str, str]]:
    """The (key, value) pairs of the file's non-comment lines, in order; a
    key other than `repeatable` given a second time is refused."""
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CensusFormatError(f"{path}: expected 'key: value', got {line!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in seen and key != repeatable:
            raise CensusFormatError(f"{path}: repeated key {key!r}")
        seen.add(key)
        yield key, value


def _rational(text: str, path: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CensusFormatError(f"{path}: zero denominator in {text!r}") from None
    except ValueError:
        raise CensusFormatError(f"{path}: {text!r} is not a rational") from None


def _integer(text: str, path: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CensusFormatError(f"{path}: {key} must be an integer, got {text!r}") from None


def parse_presentation(text: str, path: str = "<presentation>") -> dict:
    """Parse a presentation file into a metadata dict (relators still raw)."""
    meta = {"name": None, "generators": None, "relators": [], "central": None,
            "aspherical": False, "cusps": None, "euler": None, "targets": None,
            "provenance": ""}
    for key, value in _key_values(text, path, "relator"):
        if key == "name":
            meta["name"] = value
        elif key == "generators":
            names = tuple(value.split())
            if not names:
                raise CensusFormatError(f"{path}: empty generator list")
            for n in names:
                # relators are parsed per character with uppercase = inverse
                if len(n) != 1 or not n.isalpha() or not n.islower():
                    raise CensusFormatError(
                        f"{path}: generator {n!r} must be a single lowercase letter")
            meta["generators"] = names
        elif key == "relator":
            meta["relators"].append(value)
        elif key == "central-involution":
            meta["central"] = value
        elif key == "aspherical":
            if value not in ("true", "false"):
                raise CensusFormatError(f"{path}: aspherical must be true or false")
            meta["aspherical"] = value == "true"
        elif key == "cusps":
            meta["cusps"] = _integer(value, path, key)
            if meta["cusps"] < 0:
                raise CensusFormatError(f"{path}: cusps must be >= 0, got {value}")
        elif key == "euler":
            meta["euler"] = _integer(value, path, key)
        elif key == "targets":
            parts = value.split()
            if len(parts) != 3:
                raise CensusFormatError(f"{path}: targets needs three rationals")
            meta["targets"] = tuple(_rational(p, path) for p in parts)
        elif key == "provenance":
            meta["provenance"] = value
        else:
            raise CensusFormatError(f"{path}: unknown key {key!r}")
    if meta["generators"] is None:
        raise CensusFormatError(f"{path}: missing generators line")
    return meta


def build_presentation(meta: dict, path: str = "<presentation>") -> GroupPresentation:
    names = meta["generators"]
    relators = tuple(word_from_string(r, names) for r in meta["relators"])
    central = None
    if meta["central"] is not None:
        if meta["central"] not in names:
            raise CensusFormatError(f"{path}: central involution {meta['central']!r} is not a generator")
        central = names.index(meta["central"])
    return GroupPresentation(names, relators, central)


def parse_representation(text: str, generator_names: Sequence[str],
                         path: str = "<representation>") -> tuple[NumberField, list[list[ScaledMatrix]]]:
    field: Optional[NumberField] = None
    factors = 1
    images: dict[tuple[str, int], ScaledMatrix] = {}
    for key, value in _key_values(text, path, "image"):
        if key == "field":
            coeffs = tuple(_rational(p, path) for p in value.split())
            field = NumberField(coeffs)
            _certify_irreducible(field.minpoly, path)
        elif key == "factors":
            factors = _integer(value, path, key)
            if factors < 1:
                raise CensusFormatError(f"{path}: factors must be >= 1")
        elif key == "image":
            if field is None:
                raise CensusFormatError(f"{path}: image line before field line")
            head, _, body = value.partition(":")
            parts = head.split()
            if len(parts) != 2:
                raise CensusFormatError(f"{path}: image head must be '<generator> <factor>'")
            gen, fj = parts[0], _integer(parts[1], path, "image factor")
            if gen not in generator_names:
                raise CensusFormatError(f"{path}: image for unknown generator {gen!r}")
            if (gen, fj) in images:
                raise CensusFormatError(f"{path}: second image for generator {gen!r} factor {fj}")
            cells = [c.strip() for c in body.split(";")]
            if len(cells) != 4:
                raise CensusFormatError(f"{path}: image needs exactly four entries a;b;c;d")
            vals = []
            for cell in cells:
                coeffs = [_rational(c.strip(), path) for c in cell.split(",")] if cell else [0]
                vals.append(field.element(coeffs))
            images[(gen, fj)] = ScaledMatrix.from_rows(field, [vals[:2], vals[2:]])
        else:
            raise CensusFormatError(f"{path}: unknown key {key!r}")
    if field is None:
        raise CensusFormatError(f"{path}: missing field line")
    for gen, fj in images:
        if not 1 <= fj <= factors:
            raise CensusFormatError(
                f"{path}: image for generator {gen!r} names factor {fj}, outside 1..{factors}")
    table: list[list[ScaledMatrix]] = []
    for gen in generator_names:
        row = []
        for fj in range(1, factors + 1):
            if (gen, fj) not in images:
                raise CensusFormatError(f"{path}: missing image for generator {gen!r} factor {fj}")
            row.append(images[(gen, fj)])
        table.append(row)
    return field, table


def load_entry(presentation_path: Union[str, Path],
               representation_path: Union[str, Path]) -> CensusEntry:
    """Load and validate a presentation/representation file pair."""
    pres_text = Path(presentation_path).read_text()
    rep_text = Path(representation_path).read_text()
    return load_entry_text(pres_text, rep_text,
                           pres_path=str(presentation_path), rep_path=str(representation_path))


def load_entry_text(pres_text: str, rep_text: str,
                    pres_path: str = "<presentation>", rep_path: str = "<representation>") -> CensusEntry:
    meta = parse_presentation(pres_text, pres_path)
    presentation = build_presentation(meta, pres_path)
    field, images = parse_representation(rep_text, presentation.generator_names, rep_path)
    rep = RepAssignment.build(presentation, images)
    if not meta["name"]:
        raise CensusFormatError(f"{pres_path}: entry has no name")
    return CensusEntry(meta["name"], presentation, rep, field, meta["aspherical"],
                       meta["targets"], meta["cusps"], meta["euler"], meta["provenance"])


def _builtin_text(stem: str, suffix: str) -> str:
    return resources.files("l2approx.data").joinpath(f"{stem}.{suffix}").read_text()


def builtin_entry(name: str) -> CensusEntry:
    if name not in _BUILTIN_FILES:
        raise KeyError(f"unknown builtin entry {name!r}; available: {', '.join(sorted(_BUILTIN_FILES))}")
    stem = _BUILTIN_FILES[name]
    return load_entry_text(_builtin_text(stem, "pres"), _builtin_text(stem, "rep"),
                           pres_path=f"{stem}.pres", rep_path=f"{stem}.rep")


def builtin_catalog() -> list[CensusEntry]:
    """All shipped entries, each validated on load."""
    return [builtin_entry(name) for name in _BUILTIN_FILES]


# ---------------------------------------------------------------------------
# minimal polynomial irreducibility certification
# ---------------------------------------------------------------------------

_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _certify_irreducible(minpoly: Sequence[Fraction], path: str) -> None:
    deg = len(minpoly) - 1
    if deg == 1:
        return
    den = math.lcm(*(c.denominator for c in minpoly))
    ipoly = [int(c * den) for c in minpoly]
    g = math.gcd(*(abs(c) for c in ipoly))
    if g > 1:
        ipoly = [c // g for c in ipoly]
    if _has_rational_root(ipoly):
        raise CensusFormatError(f"{path}: reducible minpoly (rational root found)")
    if deg <= 3:
        return  # no rational root settles degree 2 and 3
    possible = set(range(1, deg))
    for p in _CERT_PRIMES:
        degrees = factor_degrees(ipoly, p)
        if degrees is None:
            continue
        sums = _subset_sums(degrees)
        possible &= sums
        if not possible:
            return
    raise CensusFormatError(
        f"{path}: could not certify the minpoly irreducible modulo {_CERT_PRIMES}")


def _has_rational_root(ipoly: list[int]) -> bool:
    if ipoly[0] == 0:
        return True  # x divides
    for pn in _divisors(abs(ipoly[0])):
        for qd in _divisors(abs(ipoly[-1])):
            for num in (pn, -pn):
                # evaluate at num/qd exactly
                val = Fraction(0)
                x = Fraction(num, qd)
                for c in reversed(ipoly):
                    val = val * x + c
                if val == 0:
                    return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            if k != n // k:
                out.append(n // k)
        k += 1
    return sorted(out)


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums
