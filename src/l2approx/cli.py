"""Command-line front end: one experiment per invocation, CSV + summary out.

CSV schema (all modes):

    mode,entry,lambda,min_lambda,dim_w,value_num,value_den,value_dec,target,error_dec

Rows are emitted in schedule order and runs are byte-deterministic for a
fixed configuration (random matrix sources require an explicit seed).  In
homology mode each weight produces three rows tagged homology:h0, homology:h1
and homology:h2.  In luck mode lambda is the modulus m of (Z/m)^g, min_lambda
is empty and dim_w is the quotient order |Q|; in harris mode lambda is the
level, min_lambda the quotient index and dim_w is empty.  Exact fractions are
always emitted alongside decimals; the decimals are presentation-only.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import typing
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import census, foxhomology, limitlab, padicharris, rankfun
from .exactalg import InvariantError, QQ, ScaledMatrix, StructuralError
from .groupcore import (GroupAlgebraMatrix, GroupPresentation, IDENTITY_WORD, free_reduce,
                        sum_terms, word_from_string)
from .limitlab import _dec
from .repweights import ParityError, WeightVector, weight_dim

_ENTRY_FIELDS = ("entry", "presentation", "representation")
_MATRIX_FIELDS = ("matrix", "matrix_file", "rows", "cols", "word_len", "seed")
# the ExperimentConfig fields each mode reads besides `mode` and `out`; any
# other field given by a flag or a config key is a ConfigError
MODE_FIELDS = {
    "homology": _ENTRY_FIELDS + ("weights", "direction"),
    "rank": _ENTRY_FIELDS + ("weights", "direction", "target") + _MATRIX_FIELDS,
    "limit": _ENTRY_FIELDS + ("weights", "direction", "degree", "target"),
    "luck": _ENTRY_FIELDS + ("quotients", "target") + _MATRIX_FIELDS,
    "harris": ("p", "levels", "element", "seed", "word_len", "target"),
}
# fields of MODE_FIELDS read only under one choice of a sub-choice field:
# sub-choice field -> choice -> the fields read only under it
CHOICE_FIELDS = {
    "matrix": {"file": ("matrix_file",), "random": ("rows", "cols", "word_len", "seed")},
    "element": {"random": ("seed", "word_len")},
}
# the fields of MODE_FIELDS each mode cannot run without, checked before its runner
REQUIRED_FIELDS = {"homology": ("weights",), "rank": ("weights",),
                   "limit": ("weights", "degree"), "luck": ("quotients",),
                   "harris": ("p", "levels")}
MODES = tuple(MODE_FIELDS)
MATRIX_SOURCES = ("fox-jacobian", "boundary-stack", "file", "random")
HARRIS_ELEMENTS = ("unipotent", "diagonal", "random")


class ConfigError(ValueError):
    pass


def _flag(default, help: Optional[str] = None, **argparse_kw):
    return dc_field(default=default, metadata=dict(argparse_kw, help=help))


@dataclass
class ExperimentConfig:
    """One experiment.  Every field is a config-file key and the flag of the
    same name with dashes for underscores; an `int` field's flag is typed
    `int`, and the field metadata holds the flag's other argparse keywords."""

    mode: str = _flag("", choices=MODES)
    entry: str = _flag("", "builtin census entry name")
    presentation: str = _flag("", "presentation file (with --representation)")
    representation: str = _flag("", "representation file (with --presentation)")
    weights: str = _flag("", metavar="START:END:STEP")
    direction: str = _flag("", "comma-separated weight direction, default all ones")
    degree: Optional[int] = _flag(None, choices=(0, 1, 2))
    matrix: str = _flag("", choices=MATRIX_SOURCES)
    matrix_file: str = ""
    rows: Optional[int] = None
    cols: Optional[int] = None
    word_len: Optional[int] = None
    seed: Optional[int] = None
    p: Optional[int] = None
    levels: str = _flag("", "comma list or START:END")
    quotients: str = _flag("", "comma list of cyclic moduli (luck mode)")
    element: str = _flag("", choices=HARRIS_ELEMENTS)
    target: str = _flag("", "rational comparison target")
    out: str = _flag("", "CSV output path")


# field name -> resolved type (str or Optional[int])
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# field name -> the values its flag accepts, for the fields that restrict them
_FIELD_CHOICES = {f.name: f.metadata["choices"] for f in dc_fields(ExperimentConfig)
                  if "choices" in f.metadata}


def parse_config_file(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"config key {key!r} is given twice")
        seen.add(key)
        if _FIELD_TYPES[key] is not str:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be an integer, got {value!r}") from None
        if key in _FIELD_CHOICES and value not in _FIELD_CHOICES[key]:
            raise ConfigError(f"config key {key!r} must be one of "
                              f"{', '.join(map(str, _FIELD_CHOICES[key]))}, got {value!r}")
        setattr(cfg, key, value)
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad flag as a `ConfigError`, so `main` prints it as one
    line, in place of the usage block and an exit from inside argparse."""

    def error(self, message: str):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="l2approx",
        description="exact rank / twisted homology / finite-quotient approximation experiments")
    ap.add_argument("--config", default=None, help="flat key=value config file; flags win on conflict")
    for f in dc_fields(ExperimentConfig):
        ap.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                        type=None if _FIELD_TYPES[f.name] is str else int, **f.metadata)
    return ap


def config_from_args(argv: Sequence[str]) -> ExperimentConfig:
    """The config file (or the defaults) with every flag given a value other
    than "" laid over it: flags win."""
    ns = build_arg_parser().parse_args(argv)
    given = {name: value for name, value in vars(ns).items()
             if name != "config" and value not in (None, "")}
    return replace(parse_config_file(ns.config) if ns.config else ExperimentConfig(), **given)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_weights(spec: str) -> range:
    m = re.fullmatch(r"(\d+):(\d+)(?::(\d+))?", spec)
    if not m:
        raise ConfigError(f"--weights must look like START:END:STEP, got {spec!r}")
    start, end = int(m.group(1)), int(m.group(2))
    step = int(m.group(3)) if m.group(3) else 1
    if start < 1 or end < start or step < 1:
        raise ConfigError("weights range must satisfy 1 <= START <= END with STEP >= 1")
    return range(start, end + 1, step)


def _parse_levels(spec: str) -> list[int]:
    if re.fullmatch(r"\d+:\d+", spec):
        a, b = (int(x) for x in spec.split(":"))
        if b < a:
            raise ConfigError(f"--levels START:END needs START <= END, got {spec!r}")
        return list(range(a, b + 1))
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError:
        raise ConfigError(f"--levels must be a comma list or START:END, got {spec!r}")


def _parse_direction(spec: str, n: int) -> tuple[int, ...]:
    if not spec:
        return (1,) * n
    try:
        out = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise ConfigError(f"--direction must be comma-separated integers, got {spec!r}")
    if len(out) != n:
        raise ConfigError(f"direction has {len(out)} entries for {n} factors")
    return out


def _fmt_lambda(lam: Sequence[int]) -> str:
    return "x".join(str(v) for v in lam)


def _csv_row(mode: str, entry: str, lam: str, min_lambda, dim_w, value,
             target=None, error=None) -> str:
    """One line in CSV_HEADER's column order: the value as an exact fraction
    plus its decimal, an absent target or error as an empty field."""
    v = Fraction(value)
    return ",".join([mode, entry, lam, str(min_lambda), str(dim_w), str(v.numerator),
                     str(v.denominator), _dec(v), "" if target is None else str(target),
                     "" if error is None else _dec(error)])


_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)?(?:\s*\*\s*)?([A-Za-z]+)?$")


def _parse_algebra_entry(text: str, names: Sequence[str], field, path: str) -> dict:
    """One matrix cell (`sum_terms`).  Entry grammar: terms joined by + or -,
    each term RATIONAL, WORD, RATIONAL*WORD, or 1 for the identity word."""
    text = text.strip()
    if not text or text == "0":
        return {}
    terms = []
    for chunk in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sgn = -1 if chunk.startswith("-") else 1
        m = _TERM_RE.match(chunk.lstrip("+-"))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ConfigError(f"matrix file {path}: cannot parse matrix term {chunk!r}")
        try:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        except ZeroDivisionError:
            raise ConfigError(f"matrix file {path}: zero denominator in term {chunk!r}") from None
        word = word_from_string(m.group(2), names) if m.group(2) else IDENTITY_WORD
        terms.append((word, sgn * coeff))
    return sum_terms(field, terms)


def parse_matrix_file(path: str, names: Sequence[str], field) -> GroupAlgebraMatrix:
    """One row per line, entries separated by ';'.  See _parse_algebra_entry."""
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([_parse_algebra_entry(cell, names, field, path) for cell in line.split(";")])
    if not rows:
        raise ConfigError(f"matrix file {path} contains no rows")
    return GroupAlgebraMatrix.from_rows(field, rows)


def random_matrix(names: Sequence[str], field, rows: int, cols: int,
                  word_len: int, seed: int) -> GroupAlgebraMatrix:
    """Seeded random matrix: up to three terms per entry, words of bounded
    length, coefficients in {-2..2}."""
    rng = random.Random(seed)
    g = len(names)
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(0, word_len)
                letters = [(rng.randrange(g), rng.choice((1, -1))) for _ in range(length)]
                terms.append((free_reduce(letters), rng.choice((-2, -1, 1, 2))))
            row.append(sum_terms(field, terms))
        out.append(row)
    return GroupAlgebraMatrix.from_rows(field, out)


def _resolve_entry(cfg: ExperimentConfig) -> census.CensusEntry:
    if cfg.entry and (cfg.presentation or cfg.representation):
        raise ConfigError("give either --entry or a --presentation/--representation pair, not both")
    if cfg.entry:
        try:
            return census.builtin_entry(cfg.entry)
        except KeyError as e:
            raise ConfigError(str(e))
    if cfg.presentation and cfg.representation:
        return census.load_entry(cfg.presentation, cfg.representation)
    raise ConfigError("an entry is required: --entry NAME or --presentation/--representation files")


def _build_matrix(cfg: ExperimentConfig, entry: census.CensusEntry) -> GroupAlgebraMatrix:
    source = cfg.matrix or "boundary-stack"
    names = entry.presentation.generator_names
    if source == "fox-jacobian":
        if entry.presentation.num_relators == 0:
            raise ConfigError("fox-jacobian source needs at least one relator")
        return foxhomology.fox_jacobian(entry.presentation, entry.field)
    if source == "boundary-stack":
        return foxhomology.boundary_stack(entry.presentation, entry.field)
    if source == "file":
        if not cfg.matrix_file:
            raise ConfigError("matrix source 'file' needs --matrix-file")
        return parse_matrix_file(cfg.matrix_file, names, entry.field)
    if source == "random":
        if cfg.seed is None:
            raise ConfigError("matrix source 'random' needs an explicit --seed")
        return random_matrix(names, entry.field,
                             2 if cfg.rows is None else cfg.rows,
                             2 if cfg.cols is None else cfg.cols,
                             4 if cfg.word_len is None else cfg.word_len, cfg.seed)
    raise ConfigError(f"unknown matrix source {source!r}")


def _schedule(cfg: ExperimentConfig, entry: census.CensusEntry) -> tuple[WeightVector, ...]:
    ks = _parse_weights(cfg.weights)
    direction = _parse_direction(cfg.direction, entry.rep.n)
    return limitlab.weight_schedule(direction, ks, rep=entry.rep)


def _parse_target(spec: str) -> Optional[Fraction]:
    if not spec:
        return None
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--target must be a rational such as 1/2, got {spec!r}") from None


def _error(value, target: Optional[Fraction]) -> Optional[Fraction]:
    return None if target is None else abs(value - target)


# ---------------------------------------------------------------------------
# modes: a runner returns (rows, summary lines); a row is _csv_row's arguments
# ---------------------------------------------------------------------------

CSV_HEADER = "mode,entry,lambda,min_lambda,dim_w,value_num,value_den,value_dec,target,error_dec"


def run_experiment(cfg: ExperimentConfig) -> tuple[str, str]:
    """Execute one experiment; returns (csv_text, summary_text)."""
    if cfg.mode not in MODES:
        raise ConfigError(f"--mode must be one of {', '.join(MODES)}")
    read = {"mode", "out", *MODE_FIELDS[cfg.mode]}
    for key, choices in CHOICE_FIELDS.items():
        if key in read:
            for choice, names in choices.items():
                if getattr(cfg, key) != choice:
                    read.difference_update(names)
    unread = [f.name for f in dc_fields(cfg) if getattr(cfg, f.name) != f.default
              and f.name not in read]
    missing = [name for name in REQUIRED_FIELDS[cfg.mode] if getattr(cfg, name) in (None, "")]
    for problem, names in (("does not read", unread), ("needs", missing)):
        if names:
            raise ConfigError(f"{cfg.mode} mode {problem} "
                              + ", ".join("--" + name.replace("_", "-") for name in names))
    for flag, value, least in (("--rows", cfg.rows, 1), ("--cols", cfg.cols, 1),
                               ("--word-len", cfg.word_len, 0)):
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    rows, summary = _RUNNERS[cfg.mode](cfg, _parse_target(cfg.target))
    return ("\n".join([CSV_HEADER] + [_csv_row(*row) for row in rows]) + "\n",
            "\n".join([f"mode: {cfg.mode}"] + summary) + "\n")


def _run_homology(cfg: ExperimentConfig, target: Optional[Fraction]) -> tuple[list, list[str]]:
    entry = _resolve_entry(cfg)
    sched = _schedule(cfg, entry)
    rows = []
    summary = [f"entry: {entry.name}",
               f"h2 interpretation: {'group homology (aspherical)' if entry.aspherical else '2-complex homology'}"]
    for lam in sched:
        rpt = foxhomology.homology_dims(entry.presentation, entry.rep, lam)
        expected = entry.expected_dims(lam)
        for i, h in enumerate(rpt.dims()):
            tgt = None if expected is None else expected[i]
            rows.append((f"homology:h{i}", entry.name, _fmt_lambda(lam), min(lam), rpt.d, h, tgt,
                         _error(h, tgt)))
        summary.append(f"lambda={_fmt_lambda(lam)} d={rpt.d} dims={rpt.dims()} "
                       f"rank_j={rpt.rank_j} rank_d={rpt.rank_d}"
                       + ("" if expected is None else f" expected={expected}"))
    return rows, summary


def _run_rank(cfg: ExperimentConfig, target: Optional[Fraction]) -> tuple[list, list[str]]:
    entry = _resolve_entry(cfg)
    sched = _schedule(cfg, entry)
    a = _build_matrix(cfg, entry)
    rows = []
    summary = [f"entry: {entry.name}",
               f"matrix: {cfg.matrix or 'boundary-stack'} ({a.rows}x{a.cols})"]
    for lam in sched:
        v = rankfun.sylvester_rank(a, entry.rep, lam)
        rows.append(("rank", entry.name, _fmt_lambda(lam), min(lam), weight_dim(lam), v, target,
                     _error(v, target)))
        summary.append(f"lambda={_fmt_lambda(lam)} rank={v} ({_dec(v)})")
    if len(rows) >= limitlab.MIN_FIT_POINTS:
        try:
            fit = limitlab.convergence_fit([(r[3], r[5]) for r in rows], target=target, lams=sched)
            summary.append("fit:")
            summary.extend("  " + ln for ln in fit.summary().splitlines())
        except ValueError as e:
            summary.append(f"fit: skipped ({e})")
    return rows, summary


def _run_limit(cfg: ExperimentConfig, target: Optional[Fraction]) -> tuple[list, list[str]]:
    entry = _resolve_entry(cfg)
    sched = _schedule(cfg, entry)
    if target is None and entry.targets is not None:
        target = entry.targets[cfg.degree]
    rpt = limitlab.betti_estimate(entry.presentation, entry.rep, sched, cfg.degree, target=target)
    rows = [("limit", entry.name, _fmt_lambda(pt.lam), pt.min_lambda, weight_dim(pt.lam),
             pt.value, target, pt.error) for pt in rpt.points]
    return rows, [f"entry: {entry.name}", f"degree: {cfg.degree}", *rpt.summary().splitlines()]


def _run_luck(cfg: ExperimentConfig, target: Optional[Fraction]) -> tuple[list, list[str]]:
    entry = _resolve_entry(cfg)
    try:
        moduli = [int(x) for x in cfg.quotients.split(",")]
    except ValueError:
        raise ConfigError(f"--quotients must be a comma list of integers, got {cfg.quotients!r}")
    if any(m < 1 for m in moduli):
        raise ConfigError("quotient moduli must be positive")
    if any(a >= b for a, b in zip(moduli, moduli[1:])):
        raise ConfigError(f"--quotients must be strictly increasing, got {cfg.quotients!r}")
    a = _build_matrix(cfg, entry)
    # every quotient map, and so every relator check, before the first rank
    chain = [rankfun.cyclic_power_quotient(entry.presentation, m) for m in moduli]
    rows = []
    summary = [f"entry: {entry.name}",
               f"matrix: {cfg.matrix or 'boundary-stack'} ({a.rows}x{a.cols})"]
    for m, q in zip(moduli, chain):
        v = rankfun.luck_rank(a, q)
        rows.append(("luck", entry.name, str(m), "", q.order, v, target, _error(v, target)))
        summary.append(f"quotient={q.name} order={q.order} value={v} ({_dec(v)})"
                       + ("" if target is None else f" error={_error(v, target)}"))
    return rows, summary


def _run_harris(cfg: ExperimentConfig, target: Optional[Fraction]) -> tuple[list, list[str]]:
    levels = _parse_levels(cfg.levels)
    element = cfg.element or "unipotent"
    if element == "random":
        if cfg.seed is None:
            raise ConfigError("harris element 'random' needs an explicit --seed")
        pres = GroupPresentation(("u", "l"), ())
        images = [[ScaledMatrix.from_rows(QQ, [[1, cfg.p], [0, 1]])],
                  [ScaledMatrix.from_rows(QQ, [[1, 0], [cfg.p, 1]])]]
        a = random_matrix(pres.generator_names, QQ, 1, 1,
                          3 if cfg.word_len is None else cfg.word_len, cfg.seed)
        label = f"random short-support element (seed {cfg.seed})"
    else:
        pres = GroupPresentation(("t",), ())
        images = (padicharris.unipotent_element_images if element == "unipotent"
                  else padicharris.diagonal_element_images)(cfg.p)
        a = foxhomology.boundary_stack(pres, images[0][0].field)
        label = f"{element} t-1"
    if target is None:
        # a is 1x1; known limit: 1 for a nonzero element, 0 for the zero element
        target = Fraction(1 if a.entries[0] else 0)
    seq = padicharris.harris_sequence(a, pres, images, cfg.p, levels, target=target)
    rows = [("harris", element, str(r.level), r.index, "", r.value, target, r.error) for r in seq]
    summary = [f"p: {cfg.p}", f"element: {label}",
               "level  index  value  envelope=index^(-1/3n)  error"]
    summary.extend(f"{r.level}  {r.index}  {r.value}  {r.envelope}  "
                   f"{'' if r.error is None else r.error}" for r in seq)
    return rows, summary


_RUNNERS = {"homology": _run_homology, "rank": _run_rank, "limit": _run_limit,
            "luck": _run_luck, "harris": _run_harris}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = config_from_args(argv)
        csv_text, summary_text = run_experiment(cfg)
    except (ConfigError, StructuralError, ParityError, census.CensusFormatError,
            rankfun.MemoryCapError, ValueError, KeyError, OSError) as e:
        kind = type(e).__name__
        print(f"error: {kind}: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"error: InvariantError: {e}", file=sys.stderr)
        return 3
    if cfg.out:
        out = Path(cfg.out)
        out.write_text(csv_text)
        summary_path = out.with_suffix(out.suffix + ".summary.txt")
        summary_path.write_text(summary_text)
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(summary_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
