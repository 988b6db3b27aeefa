"""Weight schedules, convergence estimation, and normalized Betti estimates.

A weight schedule is a plain tuple of admissible weights k * direction for
increasing k, which `betti_estimate` takes as given.

The error model along a weight schedule is first-order in the reciprocal of
the smallest factor dimension: with s = min(lambda) + 1,

    value ~ limit + a / s        and        error ~ C / s.

The rate exponent is the least-squares slope of log(error) against log(s).
Limits in the no-target fit are solved exactly (Fraction normal equations);
only the log-log slope uses floats, and only for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import InvariantError, StructuralError
from .foxhomology import homology_dims
from .groupcore import GroupPresentation
from .repweights import RepAssignment, WeightVector

MIN_FIT_POINTS = 4


def weight_schedule(direction: Sequence[int], ks: Sequence[int],
                    rep: Optional[RepAssignment] = None) -> tuple[WeightVector, ...]:
    """Admissible weights lambda(k) = k * direction for increasing k.

    With `rep` given, weights failing the representation's parity gate are
    dropped.  An empty result is an error.
    """
    direction = tuple(direction)
    if not direction or any(v < 1 for v in direction):
        raise StructuralError("direction entries must be positive integers")
    ks = tuple(ks)
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise StructuralError("k values must be strictly increasing")
    weights = []
    for k in ks:
        if k < 1:
            raise StructuralError("k values must be positive")
        lam = tuple(k * v for v in direction)
        if rep is None or rep.is_admissible(lam):
            weights.append(lam)
    if not weights:
        raise ValueError("no admissible weights remain after parity filtering")
    return tuple(weights)


@dataclass(frozen=True)
class ConvergencePoint:
    lam: Optional[WeightVector]
    min_lambda: int
    value: Fraction
    error: Optional[Fraction]  # None when no reference value applies


@dataclass(frozen=True)
class ConvergenceReport:
    points: tuple[ConvergencePoint, ...]
    target: Optional[Fraction]
    fitted_limit: Optional[Fraction]  # exact, from the 1/s model (no-target mode)
    fitted_exponent: Optional[float]
    exact: bool  # every error is exactly zero

    def summary(self) -> str:
        lines = []
        if self.target is not None:
            lines.append(f"target: {self.target} ({_dec(self.target)})")
        if self.fitted_limit is not None:
            lines.append(f"fitted limit: {self.fitted_limit} ({_dec(self.fitted_limit)})")
        if self.exact:
            lines.append("errors: exact (all zero)")
        if self.fitted_exponent is not None:
            lines.append(f"fitted rate exponent: {self.fitted_exponent:.6f}")
        lines.append("points:")
        for pt in self.points:
            lam = "" if pt.lam is None else "x".join(str(v) for v in pt.lam)
            err = "exact" if pt.error == 0 else ("" if pt.error is None else f"{pt.error} ({_dec(pt.error)})")
            lines.append(f"  lambda={lam or pt.min_lambda} min={pt.min_lambda} "
                         f"value={pt.value} ({_dec(pt.value)}) error={err}")
        return "\n".join(lines)


def _dec(x: Fraction) -> str:
    return f"{float(x):.12g}"


def _loglog_slope(points: Sequence[tuple[int, Fraction]]) -> float:
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(float(e)) for _, e in points]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("rate fit needs at least two distinct scales")
    return sxy / sxx


def convergence_fit(points: Sequence[tuple[int, Fraction]],
                    target: Optional[Fraction] = None,
                    lams: Optional[Sequence[WeightVector]] = None) -> ConvergenceReport:
    """Fit the limit and first-order rate of a (min lambda, value) series.

    Target mode: errors are |value - target| exactly; zero errors are marked
    exact and excluded from the rate fit.  No-target mode: solve
    value = c + a/(min lambda + 1) by exact least squares and report c as the
    limit; errors are distances to c.  At least four points are required.
    """
    if len(points) < MIN_FIT_POINTS:
        raise ValueError(f"convergence fit needs at least {MIN_FIT_POINTS} points")
    if lams is not None and len(lams) != len(points):
        raise StructuralError("lambda annotations do not match the points")
    pts = [(int(m), Fraction(v)) for m, v in points]
    if target is not None:
        target = Fraction(target)
        errors = [abs(v - target) for _, v in pts]
        fitted_limit = None
    else:
        fitted_limit = _fit_limit(pts)
        errors = [abs(v - fitted_limit) for _, v in pts]
        if all(e == 0 for e in errors):
            raise ValueError("constant series with no target: nothing to fit")
    nonzero = [(m + 1, e) for (m, _), e in zip(pts, errors) if e != 0]
    exponent = _loglog_slope(nonzero) if len(nonzero) >= 2 else None
    out_points = tuple(
        ConvergencePoint(None if lams is None else tuple(lams[i]), pts[i][0], pts[i][1], errors[i])
        for i in range(len(pts)))
    return ConvergenceReport(out_points, target, fitted_limit,
                             exponent, all(e == 0 for e in errors))


def _fit_limit(pts: Sequence[tuple[int, Fraction]]) -> Fraction:
    # exact normal equations for value = c + a * u with u = 1/(min lambda + 1)
    n = Fraction(len(pts))
    su = suu = sv = suv = Fraction(0)
    for m, v in pts:
        u = Fraction(1, m + 1)
        su += u
        suu += u * u
        sv += v
        suv += u * v
    det = n * suu - su * su
    if det == 0:
        raise ValueError("degenerate fit: scales are not distinct")
    return (sv * suu - su * suv) / det


def betti_estimate(p: GroupPresentation, rep: RepAssignment, weights: Sequence[WeightVector],
                   degree: int, target: Optional[Fraction] = None) -> ConvergenceReport:
    """Normalized homology dimensions h_degree / dim W at the given weights
    (a `weight_schedule`), fed to the convergence fit."""
    if degree not in (0, 1, 2):
        raise StructuralError("homology degree must be 0, 1 or 2")
    pts = []
    for lam in weights:
        rpt = homology_dims(p, rep, lam)
        value = Fraction(rpt.dims()[degree], rpt.d)
        if value > p.num_generators and p.num_generators > 0:
            raise InvariantError(f"normalized value {value} at weight {lam} escapes the "
                                 f"middle-term bound {p.num_generators}")
        pts.append((min(lam), value))
    return convergence_fit(pts, target=target, lams=weights)
