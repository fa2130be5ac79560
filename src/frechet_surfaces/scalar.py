"""Tolerance-policy comparisons and real-root isolation for low-degree polynomials.

Everything downstream (conic intersections, critical-value solving) funnels its
numeric decisions through this module so that the tolerance policy lives in one
place.  Polynomials are plain coefficient lists, lowest degree first.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class DegeneratePolynomialError(ValueError):
    """Raised when a polynomial is identically zero (to tolerance)."""


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute comparison tolerance.

    Two finite values compare equal when |a - b| <= max(abs, rel * max(|a|,
    |b|)); an infinite value equals only itself.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0.0):
            raise ValueError("rel tolerance must be positive")
        if self.abs < 0.0:
            raise ValueError("abs tolerance must be nonnegative")

    def eq(self, a, b):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= max(self.abs, self.rel * max(abs(a), abs(b)))

    def zero(self, a, scale=1.0):
        return abs(a) <= max(self.abs, self.rel * abs(scale))

    def gap(self, scale=1.0):
        """Width below which two values of the given scale are merged."""
        return max(self.abs, self.rel * max(1.0, abs(scale)))


DEFAULT_TOL = Tolerance()


def cmp(a, b, tol=DEFAULT_TOL):
    """Three-way tolerance comparison; NaN inputs are rejected."""
    if math.isnan(a) or math.isnan(b):
        raise ValueError("cmp: NaN input")
    if tol.eq(a, b):
        return Ordering.EQUAL
    return Ordering.LESS if a < b else Ordering.GREATER


def within(dist, eps, tol=DEFAULT_TOL):
    """Closed predicate: dist <= eps, with tolerance-equal counted inside."""
    return cmp(dist, eps, tol) != Ordering.GREATER


def within_mask(dist, eps, tol=DEFAULT_TOL):
    """within(d, eps, tol) for every d of the float array `dist`, as a boolean
    array: the same floats and tie rule, and NaN rejected as cmp rejects it."""
    if math.isnan(eps) or np.isnan(dist).any():
        raise ValueError("cmp: NaN input")
    with np.errstate(over="ignore", invalid="ignore"):    # inf - inf
        close = np.abs(dist - eps) <= np.maximum(
            tol.abs, tol.rel * np.maximum(np.abs(dist), abs(eps)))
    return (dist <= eps) | (close & np.isfinite(dist) & math.isfinite(eps))


def bisect_threshold(pred, lo, hi, tol=DEFAULT_TOL):
    """Bisect [lo, hi] for the flip of a monotone predicate, until the bracket
    is no wider than the tolerance at its scale; returns the final hi, at which
    pred is true.  pred(hi) is checked before the first split, and a false one
    raises ArithmeticError.  Serves compute's bisect mode and curve_compute."""
    if not pred(hi):
        raise ArithmeticError(f"decision false at the upper bound {hi!r}")
    while hi - lo > max(tol.abs, tol.rel * max(hi, 1.0)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Polynomial helpers (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------

def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_trim(coeffs, rel_floor=1e-14):
    """Drop numerically-zero leading coefficients. Empty list if all zero."""
    coeffs = list(coeffs)
    scale = max((abs(c) for c in coeffs), default=0.0)
    if scale == 0.0:
        return []
    cut = scale * rel_floor
    while coeffs and abs(coeffs[-1]) <= cut:
        coeffs.pop()
    return coeffs


def _bisect_root(coeffs, a, b, fa, fb):
    # fa, fb have opposite signs; plain bisection, deterministic.
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = poly_eval(coeffs, m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def real_roots(coeffs, lo, hi, tol=DEFAULT_TOL):
    """All real roots of a degree <= 4 polynomial in [lo, hi], sorted.

    Isolation works by recursing on the derivative: between consecutive
    stationary points the polynomial is monotone, so a sign change pins down
    exactly one root and bisection refines it.  Tangential (even-multiplicity)
    roots are picked up by the residual test at the stationary points
    themselves.  Roots closer than 10x the tolerance gap are merged.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("real_roots: interval bounds must be finite")
    if lo > hi:
        return []
    p = poly_trim(coeffs)
    if not p:
        raise DegeneratePolynomialError("degenerate polynomial (identically zero)")
    if len(p) - 1 > 4:
        raise ValueError("real_roots: degree > 4 unsupported")
    # Normalize scale so the residual threshold is meaningful.
    scale = max(abs(c) for c in p)
    p = [c / scale for c in p]
    deg = len(p) - 1
    if deg == 0:
        return []
    if deg == 1:
        r = -p[0] / p[1]
        return [r] if (lo - tol.gap(r)) <= r <= (hi + tol.gap(r)) else []

    crit = real_roots(poly_deriv(p), lo, hi, tol)
    pts = [lo] + [c for c in crit if lo < c < hi] + [hi]

    coeff_mass = 1.0 + sum(abs(c) for c in p)
    resid = max(tol.abs, tol.rel * coeff_mass)
    roots = []
    vals = [poly_eval(p, x) for x in pts]
    for x, v in zip(pts, vals):
        if abs(v) <= resid:
            roots.append(x)
    for (a, fa), (b, fb) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if abs(fa) <= resid or abs(fb) <= resid:
            continue  # endpoint already a root; interval is monotone
        if (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect_root(p, a, b, fa, fb))

    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 10.0 * tol.gap(r):
            continue
        merged.append(r)
    return merged


def quadratic_roots(a, b, c, tol=DEFAULT_TOL):
    """Real roots of a*x^2 + b*x + c, numerically-stable form, unsorted scale-aware.

    Returns [] when there is no real root; a single entry for a (near-)tangent
    double root; degenerate (a ~ 0) falls back to the linear case.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        raise DegeneratePolynomialError("degenerate polynomial (identically zero)")
    if abs(a) <= tol.rel * scale:
        if abs(b) <= tol.rel * scale:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -tol.rel * scale * scale * 4.0:
            return [-b / (2.0 * a)]
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b if b != 0.0 else 1.0))
    if q == 0.0:
        return [0.0] if c == 0.0 else [-b / (2.0 * a)]
    r1 = q / a
    r2 = c / q
    return sorted((r1, r2))
