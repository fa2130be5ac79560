import math

import numpy as np
import pytest

from frechet_surfaces.scalar import (DEFAULT_TOL, DegeneratePolynomialError,
                                     Ordering, Tolerance, cmp, poly_eval,
                                     quadratic_roots, real_roots, within,
                                     within_mask)
from .oracles import bisection_roots


def test_cmp_examples():
    assert cmp(1.0, 1.0) == Ordering.EQUAL
    assert cmp(0.0, 1e-15, Tolerance(rel=1e-9, abs=1e-12)) == Ordering.EQUAL
    assert cmp(1.0, 1.001, Tolerance(rel=1e-9)) == Ordering.LESS
    assert cmp(2.0, 1.0) == Ordering.GREATER


def test_cmp_nan_rejected():
    with pytest.raises(ValueError):
        cmp(float("nan"), 0.0)


def test_infinite_values_equal_only_themselves():
    for x in (0.0, 1.0, -1e300, 1e300):
        assert not DEFAULT_TOL.eq(math.inf, x)
        assert not DEFAULT_TOL.eq(x, -math.inf)
        assert not within(math.inf, x)
        assert within(x, math.inf)
        assert within_mask(np.array([math.inf, x]), x).tolist() == [False, True]
    assert DEFAULT_TOL.eq(math.inf, math.inf)
    assert DEFAULT_TOL.eq(-math.inf, -math.inf)
    assert not DEFAULT_TOL.eq(math.inf, -math.inf)


def _around(x, n):
    """x and the n floats on either side of it."""
    out, up, down = [x], x, x
    for _ in range(n):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def test_within_mask_is_within_elementwise(rng):
    for tol in (DEFAULT_TOL, Tolerance(rel=1e-6, abs=0.0)):
        for eps in (0.0, 1e-12, 0.5, 1.0, 1e5, -0.5, math.inf):
            edges = (eps, eps + tol.abs, eps - tol.abs,
                     eps * (1.0 + tol.rel), eps * (1.0 - tol.rel))
            dist = [d for x in edges for d in _around(x, 40)]
            dist += [0.0, -0.0, math.inf, -math.inf]
            scale = max(1.0, abs(eps)) if math.isfinite(eps) else 1e300
            dist += (rng.uniform(-2.0, 2.0, 200) * scale).tolist()
            mask = within_mask(np.array([dist]), eps, tol)
            assert mask[0].tolist() == [within(d, eps, tol) for d in dist]
    nan = float("nan")
    for test in (lambda: within(nan, 1.0), lambda: within(0.0, nan),
                 lambda: within_mask(np.array([0.0, nan]), 1.0),
                 lambda: within_mask(np.array([0.0]), nan)):
        with pytest.raises(ValueError):
            test()


def test_tolerance_invariants():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=1e-9, abs=-1.0)


def test_sqrt2_root():
    roots = real_roots([-2.0, 0.0, 1.0], 0.0, 2.0)
    assert len(roots) == 1
    assert abs(roots[0] - math.sqrt(2.0)) < 1e-12


def test_factored_quartic():
    # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
    coeffs = [24.0, -50.0, 35.0, -10.0, 1.0]
    roots = real_roots(coeffs, 0.0, 5.0)
    assert len(roots) == 4
    for r, expect in zip(roots, [1.0, 2.0, 3.0, 4.0]):
        assert abs(r - expect) < 1e-9


def test_double_root_merged():
    # (x-1)^2 (x^2+1): double root at 1, no other real roots
    coeffs = [1.0, -2.0, 2.0, -2.0, 1.0]
    roots = real_roots(coeffs, -3.0, 3.0)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-6


def test_degenerate_polynomial_rejected():
    with pytest.raises(DegeneratePolynomialError):
        real_roots([0.0, 0.0, 0.0], 0.0, 1.0)


def test_interval_restriction():
    roots = real_roots([24.0, -50.0, 35.0, -10.0, 1.0], 1.5, 3.5)
    assert len(roots) == 2
    assert abs(roots[0] - 2.0) < 1e-9 and abs(roots[1] - 3.0) < 1e-9


def test_random_quartics_match_bisection_oracle(rng):
    for _ in range(40):
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=5)]
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] = 1e-3
        mine = real_roots(coeffs, -3.0, 3.0)
        oracle = bisection_roots(coeffs, -3.0, 3.0)
        # count equality whenever oracle roots are simple and well separated
        separated = all(b - a > 1e-6 for a, b in zip(oracle, oracle[1:]))
        if separated:
            assert len(mine) == len(oracle), (coeffs, mine, oracle)
            for a, b in zip(mine, oracle):
                assert abs(a - b) < 1e-9


def test_residual_invariant(rng):
    for _ in range(30):
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=5)]
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] = 1e-3
        mass = 1.0 + sum(abs(c) for c in coeffs)
        for r in real_roots(coeffs, -3.0, 3.0):
            assert abs(poly_eval(coeffs, r)) <= DEFAULT_TOL.rel * mass * 10


def test_sorted_output(rng):
    for _ in range(20):
        coeffs = [float(c) for c in rng.uniform(-1.0, 1.0, size=5)]
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] = 1e-3
        roots = real_roots(coeffs, -3.0, 3.0)
        assert roots == sorted(roots)


def test_quadratic_roots_stability():
    r = quadratic_roots(1.0, -3.0, 2.0)
    assert abs(r[0] - 1.0) < 1e-12 and abs(r[1] - 2.0) < 1e-12
    assert quadratic_roots(1.0, 0.0, 1.0) == []
    r = quadratic_roots(0.0, 2.0, -4.0)
    assert len(r) == 1 and abs(r[0] - 2.0) < 1e-12
