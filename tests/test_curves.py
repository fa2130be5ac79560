import math

import numpy as np
import pytest

from frechet_surfaces import (DEFAULT_TOL, CurvePairGeometry, PolyCurve,
                              Tolerance, curve_compute, curve_decide_frechet,
                              curve_decide_weak, discrete_frechet)
from frechet_surfaces.curves import (_free_intervals, _projection_pieces,
                                     curve_freespace_svg)
from frechet_surfaces.geometry import closest_segment_segment
from .conftest import random_polycurve
from .oracles import rasterized_curve_decide


def seg(a, b):
    return PolyCurve.create([a, b])


def test_identical_segment_zero():
    f = seg((0.0, 0.0), (1.0, 0.0))
    assert curve_decide_frechet(f, f, 0.0)
    assert curve_decide_weak(f, f, 0.0)
    assert curve_compute(f, f, "frechet") <= 1e-12
    assert curve_compute(f, f, "weak") <= 1e-12


def test_parallel_offset_threshold():
    f = seg((0.0, 0.0), (1.0, 0.0))
    g = seg((0.0, 1.0), (1.0, 1.0))
    assert curve_decide_frechet(f, g, 1.0)
    assert not curve_decide_frechet(f, g, 0.99)
    assert curve_decide_weak(f, g, 1.0)
    assert not curve_decide_weak(f, g, 0.99)
    assert abs(curve_compute(f, g, "frechet") - 1.0) < 1e-9
    assert abs(curve_compute(f, g, "weak") - 1.0) < 1e-9


def test_zigzag_weak_at_amplitude():
    f = seg((0.0, 0.0), (4.0, 0.0))
    g = PolyCurve.create([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, 0.5),
                          (4.0, 0.0)])
    assert curve_decide_weak(f, g, 0.5)
    assert not curve_decide_weak(f, g, 0.2)


def test_detour_pair_weak_below_strong():
    # straight segment vs a curve that doubles back close to it
    f = seg((0.0, 0.0), (6.0, 0.0))
    g = PolyCurve.create([(0.0, 0.0), (4.0, 0.2), (1.0, 0.4), (6.0, 0.0)])
    weak = curve_compute(f, g, "weak")
    strong = curve_compute(f, g, "frechet")
    assert weak < strong - 0.1
    # bisection results agree with their own decisions at the flip
    assert curve_decide_weak(f, g, weak + 1e-6)
    assert not curve_decide_weak(f, g, weak * (1 - 1e-6) - 1e-9)
    assert curve_decide_frechet(f, g, strong + 1e-6)
    assert not curve_decide_frechet(f, g, strong * (1 - 1e-6) - 1e-9)


def test_weak_le_strong_random(rng):
    for _ in range(10):
        f = random_polycurve(rng, n_vertices=int(rng.integers(2, 6)))
        g = random_polycurve(rng, n_vertices=int(rng.integers(2, 6)))
        w = curve_compute(f, g, "weak")
        s = curve_compute(f, g, "frechet")
        assert w <= s + 1e-8
        # weak true whenever frechet true
        for eps in (s, s * 1.2 + 0.01):
            if curve_decide_frechet(f, g, eps):
                assert curve_decide_weak(f, g, eps)


def test_decisions_monotone(rng):
    for _ in range(5):
        f = random_polycurve(rng, n_vertices=4)
        g = random_polycurve(rng, n_vertices=5)
        probes = sorted(float(x) for x in rng.uniform(0.01, 4.0, size=10))
        for dec in (curve_decide_frechet, curve_decide_weak):
            verdicts = [dec(f, g, e) for e in probes]
            for a, b in zip(verdicts, verdicts[1:]):
                assert (not a) or b


def test_reversal_invariances(rng):
    for _ in range(5):
        f = random_polycurve(rng, n_vertices=4)
        g = random_polycurve(rng, n_vertices=4)
        s = curve_compute(f, g, "frechet")
        s_rev = curve_compute(f.reversed(), g.reversed(), "frechet")
        assert abs(s - s_rev) < 1e-7
        w = curve_compute(f, g, "weak")
        for fr in (f, f.reversed()):
            for gr in (g, g.reversed()):
                assert abs(curve_compute(fr, gr, "weak") - w) < 1e-7


def test_discrete_frechet_upper_bound_and_refinement(rng):
    for _ in range(6):
        f = random_polycurve(rng, n_vertices=4)
        g = random_polycurve(rng, n_vertices=4)
        s = curve_compute(f, g, "frechet")
        prev = None
        for k in (2, 4, 8):
            df = discrete_frechet(f.refined(k), g.refined(k))
            assert df >= s - 1e-9  # upper bound on the continuous distance
            if prev is not None:
                assert df <= prev + 1e-12  # monotone under nested refinement
            prev = df


def test_frechet_matches_rasterized_grid_oracle(rng):
    checked = 0
    for _ in range(6):
        f = random_polycurve(rng, n_vertices=3)
        g = random_polycurve(rng, n_vertices=3)
        s = curve_compute(f, g, "frechet")
        for eps in (s * 0.7, s * 1.4 + 0.02):
            if eps <= 0 or abs(eps - s) < 0.1:
                continue
            mine = curve_decide_frechet(f, g, eps)
            orac = rasterized_curve_decide(f, g, eps, res=128, monotone=True)
            assert mine == orac, (eps, s)
            checked += 1
    assert checked >= 6


def test_weak_matches_rasterized_grid_oracle(rng):
    checked = 0
    for _ in range(6):
        f = random_polycurve(rng, n_vertices=3)
        g = random_polycurve(rng, n_vertices=3)
        w = curve_compute(f, g, "weak")
        for eps in (w * 0.7, w * 1.4 + 0.02):
            if eps <= 0 or abs(eps - w) < 0.1:
                continue
            mine = curve_decide_weak(f, g, eps)
            orac = rasterized_curve_decide(f, g, eps, res=128, monotone=False)
            assert mine == orac, (eps, w)
            checked += 1
    assert checked >= 6


def test_curve_validation():
    with pytest.raises(ValueError):
        PolyCurve.create([(0.0, 0.0)])
    with pytest.raises(ValueError):
        PolyCurve.create([(0.0, 0.0), (1.0, float("inf"))])


def test_freespace_svg(tmp_path):
    import xml.etree.ElementTree as ET
    from frechet_surfaces.curves import curve_freespace_svg
    f = PolyCurve.create([(0.0, 0.0), (1.0, 0.0), (2.0, 0.5)])
    g = PolyCurve.create([(0.0, 0.2), (2.0, 0.2)])
    path = tmp_path / "fs.svg"
    curve_freespace_svg(f, g, 0.4, str(path))
    tree = ET.parse(path)
    assert tree.getroot().tag.endswith("svg")


# ---------------------------------------------------------------------------
# CurvePairGeometry against the scalar routines
# ---------------------------------------------------------------------------

EPS_PROBES = (0.0, 0.05, 0.3, 0.7, 1.5, 4.0)


def _plain_free_interval(p, seg, eps):
    """{t in [0,1] : |p - seg(t)| <= eps} in plain Python floats, one
    operation at a time in the order the library evaluates them."""
    a, b = seg
    d = [y - x for x, y in zip(a, b)]
    w = [x - y for x, y in zip(a, p)]
    A = B = W = 0.0
    for dx, wx in zip(d, w):
        A = A + dx * dx
        B = B + wx * dx
        W = W + wx * wx
    B = 2.0 * B
    C = W - eps * eps
    if A == 0.0:
        return (0.0, 1.0) if C <= 0.0 else None
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = max((-B - sq) / (2.0 * A), 0.0)
    hi = min((-B + sq) / (2.0 * A), 1.0)
    return None if lo > hi else (lo, hi)


def _geometry_pairs(rng):
    pairs = []
    for d in (2, 3):
        for _ in range(3):
            pairs.append((random_polycurve(rng, d=d, n_vertices=int(rng.integers(2, 6))),
                          random_polycurve(rng, d=d, n_vertices=int(rng.integers(2, 6)))))
        # a repeated vertex makes a zero-length segment (A == 0, e == 0)
        f = random_polycurve(rng, d=d, n_vertices=4)
        g = random_polycurve(rng, d=d, n_vertices=3)
        pairs.append((PolyCurve.create(f.vertices[:2] + f.vertices[1:]),
                      PolyCurve.create(g.vertices + g.vertices[-1:])))
        pairs.append((PolyCurve.create([f.vertices[0]] * 2), g))
    return pairs


def _entry(table, eps, i, j):
    lo, hi, free = _free_intervals(*table, eps)
    return (float(lo[i, j]), float(hi[i, j])) if free[i, j] else None


def test_geometry_tables_equal_scalar_routines(rng):
    for f, g in _geometry_pairs(rng):
        geo = CurvePairGeometry(f, g)
        n, m = f.n_segments, g.n_segments
        assert geo.segment_dist.shape == (n, m)
        for i in range(n):
            for j in range(m):
                d, _, _ = closest_segment_segment(*f.segment(i), *g.segment(j))
                assert geo.segment_dist[i, j] == d
                assert geo.f_pieces[i][j] == _projection_pieces(f.segment(i), g.segment(j))
                assert geo.g_pieces[j][i] == _projection_pieces(g.segment(j), f.segment(i))
        for eps in EPS_PROBES:
            for i in range(n + 1):
                for j in range(m):
                    assert _entry(geo.left, eps, i, j) == \
                        _plain_free_interval(f.vertices[i], g.segment(j), eps)
            for i in range(n):
                for j in range(m + 1):
                    assert _entry(geo.bottom, eps, i, j) == \
                        _plain_free_interval(g.vertices[j], f.segment(i), eps)


def test_shared_geometry_decides_like_a_fresh_one(rng):
    for f, g in _geometry_pairs(rng):
        geo = CurvePairGeometry(f, g)
        for dec in (curve_decide_frechet, curve_decide_weak):
            for eps in EPS_PROBES:
                assert dec(f, g, eps, geometry=geo) == dec(f, g, eps)


def test_geometry_of_rejects_another_pair_or_tolerance(rng):
    f = random_polycurve(rng, n_vertices=4)
    g = random_polycurve(rng, n_vertices=3)
    geo = CurvePairGeometry(f, g)
    assert CurvePairGeometry.of(f, g, DEFAULT_TOL, geo) is geo
    with pytest.raises(ValueError):
        CurvePairGeometry.of(g, f, DEFAULT_TOL, geo)
    with pytest.raises(ValueError):
        CurvePairGeometry.of(f, PolyCurve.create(g.vertices), DEFAULT_TOL, geo)
    with pytest.raises(ValueError):
        CurvePairGeometry.of(f, g, Tolerance(rel=1e-6), geo)
    with pytest.raises(ValueError):
        curve_decide_weak(g, f, 0.5, geometry=geo)


def test_mixed_dimension_pair_rejected(tmp_path):
    f = seg((0.0, 0.0), (1.0, 0.0))
    g = seg((0.0, 0.0, 5.0), (1.0, 0.0, 5.0))
    for fa, gb in ((f, g), (g, f)):
        with pytest.raises(ValueError):
            CurvePairGeometry(fa, gb)
        with pytest.raises(ValueError):
            curve_decide_frechet(fa, gb, 0.1)
        with pytest.raises(ValueError):
            curve_decide_weak(fa, gb, 10.0)
        for variant in ("frechet", "weak"):
            with pytest.raises(ValueError):
                curve_compute(fa, gb, variant)
        with pytest.raises(ValueError):
            curve_freespace_svg(fa, gb, 0.1, str(tmp_path / "fs.svg"))
        with pytest.raises(ValueError):
            discrete_frechet(fa, gb)
    assert not (tmp_path / "fs.svg").exists()


# ---------------------------------------------------------------------------
# Invariants: swapping the curves, rigid motion, uniform scaling
# ---------------------------------------------------------------------------

def _close(a, b):
    return abs(a - b) <= 10.0 * DEFAULT_TOL.gap(max(abs(a), abs(b)))


def _invariant_pairs(rng):
    return [(random_polycurve(rng, d=d, n_vertices=int(rng.integers(2, 6))),
             random_polycurve(rng, d=d, n_vertices=int(rng.integers(2, 6))))
            for d in (2, 3) for _ in range(3)]


def _mapped(c, fn):
    return PolyCurve.create([tuple(float(x) for x in fn(np.asarray(p)))
                             for p in c.vertices])


def test_swapping_curves_leaves_distance_unchanged(rng):
    for f, g in _invariant_pairs(rng):
        for variant in ("frechet", "weak"):
            d_fg = curve_compute(f, g, variant)
            d_gf = curve_compute(g, f, variant)
            assert _close(d_fg, d_gf), (variant, d_fg, d_gf)


def test_rigid_motion_leaves_curve_distance_unchanged(rng):
    for f, g in _invariant_pairs(rng):
        d = len(f.vertices[0])
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        rot = q * np.sign(np.diag(r))
        if np.linalg.det(rot) < 0.0:
            rot[:, 0] = -rot[:, 0]
        shift = rng.uniform(-2.0, 2.0, size=d)
        move = lambda p: rot @ p + shift
        for variant in ("frechet", "weak"):
            before = curve_compute(f, g, variant)
            after = curve_compute(_mapped(f, move), _mapped(g, move), variant)
            assert _close(before, after), (variant, before, after)


def test_uniform_scaling_scales_curve_distance(rng):
    for f, g in _invariant_pairs(rng):
        scale = lambda p: 3.0 * p
        for variant in ("frechet", "weak"):
            d = curve_compute(f, g, variant)
            d_scaled = curve_compute(_mapped(f, scale), _mapped(g, scale), variant)
            assert _close(3.0 * d, d_scaled), (variant, 3.0 * d, d_scaled)
