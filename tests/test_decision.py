import math

import numpy as np
import pytest

from frechet_surfaces import (ParamTriangulation, Surface, ValidationError,
                              compute, decide, critical_values_2c,
                              critical_values_C1, hausdorff_sampled)
from frechet_surfaces import coverage, decision, freespace
from frechet_surfaces.decision import MODE_BISECT, MODE_EXACT
from frechet_surfaces.geometry import dist_point_triangle
from frechet_surfaces.surface import sample_image_points
from .conftest import (bumped_grid_surface, flat_surface, random_surface,
                       random_surface_pair, translate_surface,
                       two_triangle_square)
from .oracles import rasterized_decide, rasterized_margin, single_stage_compute


def test_decide_identity_at_zero(rng):
    f = flat_surface()
    ok, witness = decide(f, f, 0.0)
    assert ok
    assert witness  # diagonal cells present
    assert all(cell in witness for cell in [(0, 0), (1, 1)])


def test_decide_translate_threshold():
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 1.0))
    ok, _ = decide(f, g, 1.0)
    assert ok
    ok, _ = decide(f, g, 0.9)
    assert not ok


def test_decide_invalid_surface_raises():
    from frechet_surfaces import ParamTriangulation, Surface
    bad = Surface.create(
        ParamTriangulation.create([(0, 0), (1, 0), (1, 1)], [(0, 1, 2)]),
        [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    f = flat_surface()
    with pytest.raises(ValidationError):
        decide(bad, f, 0.5)


def test_decision_monotone_in_eps(rng):
    for _ in range(5):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        probes = sorted(float(x) for x in rng.uniform(0.01, 2.0, size=8))
        verdicts = [decide(f, g, e)[0] for e in probes]
        for a, b in zip(verdicts, verdicts[1:]):
            assert (not a) or b, (probes, verdicts)


def test_decide_agrees_with_rasterized_oracle(rng):
    checked = 0
    for _ in range(12):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        res = compute(f, g, mode=MODE_BISECT)
        margin = rasterized_margin(f, g)
        for eps in (res.distance - 2.0 * margin, res.distance - 1.2 * margin,
                    res.distance + 1.2 * margin, res.distance + 2.0 * margin):
            if eps <= 0:
                continue
            if abs(eps - res.distance) <= margin:
                continue
            mine = decide(f, g, eps)[0]
            orac = rasterized_decide(f, g, eps)
            assert mine == orac, (eps, res.distance, margin)
            checked += 1
    assert checked >= 8


def test_compute_identity_zero(rng):
    for _ in range(3):
        f = random_surface(rng, tri_range=(4, 8))
        res = compute(f, f, mode=MODE_BISECT)
        assert res.distance <= 1e-12
        assert decide(f, f, 0.0)[0]


def test_compute_translate_exact_both_modes():
    f = flat_surface()
    for h in (0.1, 0.5, 1.0):
        g = translate_surface(f, (0.0, 0.0, h))
        for mode in (MODE_EXACT, MODE_BISECT):
            res = compute(f, g, mode=mode)
            assert abs(res.distance - h) < 1e-9, (mode, h, res.distance)
            assert res.mode == mode
            assert res.witness_component


@pytest.mark.parametrize("h", [5e-9, 1e-10])
def test_exact_mode_agrees_with_bisect_below_ten_gaps(h):
    # the distance merges into a tolerance-zero table candidate
    from frechet_surfaces import DEFAULT_TOL
    f = flat_surface()
    g = translate_surface(f, (h, 0.0, 0.0))
    exact = compute(f, g, mode=MODE_EXACT)
    bisect = compute(f, g, mode=MODE_BISECT)
    assert not decide(f, g, 0.0)[0]
    assert abs(exact.distance - bisect.distance) <= 10 * DEFAULT_TOL.gap(h), \
        (exact.distance, bisect.distance)
    for res in (exact, bisect):
        assert res.witness_component
        assert (res.witness_eps, True) in res.probes


def test_modes_agree_random(rng):
    from frechet_surfaces import DEFAULT_TOL
    for _ in range(4):
        f, g = random_surface_pair(rng, tri_range=(4, 5))
        r1 = compute(f, g, mode=MODE_EXACT)
        r2 = compute(f, g, mode=MODE_BISECT)
        assert abs(r1.distance - r2.distance) <= 10 * DEFAULT_TOL.gap(r1.distance), \
            (r1.distance, r2.distance)


def test_exact_mode_returns_enumerated_critical(rng):
    for _ in range(4):
        f, g = random_surface_pair(rng, tri_range=(4, 5))
        res = compute(f, g, mode=MODE_EXACT)
        c1 = [cv.value for cv in critical_values_C1(f, g)]
        c2 = [cv.value for cv in
              critical_values_2c(f, g, 0.0, res.distance * 1.01 + 1e-9)]
        cands = c1 + c2 + [0.0]
        assert any(abs(res.distance - v) <= 10 * max(1e-12, 1e-9 * res.distance)
                   for v in cands)


def test_flip_bracketing(rng):
    for _ in range(3):
        f, g = random_surface_pair(rng, tri_range=(4, 5))
        res = compute(f, g, mode=MODE_BISECT)
        d = res.distance
        if d <= 0:
            continue
        assert decide(f, g, d * (1 + 1e-6) + 1e-12)[0]
        assert not decide(f, g, d * (1 - 1e-6) - 1e-12)[0]


def test_compute_symmetry(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    r1 = compute(f, g, mode=MODE_BISECT)
    r2 = compute(g, f, mode=MODE_BISECT)
    assert abs(r1.distance - r2.distance) <= 10 * max(1e-12, 1e-9 * r1.distance) \
        + 1e-9


def test_sandwich_hausdorff_lower(rng):
    for _ in range(5):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        res = compute(f, g, mode=MODE_BISECT)
        lower, upper = hausdorff_sampled(f, g, 0.05)
        assert lower - 1e-6 <= res.distance
        assert upper >= lower
        assert upper - lower <= 2 * 0.05 + 1e-12


def test_hausdorff_examples():
    f = flat_surface()
    lo, up = hausdorff_sampled(f, f, 0.1)
    assert lo <= 1e-12
    g = translate_surface(f, (0.0, 0.0, 0.7))
    lo, up = hausdorff_sampled(f, g, 0.05)
    assert lo - 1e-12 <= 0.7 <= up + 1e-12
    assert abs(lo - 0.7) <= 2 * 0.05


def test_hausdorff_brackets_denser_sampling(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    lo1, up1 = hausdorff_sampled(f, g, 0.1)
    lo2, up2 = hausdorff_sampled(f, g, 0.01)
    # denser estimate sits inside the coarser bracket
    assert lo1 - 1e-12 <= lo2 <= up1 + 1e-12


def test_hausdorff_lower_is_the_scalar_sample_maximum(rng):
    for d in (3, 3, 2):
        f, g = random_surface_pair(rng, d=d, tri_range=(4, 6))
        for density in (0.2, 0.07):
            expected = max(
                min(dist_point_triangle(p, tri) for tri in b.image_triangles())
                for a, b in ((f, g), (g, f))
                for p in sample_image_points(a, density).tolist())
            assert hausdorff_sampled(f, g, density)[0] == expected


def test_planar_instance_both_modes():
    # d = 2: the "plane" of every image triangle is the ambient plane itself.
    # Nearby degenerate-position candidates put the exact mode at the dedup
    # radius (10x tolerance); bisection recovers the flip to full precision.
    f = flat_surface(d=2)
    g = translate_surface(f, (0.3, 0.0))
    res = compute(f, g, mode=MODE_BISECT)
    assert abs(res.distance - 0.3) < 2e-9, res.distance
    res = compute(f, g, mode=MODE_EXACT)
    assert abs(res.distance - 0.3) < 1.5e-8, res.distance


def test_planar_random_matches_oracle(rng):
    from .conftest import random_surface
    f = random_surface(rng, d=2, tri_range=(4, 6))
    g = random_surface(rng, d=2, tri_range=(4, 6))
    res = compute(f, g, mode=MODE_BISECT)
    margin = rasterized_margin(f, g)
    for eps in (res.distance - 1.5 * margin, res.distance + 1.5 * margin):
        if eps <= 0 or abs(eps - res.distance) <= margin:
            continue
        assert decide(f, g, eps)[0] == rasterized_decide(f, g, eps)


def test_result_fields_and_probes(rng):
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.25))
    res = compute(f, g, mode=MODE_EXACT)
    d = res.as_dict()
    assert set(d) == {"distance", "mode", "witness_eps", "witness_component",
                      "probes"}
    assert d["probes"]
    assert all(len(p) == 2 for p in d["probes"])
    # monotone: all true probes >= all false probes
    trues = [e for e, ok in res.probes if ok]
    falses = [e for e, ok in res.probes if not ok]
    if trues and falses:
        assert min(trues) >= max(falses) - 1e-12


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_overflowing_distances_are_not_within_eps():
    # every image distance of this pair overflows to inf, and so does the
    # diameter bound that compute's search ends at
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 1e200))
    assert np.isinf(freespace.PairGeometry(f, g).cell_dist).all()
    assert decide(f, g, 1.0) == (False, None)
    for mode in (MODE_BISECT, MODE_EXACT):
        with pytest.raises(ArithmeticError):
            compute(f, g, mode=mode)


def test_compute_computes_each_cell_distance_once(rng, monkeypatch):
    # the cell table is filled by one batched call over all triangle pairs
    calls = _count_calls(monkeypatch, freespace, "triangle_triangle_table")
    for _ in range(3):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        calls.clear()
        res = compute(f, g, mode=MODE_BISECT)
        assert len(res.probes) > 2
        assert len(calls) == 1
        f_tris, g_tris = calls[0][:2]
        assert (len(f_tris), len(g_tris)) == (f.n_triangles, g.n_triangles)


def test_compute_probes_match_one_shot_decides(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    for mode in (MODE_BISECT, MODE_EXACT):
        res = compute(f, g, mode=mode)
        for eps, ok in res.probes:
            assert decide(f, g, eps)[0] == ok, (mode, eps)


def test_compute_reuses_coverage_verdicts_within_one_call(monkeypatch):
    # the criterion-11 grid pair at T = 8
    f = bumped_grid_surface(2, 2, 0.25, (0.0, 0.0, 0.0))
    g = bumped_grid_surface(2, 2, 0.20, (0.05, -0.04, 0.3))
    calls = _count_calls(monkeypatch, coverage, "triangle_covered")
    res = compute(f, g, mode=MODE_BISECT)
    in_compute = len(calls)
    calls.clear()
    for eps, ok in res.probes:
        assert decide(f, g, eps)[0] == ok, eps
    assert in_compute < len(calls)
    # no verdict outlives a call
    calls.clear()
    compute(f, g, mode=MODE_BISECT)
    assert len(calls) == in_compute


def test_decide_below_cell_distances_computes_no_boundary_distance(monkeypatch):
    calls = _count_calls(monkeypatch, freespace, "segment_triangle_table")
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 1.0))
    assert not decide(f, g, 0.5)[0]
    assert calls == []
    assert decide(f, g, 1.5)[0]
    assert calls


def _final_brackets(monkeypatch):
    """The (lo, hi) that each compute() call hands its last stage:
    critical_values_2c's bracket in exact mode, when it enumerates 2c, and
    bisect_threshold's bracket, hi widened by the probe slack, in bisect
    mode."""
    seen = []
    c2, bisect = decision.critical_values_2c, decision.bisect_threshold

    def spy_c2(f, g, lo, hi, *args, **kwargs):
        seen.append((lo, hi))
        return c2(f, g, lo, hi, *args, **kwargs)

    def spy_bisect(pred, lo, hi, tol):
        seen.append((lo, hi))
        return bisect(pred, lo, hi, tol)
    monkeypatch.setattr(decision, "critical_values_2c", spy_c2)
    monkeypatch.setattr(decision, "bisect_threshold", spy_bisect)
    return seen


def _sandwich_sized_pairs(rng):
    """Random pairs with the benchmark's sandwich triangle counts."""
    pairs = []
    for n_f, n_g in ((4, 6), (6, 8), (8, 10), (10, 4)):
        f = random_surface(rng, n_interior=(n_f - 2) // 2)
        g = random_surface(rng, n_interior=(n_g - 2) // 2)
        shift = tuple(float(c) for c in rng.uniform(-0.6, 0.6, size=3))
        pairs.append((f, translate_surface(g, shift)))
    return pairs


def _assert_monotone(probes):
    trues = [e for e, ok in probes if ok]
    falses = [e for e, ok in probes if not ok]
    assert min(trues) >= max(falses), probes


def test_staged_search_ends_in_the_single_stage_bracket(rng, monkeypatch):
    # bracketing with the table families first, then with T2b inside that
    # bracket, ends in the bracket (lo, hi] of one search over all of C1, so
    # both modes return the same float.  Exact mode then probes just below
    # hi, outside its dedup radius: false settles on hi, and true hands
    # (lo, hi) to the type-2c enumeration
    from frechet_surfaces import DEFAULT_TOL
    seen = _final_brackets(monkeypatch)
    pairs = [random_surface_pair(rng, tri_range=(4, 6)) for _ in range(14)]
    for f, g in pairs + _sandwich_sized_pairs(rng):
        for mode in (MODE_EXACT, MODE_BISECT):
            seen.clear()
            res = compute(f, g, mode=mode)
            distance, bracket = single_stage_compute(f, g, mode)
            assert res.distance == distance, mode
            lo, hi = bracket
            below = hi - 10.0 * DEFAULT_TOL.gap(hi)
            if mode == MODE_BISECT:
                assert seen == [(lo, hi + 10.0 * DEFAULT_TOL.gap(hi))]
            elif (below, False) in res.probes:
                assert seen == [] and res.distance == hi
            else:
                assert (below, True) in res.probes
                assert seen == [(lo, hi)]
            _assert_monotone(res.probes)


def test_exact_compute_enumerates_no_2c_on_sandwich_sized_pairs(rng, monkeypatch):
    # the probe just below the bracket top is false on these pairs, so exact
    # mode returns the top without the type-2c enumeration, and the same
    # float as the search that enumerates it
    calls = _count_calls(monkeypatch, decision, "critical_values_2c")
    pairs = _sandwich_sized_pairs(rng) + [
        random_surface_pair(rng, d=d, tri_range=(4, 6))
        for d in (2, 3) for _ in range(5)]
    for f, g in pairs:
        res = compute(f, g, mode=MODE_EXACT)
        assert calls == []
        assert res.distance == single_stage_compute(f, g, MODE_EXACT)[0]
        _assert_monotone(res.probes)


def _ring_pair():
    """A pair whose weak Fréchet distance is a type-2c value.

    f is a flat triangle in z = 0, split into two triangles at the midpoint
    of one side.  g is a ring of six triangles between f's outline and a
    small inner triangle, off centre and lifted a little at its vertices:
    the unit square bent round with its left and right sides glued.  g lies
    within 0.11 of f, and the point of f farthest from g is inside the hole,
    equidistant from the three inner edges."""
    angles = [math.pi / 2 + 2.0 * math.pi * k / 3 for k in range(3)]
    outer = [(3.0 * math.cos(a), 3.0 * math.sin(a), 0.0) for a in angles]
    inner = [(0.3 + 0.5 * math.cos(a + 0.2), 0.1 + 0.5 * math.sin(a + 0.2), h)
             for a, h in zip(angles, (0.05, 0.08, 0.11))]
    a, b, c = outer
    mid = tuple(0.5 * (p + q) for p, q in zip(b, c))
    f = Surface.create(
        ParamTriangulation.create([(0, 0), (1, 0), (1, 1), (0, 1)],
                                  [(0, 1, 3), (1, 2, 3)]),
        [b, mid, c, a])
    verts, imgs = [], []
    for k in range(4):
        verts += [(k / 3, 0.0), (k / 3, 1.0)]
        imgs += [outer[k % 3], inner[k % 3]]
    tris = [t for k in range(3) for t in ((2 * k, 2 * k + 2, 2 * k + 3),
                                          (2 * k, 2 * k + 3, 2 * k + 1))]
    g = Surface.create(ParamTriangulation.create(verts, tris), imgs)
    return f, g


def test_exact_compute_enumerates_2c_when_the_probe_below_the_top_is_true(
        monkeypatch):
    from frechet_surfaces import DEFAULT_TOL, validate
    f, g = _ring_pair()
    assert validate(f) == [] and validate(g) == []
    seen = _final_brackets(monkeypatch)
    res = compute(f, g, mode=MODE_EXACT)
    distance, (lo, hi) = single_stage_compute(f, g, MODE_EXACT)
    assert res.distance == distance
    # the probe below the bracket top is true, so 2c is enumerated in the
    # bracket, and the answer is a type-2c value far from every C1 value
    assert (hi - 10.0 * DEFAULT_TOL.gap(hi), True) in res.probes
    assert seen == [(lo, hi)]
    assert distance < hi - 10.0 * DEFAULT_TOL.gap(hi)
    assert "T2c" in {cv.kind for cv in critical_values_2c(f, g, lo, hi)
                     if cv.value == distance}
    assert all(abs(cv.value - distance) > 1e-3 for cv in critical_values_C1(f, g))
    bisect = compute(f, g, mode=MODE_BISECT).distance
    assert abs(bisect - distance) <= 10.0 * DEFAULT_TOL.gap(distance)
    _assert_monotone(res.probes)


def test_exact_compute_ends_without_a_probe_in_a_bracket_within_its_top_radius(
        monkeypatch):
    # the stage brackets are spaced by the dedup radius, except below the
    # diameter bound, which is appended to the table values as it is.  With
    # that bound a little under the distance and one table value within its
    # radius, no type-2c value can merge into the bracket: exact mode returns
    # its top with neither the probe below it nor the 2c enumeration
    from frechet_surfaces import DEFAULT_TOL
    from frechet_surfaces.criticals import CriticalValue
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.5))
    gap = DEFAULT_TOL.gap(0.5)
    diameter = (0.5 - 5.0 * gap) / (1.0 + 1e-9)
    hi = diameter * (1.0 + 1e-9) + DEFAULT_TOL.abs + 1e-12
    lo = hi - 9.9 * gap
    monkeypatch.setattr(decision, "image_diameter_bound", lambda f, g: diameter)
    monkeypatch.setattr(decision, "table_critical_values",
                        lambda *args: [CriticalValue(lo, "T1", ())])
    monkeypatch.setattr(decision, "t2b_critical_values", lambda *args: [])
    calls = _count_calls(monkeypatch, decision, "critical_values_2c")
    res = compute(f, g, mode=MODE_EXACT)
    assert res.distance == hi
    assert res.probes == [(0.0, False), (hi + 10.0 * gap, True),
                          (lo + 10.0 * gap, False)]
    assert calls == []
