import numpy as np
import pytest

from frechet_surfaces import (DEFAULT_TOL, build_graph, component_extensive,
                              coverage, triangle_covered)
from frechet_surfaces.coverage import (CoverageRecord, arrangement,
                                       arrangement_svg)
from .conftest import (bumped_grid_surface, flat_surface, grid_triangulation,
                       random_surface_pair, translate_surface)
from .oracles import dist_triangle_triangle, mc_triangle_covered


def test_self_cover_identity():
    f = flat_surface()
    assert triangle_covered(f, f, 0, [0], 0.01)
    assert triangle_covered(f, f, 1, [1], 0.01)


def test_translate_uncovered():
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 1.0))
    assert not triangle_covered(f, g, 0, [0, 1], 0.5)


def test_empty_partners_uncovered():
    f = flat_surface()
    assert not triangle_covered(f, f, 0, [], 1.0)


def test_partial_partner_cover():
    # neighborhood of the same triangle at eps below the far-corner distance
    f = flat_surface()
    g = translate_surface(f, (0.6, 0.0, 0.0))
    # triangle 0 of f is (0,0)-(1,0)-(1,1); partner 0 of g shifted by 0.6:
    # small eps cannot reach f's left corner (0,0)
    assert not triangle_covered(f, g, 0, [0], 0.2)
    assert triangle_covered(f, g, 0, [0, 1], 0.85)


def test_coverage_monotone_in_partners_and_eps(rng):
    for _ in range(6):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        k = int(rng.integers(0, f.n_triangles))
        all_partners = list(range(g.n_triangles))
        eps1 = float(rng.uniform(0.1, 0.8))
        eps2 = eps1 + float(rng.uniform(0.05, 0.5))
        few = all_partners[: max(1, len(all_partners) // 2)]
        if triangle_covered(f, g, k, few, eps1):
            assert triangle_covered(f, g, k, all_partners, eps1)
        if triangle_covered(f, g, k, all_partners, eps1):
            assert triangle_covered(f, g, k, all_partners, eps2)


def _flat_grid_pair(rng):
    """A flat grid in R^2 against a translated grid: round shifts make sweep
    events coincide, as axis-aligned inputs do."""
    rows, cols = (int(n) for n in rng.integers(1, 3, size=2))
    f = flat_surface(grid_triangulation(rows, cols), d=2)
    g = flat_surface(grid_triangulation(cols, rows), d=2)
    shift = rng.choice([-0.25, 0.0, 0.125, 0.25, 0.5], size=2)
    return f, translate_surface(g, tuple(float(c) for c in shift))


def _bumped_grid_pair(rng):
    shift = tuple(float(c) for c in rng.uniform(-0.3, 0.3, size=3))
    return (bumped_grid_surface(2, 2, 0.25, (0.0, 0.0, 0.0)),
            bumped_grid_surface(2, 2, float(rng.uniform(0.1, 0.3)), shift))


def test_coverage_vs_monte_carlo(rng, monkeypatch):
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 400:
        attempts += 1
        f, g = random_surface_pair(rng, tri_range=(4, 7))
        k = int(rng.integers(0, f.n_triangles))
        n_partners = int(rng.integers(1, g.n_triangles + 1))
        partners = sorted(rng.choice(g.n_triangles, size=n_partners, replace=False)
                          .tolist())
        eps = float(rng.uniform(0.1, 1.0))
        verdict_mc, margin = mc_triangle_covered(f, g, k, partners, eps, rng=rng)
        if margin <= 1e-6:
            continue
        verdict = triangle_covered(f, g, k, partners, eps)
        assert verdict == verdict_mc, (k, partners, eps)
        checked += 1
    assert checked >= 60

    # axis-aligned and bumped grids; the partners are the triangles within
    # eps, as in a free-space cell, so that some queries need the sweep
    sweeps = []
    orig = coverage.arrangement

    def counted(*args):
        sweeps.append(args)
        return orig(*args)
    monkeypatch.setattr(coverage, "arrangement", counted)
    for make_pair in (_flat_grid_pair, _bumped_grid_pair):
        checked = 0
        swept = []  # the verdicts of the checked queries that reached the sweep
        attempts = 0
        while checked < 40 and attempts < 400:
            attempts += 1
            f, g = make_pair(rng)
            k = int(rng.integers(0, f.n_triangles))
            eps = float(rng.uniform(0.05, 0.6))
            tri = f.image_triangle(k)
            partners = [l for l in range(g.n_triangles)
                        if dist_triangle_triangle(tri, g.image_triangle(l)) <= eps]
            if not partners:
                continue
            verdict_mc, margin = mc_triangle_covered(f, g, k, partners, eps, rng=rng)
            if margin <= 1e-6:
                continue
            before = len(sweeps)
            verdict = triangle_covered(f, g, k, partners, eps)
            assert verdict == verdict_mc, (make_pair.__name__, k, partners, eps)
            if len(sweeps) > before:
                swept.append(verdict)
            checked += 1
        assert checked >= 40
        assert True in swept, make_pair.__name__

    # a hole that no probe point finds: a finer grid over the square, less
    # the two triangles of one cell, so only the sweep refutes coverage
    f = flat_surface(d=2)
    g = flat_surface(grid_triangulation(4, 4), d=2)
    tri = f.image_triangle(0)
    partners = [l for l in range(g.n_triangles) if l not in (2, 3)
                and dist_triangle_triangle(tri, g.image_triangle(l)) <= 0.02]
    verdict_mc, margin = mc_triangle_covered(f, g, 0, partners, 0.02, rng=rng)
    assert margin > 1e-6 and not verdict_mc
    before = len(sweeps)
    assert not triangle_covered(f, g, 0, partners, 0.02)
    assert len(sweeps) == before + 1


def _sweep(tri, partner_tris, eps, scale):
    """The verdict of the full sweep of one query with its images and eps
    multiplied by scale."""
    def scaled(t):
        return tuple(tuple(c * scale for c in p) for p in t)
    _, _, faces = arrangement(scaled(tri), [scaled(t) for t in partner_tris],
                              eps * scale)
    return all(covered for _, covered in faces)


@pytest.mark.parametrize("scale", [1e5, 1e-5])
def test_sweep_verdicts_do_not_move_under_uniform_scaling(rng, scale):
    # queries as a free-space graph poses them: eps at quantiles of the cell
    # distances, the partners the triangles within eps
    unscaled_abs = DEFAULT_TOL.abs / min(scale, 1.0)
    checked = 0
    for d in (2, 3):
        for _ in range(8):
            f, g = random_surface_pair(rng, d=d, tri_range=(4, 7))
            for k in range(f.n_triangles):
                tri = f.image_triangle(k)
                dists = [dist_triangle_triangle(tri, g.image_triangle(l))
                         for l in range(g.n_triangles)]
                for eps in np.quantile(dists, [0.3, 0.5, 0.7, 0.9]).tolist():
                    partners = [l for l in range(g.n_triangles) if dists[l] <= eps]
                    partner_tris = [g.image_triangle(l) for l in partners]
                    unit = _sweep(tri, partner_tris, eps, 1.0)
                    if _sweep(tri, partner_tris, eps, scale) != unit:
                        # a boundary case, or one that the absolute tolerance
                        # of `within`, which does not scale, decides
                        _, margin = mc_triangle_covered(f, g, k, partners, eps,
                                                        rng=rng)
                        assert margin <= max(1e-6 * eps, unscaled_abs), \
                            (d, k, partners, eps)
                    checked += 1
    assert checked > 300


def test_component_extensive_identity():
    f = flat_surface()
    graph = build_graph(f, f, 0.01)
    comps = graph.components()
    assert len(comps) == 1
    assert component_extensive(comps[0], f, f, 0.01)


def test_component_missing_triangle_not_extensive():
    f = flat_surface()
    graph = build_graph(f, f, 0.01)
    comp = [c for c in graph.components()[0] if c[0] != 0]
    assert not component_extensive(comp, f, f, 0.01)


def test_component_extensive_vs_projection_oracle(rng):
    from .oracles import points_triangle_dist, sample_triangle
    done = 0
    tries = 0
    while done < 10 and tries < 60:
        tries += 1
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        eps = float(rng.uniform(0.3, 1.0))
        graph = build_graph(f, g, eps)
        comps = graph.components()
        if not comps:
            continue
        comp = comps[0]
        mine = component_extensive(comp, f, g, eps)
        # Monte-Carlo projection oracle with margin filter
        ok = True
        margin_ok = True
        for (surfA, surfB, idx_of) in ((f, g, 0), (g, f, 1)):
            partners = {}
            for cell in comp:
                partners.setdefault(cell[idx_of], []).append(cell[1 - idx_of])
            for t in range(surfA.n_triangles):
                pts = sample_triangle(surfA.image_triangle(t), 2000, rng=rng)
                ls = partners.get(t, [])
                if not ls:
                    ok = False
                    continue
                best = None
                for l in ls:
                    d = points_triangle_dist(pts, surfB.image_triangle(l))
                    best = d if best is None else np.minimum(best, d)
                if np.abs(best - eps).min() <= 1e-6:
                    margin_ok = False
                    break
                if not (best <= eps).all():
                    ok = False
            if not margin_ok:
                break
        if not margin_ok:
            continue
        assert mine == ok
        done += 1
    assert done >= 10


def test_record_implies_covered_for_larger_eps_and_partner_supersets():
    rec = CoverageRecord()
    rec.add((0, 3), 0.5, frozenset({1, 2}), True)
    assert rec.implied((0, 3), 0.5, frozenset({1, 2})) is True
    assert rec.implied((0, 3), 0.7, frozenset({1, 2})) is True
    assert rec.implied((0, 3), 0.5, frozenset({1, 2, 4})) is True
    # a smaller eps, a partner set that is not a superset, another key
    assert rec.implied((0, 3), 0.4, frozenset({1, 2})) is None
    assert rec.implied((0, 3), 0.7, frozenset({1, 4})) is None
    assert rec.implied((0, 3), 0.7, frozenset({1})) is None
    assert rec.implied((1, 3), 0.7, frozenset({1, 2})) is None
    assert rec.implied((0, 2), 0.7, frozenset({1, 2})) is None


def test_record_implies_uncovered_for_smaller_eps_and_partner_subsets():
    rec = CoverageRecord()
    rec.add((1, 0), 0.5, frozenset({1, 2}), False)
    assert rec.implied((1, 0), 0.5, frozenset({1, 2})) is False
    assert rec.implied((1, 0), 0.3, frozenset({1, 2})) is False
    assert rec.implied((1, 0), 0.5, frozenset({2})) is False
    # a larger eps, a partner set that is not a subset, another key
    assert rec.implied((1, 0), 0.6, frozenset({2})) is None
    assert rec.implied((1, 0), 0.3, frozenset({1, 3})) is None
    assert rec.implied((1, 0), 0.3, frozenset({1, 2, 3})) is None
    assert rec.implied((0, 0), 0.3, frozenset({2})) is None


def test_record_keeps_every_entry():
    rec = CoverageRecord()
    rec.add((0, 0), 0.5, frozenset({1}), False)
    rec.add((0, 0), 0.9, frozenset({1, 2}), True)
    rec.add((0, 0), 0.7, frozenset({2, 3}), False)
    assert rec.implied((0, 0), 0.4, frozenset({1})) is False
    assert rec.implied((0, 0), 1.0, frozenset({1, 2, 3})) is True
    assert rec.implied((0, 0), 0.6, frozenset({3})) is False
    assert rec.implied((0, 0), 0.8, frozenset({1, 2})) is None


def test_svg_dump(tmp_path, rng):
    import xml.etree.ElementTree as ET
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    partners = list(range(g.n_triangles))
    path = tmp_path / "arr.svg"
    arrangement_svg(f, g, 0, partners, 0.5, str(path))
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    dots = [el.get("fill") for el in root.iter() if el.get("class") == "face"]
    _, _, faces = arrangement(f.image_triangle(0),
                              [g.image_triangle(l) for l in partners], 0.5)
    assert dots == ["#2a2" if covered else "#c22" for _, covered in faces]
    assert ("#c22" not in dots) == triangle_covered(f, g, 0, partners, 0.5)
