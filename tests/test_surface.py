import math

import numpy as np
import pytest

from frechet_surfaces import (ParamTriangulation, Surface, barycentric_subdivide,
                              eval_surface, lipschitz_constant, mesh_size,
                              subdivide_times, validate)
from frechet_surfaces.surface import image_diameter_bound, sample_image_points
from .conftest import flat_surface, random_surface, two_triangle_square
from .oracles import sample_image_points_loop


def test_valid_two_triangle_square():
    s = flat_surface()
    assert validate(s) == []


def test_missing_corner_triangle():
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 1, 2)]  # half the square
    s = Surface.create(ParamTriangulation.create(verts, tris),
                       [(x, y, 0.0) for (x, y) in verts])
    report = validate(s)
    assert any("square" in r for r in report)


def test_degenerate_image_triangle_reported():
    param = two_triangle_square()
    imgs = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    s = Surface.create(param, imgs)
    report = validate(s)
    assert any("degenerate image triangle at index 0" in r for r in report)


def test_clockwise_triangle_reported():
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 2, 1), (0, 2, 3)]
    s = Surface.create(ParamTriangulation.create(verts, tris),
                       [(x, y, 0.0) for (x, y) in verts])
    assert any("clockwise" in r for r in validate(s))


def test_eval_at_vertices_edges_centroids(rng):
    s = random_surface(rng)
    param = s.param
    for vi, v in enumerate(param.vertices):
        assert np.allclose(eval_surface(s, v), s.image[vi], atol=1e-12)
    (i, j, k) = param.triangles[0]
    a, b = param.vertices[i], param.vertices[j]
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    expect = tuple((p + q) / 2 for p, q in zip(s.image[i], s.image[j]))
    assert np.allclose(eval_surface(s, mid), expect, atol=1e-12)
    c = param.vertices[k]
    cen = ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
    expect = tuple((p + q + r) / 3
                   for p, q, r in zip(s.image[i], s.image[j], s.image[k]))
    assert np.allclose(eval_surface(s, cen), expect, atol=1e-12)


def test_eval_outside_rejected():
    s = flat_surface()
    with pytest.raises(ValueError):
        eval_surface(s, (1.5, 0.5))


def test_subdivision_counts():
    s = flat_surface()
    s1 = barycentric_subdivide(s)
    assert s1.n_triangles == 12
    for m in range(3):
        assert subdivide_times(s, m).n_triangles == 2 * 6 ** m


def test_subdivision_preserves_map(rng):
    s = random_surface(rng)
    s1 = barycentric_subdivide(s)
    assert validate(s1) == []
    for _ in range(1000):
        p = (float(rng.random()), float(rng.random()))
        a = eval_surface(s, p)
        b = eval_surface(s1, p)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_mesh_size_square_and_decrease():
    s = flat_surface()
    assert abs(mesh_size(s.param) - math.sqrt(2.0)) < 1e-12
    prev = mesh_size(s.param)
    cur = s
    for _ in range(3):
        cur = barycentric_subdivide(cur)
        m = mesh_size(cur.param)
        assert m < prev
        prev = m


def test_mesh_size_matches_bruteforce(rng):
    s = random_surface(rng)
    tri = s.param
    brute = 0.0
    for (i, j, k) in tri.triangles:
        pts = [tri.vertices[i], tri.vertices[j], tri.vertices[k]]
        for a in range(3):
            for b in range(a + 1, 3):
                brute = max(brute, math.dist(pts[a], pts[b]))
    assert abs(mesh_size(tri) - brute) < 1e-15


def test_lipschitz_identity_and_scaling():
    s = flat_surface()
    assert abs(lipschitz_constant(s) - 1.0) < 1e-12
    s3 = Surface.create(s.param, [tuple(3.0 * c for c in p) for p in s.image])
    assert abs(lipschitz_constant(s3) - 3.0) < 1e-12


def test_lipschitz_upper_bounds_samples(rng):
    s = random_surface(rng)
    L = lipschitz_constant(s)
    tri = s.param
    for _ in range(200):
        ti = int(rng.integers(0, s.n_triangles))
        i, j, k = tri.triangles[ti]
        l = rng.dirichlet((1.0, 1.0, 1.0), size=2)
        vs = np.array([tri.vertices[i], tri.vertices[j], tri.vertices[k]])
        ims = np.array([s.image[i], s.image[j], s.image[k]])
        p1, p2 = l @ vs
        q1, q2 = l @ ims
        dp = np.linalg.norm(p1 - p2)
        if dp < 1e-12:
            continue
        assert np.linalg.norm(q1 - q2) <= L * dp * (1 + 1e-9)


def test_rational_vertex_parsing():
    from frechet_surfaces.formats import surface_from_dict
    doc = {
        "dimension": 3,
        "param_vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0/1", "1/1"]],
        "triangles": [[0, 1, 2], [0, 2, 3]],
        "image_vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
    }
    s = surface_from_dict(doc)
    assert validate(s) == []
    assert s.param.vertex_texts[3] == ("0/1", "1/1")


def test_sample_image_points_covering(rng):
    s = random_surface(rng)
    pts = sample_image_points(s, 0.2)
    assert len(pts) > 0
    # every image vertex is a sample (corners of the barycentric grids)
    for p in s.image:
        d = np.linalg.norm(pts - np.asarray(p), axis=1).min()
        assert d < 1e-12


@pytest.mark.parametrize("spacing", [0.02, 0.05, 0.1])
def test_sample_image_points_equals_loop(rng, spacing):
    for _ in range(4):
        s = random_surface(rng)
        assert np.array_equal(sample_image_points(s, spacing),
                              sample_image_points_loop(s, spacing))


def test_image_diameter_bound(rng):
    f = random_surface(rng)
    g = random_surface(rng)
    bound = image_diameter_bound(f, g)
    allpts = np.array(list(f.image) + list(g.image))
    brute = max(np.linalg.norm(a - b) for a in allpts for b in allpts)
    assert abs(bound - brute) < 1e-12
