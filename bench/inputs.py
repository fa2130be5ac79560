"""Seeded input generators for the benchmark, using only numpy and the package.

The library sees only the surfaces and curves built here; nothing is read
from the test suite, and no scipy is needed (the Delaunay triangulation of
the few parameter points is found by the empty-circumcircle test).
"""

import math
from itertools import combinations

import numpy as np

from frechet_surfaces import ParamTriangulation, PolyCurve, Surface, validate

_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _delaunay(pts):
    """CCW Delaunay triangles of a small point set, or None when four points
    are (nearly) cocircular or a triangle is (nearly) degenerate."""
    tris = []
    for i, j, k in combinations(range(len(pts)), 3):
        a, b, c = pts[i], pts[j], pts[k]
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(area2) < 1e-9:
            continue
        d = 2.0 * area2
        sa, sb, sc = a @ a, b @ b, c @ c
        ux = (sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1])) / d
        uy = (sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])) / d
        r = math.hypot(a[0] - ux, a[1] - uy)
        others = np.delete(pts, [i, j, k], axis=0)
        dist = np.hypot(others[:, 0] - ux, others[:, 1] - uy)
        slack = 1e-9 * max(r, 1.0)
        if np.any(dist < r - slack):
            continue
        if np.any(dist <= r + slack):
            return None
        tris.append((i, j, k) if area2 > 0 else (i, k, j))
    # a square with n interior points triangulates into 2n + 2 triangles
    return tris if len(tris) == 2 * (len(pts) - 4) + 2 else None


def random_triangulation(rng, n_interior):
    """Delaunay triangulation of the unit square corners plus interior points."""
    for _ in range(50):
        pts = np.vstack([_CORNERS, rng.uniform(0.08, 0.92, size=(n_interior, 2))])
        tris = _delaunay(pts)
        if tris is not None:
            return ParamTriangulation.create([tuple(p) for p in pts], tris)
    raise RuntimeError("failed to build a random triangulation")


def random_surface(rng, n_triangles):
    """Random valid surface in R^3 with an even triangle count >= 4: random
    triangulation, random affine image plus per-vertex jitter."""
    for _ in range(60):
        param = random_triangulation(rng, (n_triangles - 2) // 2)
        A = rng.uniform(-1.0, 1.0, size=(3, 2))
        b = rng.uniform(-0.5, 0.5, size=3)
        imgs = [tuple(float(c) for c in
                      A @ np.array(v) + b + rng.uniform(-0.25, 0.25, size=3) * 0.3)
                for v in param.vertices]
        surf = Surface.create(param, imgs)
        if not validate(surf):
            return surf
    raise RuntimeError("failed to build a random valid surface")


def translate_surface(s, vec):
    return Surface.create(s.param, [tuple(c + v for c, v in zip(p, vec))
                                    for p in s.image])


def random_surface_pair(rng, n_f, n_g):
    """Two random surfaces, the second translated by up to 0.6 per axis."""
    f = random_surface(rng, n_f)
    g = random_surface(rng, n_g)
    return f, translate_surface(g, tuple(float(c) for c in rng.uniform(-0.6, 0.6, size=3)))


def grid_triangulation(rows, cols):
    verts = [(i / cols, j / rows) for j in range(rows + 1) for i in range(cols + 1)]
    tris = []
    for j in range(rows):
        for i in range(cols):
            a = j * (cols + 1) + i
            tris += [(a, a + 1, a + cols + 2), (a, a + cols + 2, a + cols + 1)]
    return ParamTriangulation.create(verts, tris)


def grid_surface(rows, cols, bump, shift):
    """Grid over the unit square lifted by a sine bump, then shifted."""
    param = grid_triangulation(rows, cols)
    imgs = [(x + shift[0], y + shift[1],
             bump * math.sin(math.pi * x) * math.sin(math.pi * y) + shift[2])
            for (x, y) in param.vertices]
    return Surface.create(param, imgs)


def flat_square():
    """The unit square as two triangles in the z = 0 plane."""
    param = ParamTriangulation.create([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                                      [(0, 1, 2), (0, 2, 3)])
    return Surface.create(param, [(x, y, 0.0) for (x, y) in param.vertices])


def random_polycurve(rng, n_vertices):
    """Planar polyline with vertices uniform in [-1, 1]^2."""
    return PolyCurve.create([tuple(float(c) for c in p)
                             for p in rng.uniform(-1.0, 1.0, size=(n_vertices, 2))])
