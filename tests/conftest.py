"""Shared instance generators for the test suite.

All randomness is seeded; FRECHET_SEED overrides the base seed so the whole
suite can be re-rolled from the environment.
"""

import math
import os
import zlib

import numpy as np
import pytest
from scipy.spatial import Delaunay

from frechet_surfaces import ParamTriangulation, Surface, validate
from frechet_surfaces.surface import require_valid

BASE_SEED = int(os.environ.get("FRECHET_SEED", "20250810"))


def rng_for(name):
    return np.random.default_rng((BASE_SEED, zlib.crc32(name.encode())))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass lines even when output capture is on."""
    try:
        from .test_acceptance import ACCEPTANCE_LINES
    except Exception:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def rng(request):
    return rng_for(request.node.name)


# ---------------------------------------------------------------------------
# Triangulations and surfaces
# ---------------------------------------------------------------------------

def two_triangle_square():
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return ParamTriangulation.create(verts, tris)


def grid_triangulation(rows, cols):
    verts = []
    for j in range(rows + 1):
        for i in range(cols + 1):
            verts.append((i / cols, j / rows))
    tris = []
    for j in range(rows):
        for i in range(cols):
            a = j * (cols + 1) + i
            b = a + 1
            c = a + cols + 2
            d = a + cols + 1
            tris.append((a, b, c))
            tris.append((a, c, d))
    return ParamTriangulation.create(verts, tris)


def bumped_grid_surface(rows, cols, bump, shift):
    """The grid over the square lifted by a sine bump and shifted, as in the
    complexity criterion."""
    param = grid_triangulation(rows, cols)
    imgs = []
    for (x, y) in param.vertices:
        z = bump * math.sin(math.pi * x) * math.sin(math.pi * y)
        imgs.append((x + shift[0], y + shift[1], z + shift[2]))
    return Surface.create(param, imgs)


def random_triangulation(rng, n_interior):
    """Delaunay triangulation of the unit square corners plus interior points."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for _ in range(50):
        pts = rng.uniform(0.08, 0.92, size=(n_interior, 2))
        allp = np.vstack([corners, pts])
        tri = Delaunay(allp)
        simplices = []
        ok = True
        for s in tri.simplices:
            a, b, c = allp[s[0]], allp[s[1]], allp[s[2]]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if abs(area2) < 1e-9:
                ok = False
                break
            if area2 < 0:
                s = (s[0], s[2], s[1])
            simplices.append(tuple(int(x) for x in s))
        if not ok:
            continue
        pt = ParamTriangulation.create([tuple(p) for p in allp], simplices)
        return pt
    raise RuntimeError("failed to build a random triangulation")


def flat_surface(param=None, d=3, origin=(0.0, 0.0, 0.0), scale=1.0):
    """Embed the parameter square into the z=0 plane (or the 2D plane)."""
    param = param or two_triangle_square()
    imgs = []
    for (x, y) in param.vertices:
        if d == 3:
            imgs.append((origin[0] + scale * x, origin[1] + scale * y, origin[2]))
        else:
            imgs.append((origin[0] + scale * x, origin[1] + scale * y))
    return Surface.create(param, imgs)


def translate_surface(s, vec):
    imgs = [tuple(c + v for c, v in zip(p, vec)) for p in s.image]
    return Surface.create(s.param, imgs)


def random_surface(rng, d=3, n_interior=None, jitter=0.25, tri_range=(4, 10)):
    """Random valid surface: random triangulation, random affine image plus
    per-vertex jitter; retries until validation passes."""
    for _ in range(60):
        if n_interior is None:
            lo, hi = tri_range
            k = int(rng.integers((lo - 2) // 2, (hi - 2) // 2 + 1))
        else:
            k = n_interior
        param = random_triangulation(rng, max(k, 1))
        A = rng.uniform(-1.0, 1.0, size=(d, 2))
        # keep the map reasonably non-singular
        if d == 2 and abs(np.linalg.det(A)) < 0.2:
            continue
        b = rng.uniform(-0.5, 0.5, size=d)
        imgs = []
        for (x, y) in param.vertices:
            p = A @ np.array([x, y]) + b
            p = p + rng.uniform(-jitter, jitter, size=d) * 0.3
            imgs.append(tuple(float(c) for c in p))
        surf = Surface.create(param, imgs)
        if not validate(surf):
            return surf
    raise RuntimeError("failed to build a random valid surface")


def random_surface_pair(rng, d=3, tri_range=(4, 10), offset_scale=0.6):
    f = random_surface(rng, d=d, tri_range=tri_range)
    g = random_surface(rng, d=d, tri_range=tri_range)
    shift = rng.uniform(-offset_scale, offset_scale, size=d)
    g = translate_surface(g, tuple(float(c) for c in shift))
    return f, g


def random_polycurve(rng, d=2, n_vertices=5, scale=1.0):
    from frechet_surfaces import PolyCurve
    pts = rng.uniform(-scale, scale, size=(n_vertices, d))
    return PolyCurve.create([tuple(float(c) for c in p) for p in pts])


def random_triangle(rng, d=3, scale=1.0, center=None):
    for _ in range(100):
        pts = rng.uniform(-scale, scale, size=(3, d))
        if center is not None:
            pts = pts * 0.5 + np.asarray(center)
        a, b, c = pts
        n = np.linalg.norm(np.cross(b - a, c - a)) if d == 3 else \
            abs((b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0]))
        if n > 0.05 * scale * scale:
            return tuple(tuple(float(x) for x in p) for p in pts)
    raise RuntimeError("failed to build a random triangle")
