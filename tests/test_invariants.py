"""Exact invariants of the weak Fréchet distance, checked on seeded random
pairs: it is symmetric in its two surfaces, unchanged by a rigid motion of
both images, scales linearly with both images (exact mode), and unchanged by
a barycentric subdivision or a symmetry of the parameter square, each of
which reparameterises a surface without moving any image point (bisect
mode)."""

import numpy as np

from frechet_surfaces import (DEFAULT_TOL, ParamTriangulation, Surface,
                              barycentric_subdivide, compute)
from frechet_surfaces.decision import MODE_BISECT
from .conftest import random_surface_pair

PAIRS = 6


def _pairs(rng):
    return [random_surface_pair(rng, tri_range=(4, 6)) for _ in range(PAIRS)]


def _mapped(s, fn):
    return Surface.create(s.param, [tuple(float(c) for c in fn(np.asarray(p)))
                                    for p in s.image])


def _close(a, b):
    return abs(a - b) <= 10.0 * DEFAULT_TOL.gap(max(abs(a), abs(b)))


def test_distance_is_symmetric(rng):
    for f, g in _pairs(rng):
        d_fg = compute(f, g).distance
        d_gf = compute(g, f).distance
        assert _close(d_fg, d_gf), (d_fg, d_gf)


def test_rigid_motion_leaves_distance_unchanged(rng):
    for f, g in _pairs(rng):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.diag(r))
        if np.linalg.det(rot) < 0.0:
            rot[:, 0] = -rot[:, 0]
        shift = rng.uniform(-2.0, 2.0, size=3)
        move = lambda p: rot @ p + shift
        d = compute(f, g).distance
        d_moved = compute(_mapped(f, move), _mapped(g, move)).distance
        assert _close(d, d_moved), (d, d_moved)


def test_uniform_scaling_scales_distance(rng):
    for f, g in _pairs(rng):
        scale = lambda p: 3.0 * p
        d = compute(f, g).distance
        d_scaled = compute(_mapped(f, scale), _mapped(g, scale)).distance
        assert _close(3.0 * d, d_scaled), (3.0 * d, d_scaled)


def test_barycentric_subdivision_leaves_distance_unchanged(rng):
    for f, g in _pairs(rng)[:3]:
        d = compute(f, g, mode=MODE_BISECT).distance
        d_sub = compute(barycentric_subdivide(f), g, mode=MODE_BISECT).distance
        assert _close(d, d_sub), (d, d_sub)


def _square_symmetry(s, index):
    """s reparameterised by symmetry `index` of the 8 of [0, 1]^2: bit 0
    swaps the axes, bits 1 and 2 reflect x and y.  The images stay, and a
    reflection reverses each triangle so that it stays counterclockwise."""
    swap, flip_x, flip_y = index & 1, index >> 1 & 1, index >> 2 & 1

    def move(v):
        x, y = (v[1], v[0]) if swap else v
        return (1.0 - x if flip_x else x, 1.0 - y if flip_y else y)
    tris = s.param.triangles
    if swap ^ flip_x ^ flip_y:
        tris = [(i, k, j) for i, j, k in tris]
    param = ParamTriangulation.create([move(v) for v in s.param.vertices], tris)
    return Surface.create(param, s.image)


def test_square_symmetry_leaves_distance_unchanged(rng):
    pairs = _pairs(rng)[:3]
    # three distinct symmetries other than the identity
    for (f, g), index in zip(pairs, rng.choice(range(1, 8), size=3, replace=False)):
        d = compute(f, g, mode=MODE_BISECT).distance
        d_sym = compute(_square_symmetry(f, int(index)), g, mode=MODE_BISECT).distance
        assert _close(d, d_sym), (index, d, d_sym)
