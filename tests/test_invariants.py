"""Exact invariants of the weak Fréchet distance, checked on seeded random
pairs: it is symmetric in its two surfaces, unchanged by a rigid motion of
both images, scales linearly with both images (exact mode), and unchanged by
a barycentric subdivision or a symmetry of the parameter square, each of
which reparameterises a surface without moving any image point (bisect
mode).  These hold within 10 gaps, since most reorder sums.  Two hold bit for
bit: negating one coordinate of both images changes no product, and swapping
the surfaces only transposes the pair's distance tables.  A seeded property
search over grids with dyadic coordinates checks that the two modes agree."""

import numpy as np
from hypothesis import given, settings, strategies as st

from frechet_surfaces import (DEFAULT_TOL, PairGeometry, ParamTriangulation,
                              Surface, barycentric_subdivide, compute)
from frechet_surfaces.decision import MODE_BISECT, MODE_EXACT
from .conftest import (bumped_grid_surface, grid_triangulation,
                       random_surface_pair)

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


def _negated(s, axis):
    return _mapped(s, lambda p: np.where(np.arange(len(p)) == axis, -p, p))


def _table_pairs(rng):
    """40 random pairs, every other one planar, and the criterion-11 grid pair
    at T = 32."""
    pairs = [random_surface_pair(rng, d=2 + i % 2, tri_range=(4, 8)) for i in range(40)]
    return pairs + [(bumped_grid_surface(4, 4, 0.25, (0.0, 0.0, 0.0)),
                     bumped_grid_surface(4, 4, 0.20, (0.05, -0.04, 0.3)))]


def _bits(table):
    return table.tobytes()


def test_negating_a_coordinate_leaves_the_tables_bit_identical(rng):
    for f, g in _table_pairs(rng):
        axis = int(rng.integers(len(f.image[0])))
        geo = PairGeometry(f, g)
        neg = PairGeometry(_negated(f, axis), _negated(g, axis))
        for name in ("cell_dist", "f_edge_dist", "g_edge_dist", "f_vertex_dist",
                     "g_vertex_dist"):
            assert _bits(getattr(geo, name)) == _bits(getattr(neg, name)), (name, axis)


def test_swapping_the_surfaces_transposes_the_tables(rng):
    for f, g in _table_pairs(rng):
        fg, gf = PairGeometry(f, g), PairGeometry(g, f)
        assert _bits(gf.cell_dist) == _bits(fg.cell_dist.T)
        for a, b in (("f_edge_dist", "g_edge_dist"), ("f_vertex_dist", "g_vertex_dist")):
            assert _bits(getattr(gf, a)) == _bits(getattr(fg, b))
            assert _bits(getattr(gf, b)) == _bits(getattr(fg, a))


def test_negation_and_swap_leave_the_distance_bit_identical(rng):
    for _ in range(12):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        axis = int(rng.integers(3))
        for mode in (MODE_EXACT, MODE_BISECT):
            d = compute(f, g, mode=mode).distance
            assert compute(_negated(f, axis), _negated(g, axis), mode=mode).distance == d
            assert compute(g, f, mode=mode).distance == d, mode


def _dyadic_grid(bump, shift):
    """The 2x2 grid over the square with its centre vertex lifted by bump,
    shifted by shift: every coordinate a multiple of 1/8, so that the
    tangencies between two such grids are exact."""
    param = grid_triangulation(2, 2)
    return Surface.create(param, [
        (x + shift[0], y + shift[1], (bump if (x, y) == (0.5, 0.5) else 0.0)
         + shift[2]) for x, y in param.vertices])


EIGHTHS = st.integers(-6, 6).map(lambda k: k / 8.0)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(bump_f=st.sampled_from([0.0, 0.25, 0.5]),
       bump_g=st.sampled_from([0.0, 0.25, 0.5]),
       shift=st.tuples(EIGHTHS, EIGHTHS, EIGHTHS))
def test_modes_agree_on_flat_and_bumped_grids(bump_f, bump_g, shift):
    # flat and bumped grids against translates by multiples of 1/8: both
    # modes find the same distance within 10 gaps, each probe log is
    # monotone, and bisect mode returns an eps that probed true
    f = _dyadic_grid(bump_f, (0.0, 0.0, 0.0))
    g = _dyadic_grid(bump_g, shift)
    exact = compute(f, g, mode=MODE_EXACT)
    bisect = compute(f, g, mode=MODE_BISECT)
    assert _close(exact.distance, bisect.distance), (exact.distance,
                                                     bisect.distance)
    for res in (exact, bisect):
        trues = [e for e, ok in res.probes if ok]
        falses = [e for e, ok in res.probes if not ok]
        assert not falses or min(trues) > max(falses), res.probes
    assert (bisect.distance, True) in bisect.probes
