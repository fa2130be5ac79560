import itertools
import math

import numpy as np
import pytest

from frechet_surfaces.batched import (_best_edge_point,
                                      batch_closest_point_triangle,
                                      batch_closest_segment_segment,
                                      batch_dist_point_triangle,
                                      batch_dist_segment_triangle,
                                      batch_dist_triangle_triangle,
                                      batch_segment_crosses_triangle,
                                      point_triangle_table,
                                      segment_triangle_table,
                                      triangle_triangle_table)
from frechet_surfaces.geometry import (FEATURES, GeometryError,
                                       OverlappingArcsError,
                                       arc_pair_intersections,
                                       closest_point_segment,
                                       closest_point_triangle,
                                       closest_segment_segment,
                                       conic_conic_points, conic_value,
                                       conic_y_resultant, conics_identical,
                                       dist_point_triangle,
                                       eps_neighborhood_plane_boundary,
                                       feature_regions, feature_sqdist_conic,
                                       frame_of_triangle,
                                       line_sqdist_quadratic,
                                       make_ellipse_arc, make_segment_arc,
                                       Plane2Frame,
                                       point_sqdist_quadratic,
                                       triangle_scale, vdist, vdot, vunit)
from .conftest import random_triangle
from .oracles import (dist_segment_triangle, dist_triangle_triangle,
                      resultant_rows, sample_triangle, sampled_point_triangle,
                      sampled_segment_triangle, sampled_triangle_triangle,
                      segment_crosses_triangle)

TRI = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# point / segment / triangle distances
# ---------------------------------------------------------------------------

def test_point_above_interior():
    assert abs(dist_point_triangle((0.0, 0.0, 1.0), TRI) - 1.0) < 1e-12
    assert abs(dist_point_triangle((0.25, 0.25, 1.0), TRI) - 1.0) < 1e-12


def test_point_nearest_vertex():
    assert abs(dist_point_triangle((2.0, 0.0, 0.0), TRI) - 1.0) < 1e-12


def test_point_degenerate_triangle_rejected():
    degen = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        dist_point_triangle((0.0, 1.0, 0.0), degen)
    # explicit flag allows it
    d = dist_point_triangle((0.0, 1.0, 0.0), degen, degenerate_ok=True)
    assert abs(d - 1.0) < 1e-12


def test_point_triangle_vs_sampling(rng):
    from .conftest import random_triangle
    for _ in range(25):
        tri = random_triangle(rng)
        p = tuple(float(c) for c in rng.uniform(-1.5, 1.5, size=3))
        mine = dist_point_triangle(p, tri)
        orac = sampled_point_triangle(p, tri)
        assert mine <= orac + 1e-12
        assert abs(mine - orac) < 1e-3


def test_segment_parallel_offset():
    seg = ((0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    assert abs(dist_segment_triangle(seg, TRI) - 1.0) < 1e-12


def test_segment_crossing():
    seg = ((0.2, 0.2, -1.0), (0.2, 0.2, 1.0))
    assert dist_segment_triangle(seg, TRI) == 0.0


def test_segment_triangle_vs_sampling(rng):
    from .conftest import random_triangle
    for _ in range(20):
        tri = random_triangle(rng)
        a = tuple(float(c) for c in rng.uniform(-1.5, 1.5, size=3))
        b = tuple(float(c) for c in rng.uniform(-1.5, 1.5, size=3))
        mine = dist_segment_triangle((a, b), tri)
        orac = sampled_segment_triangle((a, b), tri)
        assert mine <= orac + 1e-12
        assert abs(mine - orac) < 1e-3


def test_triangle_triangle_cases(rng):
    # coplanar overlap
    t2 = ((0.2, 0.2, 0.0), (1.2, 0.2, 0.0), (0.2, 1.2, 0.0))
    assert dist_triangle_triangle(TRI, t2) < 1e-12
    # unit offset parallel translate
    t3 = tuple((x, y, z + 1.0) for (x, y, z) in TRI)
    assert abs(dist_triangle_triangle(TRI, t3) - 1.0) < 1e-12
    # proper crossing (edge through interior)
    t4 = ((0.2, 0.2, -0.5), (0.3, 0.2, 0.5), (0.2, 0.3, 0.5))
    assert dist_triangle_triangle(TRI, t4) == 0.0


def test_triangle_triangle_vs_sampling(rng):
    from .conftest import random_triangle
    for _ in range(15):
        t1 = random_triangle(rng)
        t2 = random_triangle(rng)
        mine = dist_triangle_triangle(t1, t2)
        orac = sampled_triangle_triangle(t1, t2)
        assert mine <= orac + 1e-12
        assert abs(mine - orac) < 1e-3


def test_distance_symmetry_and_translation(rng):
    from .conftest import random_triangle
    for _ in range(10):
        t1 = random_triangle(rng)
        t2 = random_triangle(rng)
        assert abs(dist_triangle_triangle(t1, t2)
                   - dist_triangle_triangle(t2, t1)) < 1e-12
        v = rng.uniform(-0.5, 0.5, size=3)
        t2v = tuple(tuple(c + d for c, d in zip(p, v)) for p in t2)
        moved = dist_triangle_triangle(t1, t2v)
        base = dist_triangle_triangle(t1, t2)
        assert abs(moved - base) <= float(np.linalg.norm(v)) + 1e-9


# ---------------------------------------------------------------------------
# batched kernels: every lane equals the scalar routine (==)
# ---------------------------------------------------------------------------

def _floats(p):
    return tuple(float(x) for x in p)


def _lanes(points):
    """A list of points as one point of coordinate arrays."""
    return tuple(np.array(c, dtype=float) for c in zip(*points))


def _lane(point, i):
    return tuple(x[i] for x in point)


def _grid(d, values):
    return [_floats(p) for p in itertools.product(values, repeat=d)]


# right, acute, obtuse and sliver triangles with integer vertices, so that
# integer grid points fall exactly on the boundaries of their Voronoi regions
_INT_TRIANGLES = {
    2: (((0, 0), (4, 0), (0, 4)), ((0, 0), (4, 1), (1, 3)),
        ((1, -2), (3, 2), (-2, 1)), ((0, 0), (6, 0), (5, 1))),
    3: (((0, 0, 0), (4, 0, 0), (0, 4, 0)), ((0, 0, 1), (3, 1, 0), (1, 3, 2)),
        ((-1, 2, 0), (2, -1, 1), (1, 1, -2)), ((0, 0, 0), (6, 0, 0), (5, 1, 1))),
}


def _triangles(rng, d):
    from .conftest import random_triangle
    return ([tuple(_floats(p) for p in t) for t in _INT_TRIANGLES[d]]
            + [random_triangle(rng, d=d, scale=3.0) for _ in range(4)])


def _segments(points):
    """Every ordered pair of the points, zero-length segments included."""
    return [(a, b) for a in points for b in points]


@pytest.mark.parametrize("d", [2, 3])
def test_batch_point_triangle_equals_scalar(rng, d):
    pts = _grid(d, range(-2, 7)) + [_floats(p)
                                    for p in rng.uniform(-2, 6, size=(100, d))]
    lanes = _lanes(pts)
    for tri in _triangles(rng, d):
        q = batch_closest_point_triangle(lanes, tri)
        dist = batch_dist_point_triangle(lanes, tri)
        for i, p in enumerate(pts):
            assert _lane(q, i) == closest_point_triangle(p, tri)[0], (p, tri)
            assert dist[i] == dist_point_triangle(p, tri), (p, tri)


def test_batch_best_edge_fallback_equals_scalar(rng):
    # closest_point_triangle falls back to the nearest edge when its face
    # denominator is 0.0.  Only rounding gets there (the edge regions of
    # exactly collinear vertices cover every point), so the fallback is
    # checked against the scalar rule directly, on proper and collinear
    # triangles: the first edge whose distance no later edge beats.
    for d in (2, 3):
        collinear = [tuple(_floats(np.array(p) * c) for c in cs) for p in
                     _grid(d, (1, -2))[:2] for cs in ((0, 1, 3), (2, 0, 1), (1, 1, 4))]
        pts = _grid(d, range(-2, 5))
        for tri in _triangles(rng, d) + collinear:
            got = _best_edge_point(_lanes(pts), tri)
            for i, p in enumerate(pts):
                best = None
                for j in range(3):
                    q, _ = closest_point_segment(p, tri[j], tri[(j + 1) % 3])
                    if best is None or vdist(p, q) < best[0]:
                        best = (vdist(p, q), q)
                assert _lane(got, i) == best[1], (p, tri)


def test_point_triangle_with_coincident_vertices():
    # an edge branch of closest_point_triangle whose denominator is 0.0 is
    # skipped, so a later branch or the best-edge fallback answers
    tri = ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    assert dist_point_triangle((0.5, 1.0), tri, degenerate_ok=True) == 1.0
    for d in (2, 3):
        pts = _grid(d, range(-2, 5))
        lanes = _lanes(pts)
        a, b = _floats((1,) * d), _floats((3, -1, 2)[:d])
        for tri, end in (((a, a, b), b), ((a, b, a), b), ((b, a, a), b),
                         ((a, a, a), a)):
            dist = batch_dist_point_triangle(lanes, tri)
            for i, p in enumerate(pts):
                want = dist_point_triangle(p, tri, degenerate_ok=True)
                q, _ = closest_point_segment(p, a, end)
                assert abs(want - vdist(p, q)) <= 1e-12, (p, tri)
                assert dist[i] == want, (p, tri)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_segment_segment_equals_scalar(rng, d):
    # every pair of segments over a small integer grid: parallel, collinear
    # (overlapping, touching and apart), crossing, zero-length on either or
    # both sides; then random and nearly parallel pairs
    grid = _grid(d, (0, 1, 2)) if d == 2 else \
        [_floats(p) for p in itertools.product((0, 1, 2), (0, 1), (0, 1))]
    pairs = [(s, t) for s in _segments(grid) for t in _segments(grid)]
    for _ in range(200):
        a, b, c = (_floats(p) for p in rng.uniform(-1, 1, size=(3, d)))
        e = _floats(rng.normal(size=d) * 1e-9)
        nearly_parallel = tuple(x + y - z + w for x, y, z, w in zip(c, b, a, e))
        pairs.append(((a, b), (c, nearly_parallel)))
        pairs.append(((a, b), tuple(_floats(p)
                                    for p in rng.uniform(-1, 1, size=(2, d)))))
    (p1, q1), (p2, q2) = ([_lanes(side) for side in zip(*segs)] for segs in zip(*pairs))
    dist = batch_closest_segment_segment(p1, q1, p2, q2)
    for i, ((a, b), (c, e)) in enumerate(pairs):
        assert dist[i] == closest_segment_segment(a, b, c, e)[0], (a, b, c, e)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_segment_triangle_equals_scalar(rng, d):
    # segments over an integer grid around triangles with integer vertices:
    # crossings through the interior, an edge or a vertex, endpoints on the
    # plane, coplanar contact and overlap (3-D), plus random segments
    if d == 2:
        grid = _grid(2, range(-1, 4))
    else:
        grid = [_floats(p) for p in
                itertools.product(range(-1, 3), range(-1, 3), (-1, 0, 1))]
    segs = _segments(grid) + [tuple(_floats(p) for p in rng.uniform(-2, 3, size=(2, d)))
                              for _ in range(200)]
    a, b = (_lanes(side) for side in zip(*segs))
    for tri in _triangles(rng, d):
        crosses = batch_segment_crosses_triangle(a, b, tri)
        dist = batch_dist_segment_triangle((a, b), tri)
        for i, seg in enumerate(segs):
            assert crosses[i] == segment_crosses_triangle(*seg, tri), (seg, tri)
            assert dist[i] == dist_segment_triangle(seg, tri), (seg, tri)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_triangle_triangle_equals_scalar(rng, d):
    # integer triangles against their integer translates (touching, coplanar
    # overlap, crossing), then random pairs
    base = _triangles(rng, d)
    pairs = [(t, tuple(_floats(np.add(p, v)) for p in u))
             for t in base[:4] for u in base[:4] for v in _grid(d, (-1, 0, 1))]
    pairs += [(base[i], base[j]) for i in range(len(base)) for j in range(len(base))]
    pairs += [tuple(tuple(_floats(p) for p in rng.uniform(-1, 1, size=(3, d)))
                    for _ in range(2)) for _ in range(100)]
    t1, t2 = ([_lanes(pts) for pts in zip(*side)] for side in zip(*pairs))
    dist = batch_dist_triangle_triangle(t1, t2)
    for i, (u, v) in enumerate(pairs):
        assert dist[i] == dist_triangle_triangle(u, v, degenerate_ok=True), (u, v)


def test_tables_equal_scalar_and_check_every_triangle(rng):
    tris = _triangles(rng, 3)
    pts = _grid(3, range(-1, 3))
    segs = list(zip(pts, pts[5:] + pts[:5]))
    assert point_triangle_table(pts, tris).tolist() == \
        [[dist_point_triangle(p, t) for t in tris] for p in pts]
    assert segment_triangle_table(segs, tris).tolist() == \
        [[dist_segment_triangle(s, t) for t in tris] for s in segs]
    assert triangle_triangle_table(tris, tris[::-1]).tolist() == \
        [[dist_triangle_triangle(u, v) for v in tris[::-1]] for u in tris]
    degen = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    with pytest.raises(GeometryError):
        dist_triangle_triangle(tris[0], degen)
    for fill in (lambda: point_triangle_table(pts, tris + [degen]),
                 lambda: segment_triangle_table(segs, [degen] + tris),
                 lambda: triangle_triangle_table(tris, tris + [degen]),
                 lambda: triangle_triangle_table([degen], tris)):
        with pytest.raises(GeometryError):
            fill()


def test_closest_point_features():
    _, feat = closest_point_triangle((0.25, 0.25, 1.0), TRI)
    assert feat == ("face", 0)
    _, feat = closest_point_triangle((2.0, 0.0, 0.0), TRI)
    assert feat == ("vertex", 1)
    _, feat = closest_point_triangle((0.5, -1.0, 0.0), TRI)
    assert feat == ("edge", 0)


@pytest.mark.parametrize("d", [2, 3])
def test_feature_regions_name_the_nearest_feature(rng, d):
    # a point strictly inside one region is in no other, and the triangle's
    # nearest feature to it is that region's feature
    inside = 0
    for _ in range(25):
        tri = random_triangle(rng, d)
        planes, sides = feature_regions(tri)
        assert len(planes) == 9 and set(sides) == set(FEATURES)
        margin = -1e-9 * triangle_scale(tri) ** 2
        for p in rng.uniform(-2.0, 2.0, size=(200, d)):
            p = tuple(float(x) for x in p)
            values = [vdot(grad, p) + c for grad, c in planes]
            hits = [feat for feat in FEATURES
                    if all(side * values[k] < margin for k, side in sides[feat])]
            assert len(hits) <= 1, (tri, p, hits)
            if hits:
                assert hits[0] == closest_point_triangle(p, tri)[1], (tri, p)
                inside += 1
    assert inside > 4900


# ---------------------------------------------------------------------------
# eps-neighborhood boundary in a plane
# ---------------------------------------------------------------------------

def test_coplanar_offset_polygon():
    frame = frame_of_triangle(TRI)
    arcs = eps_neighborhood_plane_boundary(TRI, 0.1, frame)
    kinds = sorted(a.kind for a in arcs)
    assert kinds.count("segment") == 3
    assert kinds.count("ellipse") == 3
    # vertex circles, all of radius eps
    for a in arcs:
        if a.kind == "ellipse":
            assert a.rx == a.ry == 0.1


def test_plane_frame_uses_caller_tolerance():
    from frechet_surfaces import Tolerance
    loose = Tolerance(rel=1e-6)
    b1 = (1.0 + 1e-7, 0.0, 0.0)
    frame = Plane2Frame((0.0, 0.0, 0.0), b1, (0.0, 1.0, 0.0), loose)
    assert frame.tol == loose
    with pytest.raises(GeometryError):
        Plane2Frame((0.0, 0.0, 0.0), b1, (0.0, 1.0, 0.0))
    assert frame_of_triangle(TRI, loose).tol == loose


def test_plane_too_far_is_empty():
    frame = Plane2Frame((0.0, 0.0, 0.1), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert eps_neighborhood_plane_boundary(TRI, 0.05, frame) == []


def _classify_by_arcs(arcs, pts2d):
    """Point-in-region test from the arcs alone: the region is convex, so a
    vertical upward ray from an inside point crosses the boundary an odd
    number of times."""
    out = []
    for (x, y) in pts2d:
        crossings = 0
        for arc in arcs:
            for yy in arc.vertical_line_hits(x):
                if yy > y:
                    crossings += 1
        out.append(crossings % 2 == 1)
    return out


def test_neighborhood_membership_oracle(rng):
    from .conftest import random_triangle
    checked = 0
    for _ in range(12):
        tri = random_triangle(rng)
        base = random_triangle(rng)
        frame = frame_of_triangle(base)
        eps = float(rng.uniform(0.2, 1.0))
        arcs = eps_neighborhood_plane_boundary(tri, eps, frame)
        if not arcs:
            continue
        pts2d = rng.uniform(-2.0, 2.0, size=(400, 2))
        arc_cls = _classify_by_arcs(arcs, pts2d)
        for (x, y), inside in zip(pts2d, arc_cls):
            p3 = frame.from_plane((x, y))
            d = dist_point_triangle(p3, tri)
            if abs(d - eps) < 1e-6:
                continue  # margin filter
            assert inside == (d <= eps), (tri, eps, (x, y), d)
            checked += 1
    assert checked > 500


def test_neighborhood_monotone_in_eps(rng):
    from .conftest import random_triangle
    tri = random_triangle(rng)
    base = random_triangle(rng)
    frame = frame_of_triangle(base)
    eps1, eps2 = 0.4, 0.7
    s1 = eps_neighborhood_plane_boundary(tri, eps1, frame)
    s2 = eps_neighborhood_plane_boundary(tri, eps2, frame)
    if not s1 or not s2:
        pytest.skip("slices degenerate for this draw")
    pts2d = rng.uniform(-2.0, 2.0, size=(300, 2))
    in1 = _classify_by_arcs(s1, pts2d)
    in2 = _classify_by_arcs(s2, pts2d)
    for (x, y), a, b in zip(pts2d, in1, in2):
        p3 = frame.from_plane((x, y))
        d = dist_point_triangle(p3, tri)
        if abs(d - eps1) < 1e-6 or abs(d - eps2) < 1e-6:
            continue
        if a:
            assert b, "eps1 region must be inside eps2 region"


def test_neighborhood_2d_offset():
    tri2 = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    arcs = eps_neighborhood_plane_boundary(
        tri2, 0.1, Plane2Frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    kinds = sorted(a.kind for a in arcs)
    assert kinds.count("segment") == 3 and kinds.count("ellipse") == 3
    assert all(a.rx == a.ry == 0.1 for a in arcs if a.kind == "ellipse")


def test_arc_residuals(rng):
    from .conftest import random_triangle
    tri = random_triangle(rng)
    base = random_triangle(rng)
    frame = frame_of_triangle(base)
    for arc in eps_neighborhood_plane_boundary(tri, 0.5, frame):
        for p in arc.sample(9):
            # every arc point sits at distance eps from the triangle
            d = dist_point_triangle(frame.from_plane(p), tri)
            assert abs(d - 0.5) < 1e-7
            assert abs(conic_value(arc.coeffs, *p)) < 1e-7


# ---------------------------------------------------------------------------
# squared-distance forms and the conic resultant
# ---------------------------------------------------------------------------

def _sqdist_to_line(p, a, u):
    w = np.subtract(p, a)
    return float(np.sum((w - (w @ u) * u) ** 2))


@pytest.mark.parametrize("d", [2, 3])
def test_segment_sqdist_quadratics_match_direct_distances(rng, d):
    for _ in range(50):
        s0, s1, q, a, b = (tuple(float(c) for c in rng.uniform(-2, 2, d))
                           for _ in range(5))
        seg_d = tuple(y - x for x, y in zip(s0, s1))
        u = vunit(tuple(y - x for x, y in zip(a, b)))
        t = float(rng.uniform(-1.0, 2.0))
        p = np.add(s0, t * np.asarray(seg_d))
        for (A, B, C), expected in (
                (point_sqdist_quadratic(s0, seg_d, q), float(np.sum((p - q) ** 2))),
                (line_sqdist_quadratic(s0, seg_d, a, u),
                 _sqdist_to_line(p, a, np.asarray(u)))):
            assert math.isclose(A * t * t + B * t + C, expected,
                                rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_feature_sqdist_conic_matches_direct_distances(rng, d):
    from .conftest import random_triangle
    for _ in range(10):
        tri = random_triangle(rng, d)
        frame = frame_of_triangle(random_triangle(rng, d))
        pts = np.asarray(tri)
        for kind, idx in FEATURES:
            conic = feature_sqdist_conic(frame, tri, (kind, idx))
            if kind == "face" and d == 2:
                assert conic is None
                continue
            for x, y in rng.uniform(-2, 2, size=(5, 2)):
                p = np.asarray(frame.from_plane((x, y)))
                if kind == "vertex":
                    expected = float(np.sum((p - pts[idx]) ** 2))
                elif kind == "edge":
                    axis = pts[(idx + 1) % 3] - pts[idx]
                    expected = _sqdist_to_line(p, pts[idx], axis / np.linalg.norm(axis))
                else:
                    n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
                    expected = float((n @ (p - pts[0])) ** 2 / (n @ n))
                assert math.isclose(conic_value(conic, x, y), expected,
                                    rel_tol=1e-9, abs_tol=1e-12)


def test_conic_y_resultant_floats_equal_array_rows(rng):
    C1 = rng.normal(size=(60, 6))
    C2 = rng.normal(size=(60, 6))
    C1[::3, 2] = 0.0   # linear in y
    C2[::2, 2] = 0.0
    quartic, cubic = conic_y_resultant(C1.T, C2.T)
    quartic = np.stack(quartic, axis=1)
    cubic = np.stack(cubic, axis=1)
    ref_quartic, ref_cubic = resultant_rows(C1, C2)
    assert np.array_equal(quartic, ref_quartic)
    assert np.array_equal(cubic, ref_cubic)
    for r in range(len(C1)):
        q, c = conic_y_resultant(tuple(C1[r].tolist()), tuple(C2[r].tolist()))
        assert q == tuple(quartic[r].tolist())
        assert c == tuple(cubic[r].tolist())


def _conic_through(rng, p, q, y_squared):
    """Random conic (A, B, C, D, E, F) through the points p and q, with no
    y^2 term unless y_squared."""
    A, B, E = rng.normal(size=3)
    C = float(rng.uniform(0.5, 2.0)) if y_squared else 0.0
    rest = [A * x * x + B * x * y + C * y * y + E * y for x, y in (p, q)]
    D = -(rest[0] - rest[1]) / (p[0] - q[0])
    F = -rest[0] - D * p[0]
    return tuple(float(c) for c in (A, B, C, D, E, F))


@pytest.mark.parametrize("y_squared", [(True, True), (False, True), (False, False)],
                         ids=["both_quadratic", "one_linear", "both_linear"])
def test_conic_y_resultant_vanishes_at_intersections(rng, y_squared):
    for _ in range(20):
        p, q = (tuple(float(c) for c in rng.uniform(-1, 1, 2)) for _ in range(2))
        if abs(p[0] - q[0]) < 0.2:
            continue
        c1 = _conic_through(rng, p, q, y_squared[0])
        c2 = _conic_through(rng, p, q, y_squared[1])
        quartic, cubic = conic_y_resultant(c1, c2)
        poly = quartic if any(y_squared) else cubic
        for x, _ in (p, q):
            value = sum(c * x ** i for i, c in enumerate(poly))
            assert abs(value) <= 1e-9 * sum(abs(c * x ** i) for i, c in enumerate(poly))
        if not any(y_squared):
            continue  # no arc is a curved conic linear in y
        pts = conic_conic_points(c1, c2, -1.5, 1.5)
        for r in (p, q):
            assert min(math.dist(r, s) for s in pts) < 1e-6


def test_conics_identical_uses_tolerance():
    from frechet_surfaces import Tolerance
    c1 = (1.0, 0.2, 2.0, -0.5, 0.3, -1.0)
    # the same conic scaled by -3, with its largest coefficient off by 1e-8
    c2 = tuple(-3.0 * c for c in (1.0, 0.2, 2.0 * (1.0 + 1e-8), -0.5, 0.3, -1.0))
    assert conics_identical(c1, tuple(-3.0 * c for c in c1))
    assert not conics_identical(c1, c2)
    assert conics_identical(c1, c2, Tolerance(rel=1e-7))


# ---------------------------------------------------------------------------
# arc intersections
# ---------------------------------------------------------------------------

def test_two_unit_circles():
    a = make_ellipse_arc((0.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi, ("vertex", 0))
    b = make_ellipse_arc((1.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi, ("vertex", 1))
    pts = sorted(arc_pair_intersections(a, b), key=lambda p: p[1])
    assert len(pts) == 2
    assert abs(pts[0][0] - 0.5) < 1e-9 and abs(pts[0][1] + math.sqrt(3) / 2) < 1e-9
    assert abs(pts[1][0] - 0.5) < 1e-9 and abs(pts[1][1] - math.sqrt(3) / 2) < 1e-9


def test_disjoint_circles():
    a = make_ellipse_arc((0.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi, ("vertex", 0))
    b = make_ellipse_arc((5.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi, ("vertex", 1))
    assert arc_pair_intersections(a, b) == []


def test_identical_circles_error():
    a = make_ellipse_arc((0.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi, ("vertex", 0))
    b = make_ellipse_arc((0.0, 0.0), 1.0, 1.0, 0.0, 0.5, 1.5, ("vertex", 1))
    with pytest.raises(OverlappingArcsError):
        arc_pair_intersections(a, b)


def test_segment_circle_intersections(rng):
    circle = make_ellipse_arc((0.0, 0.0), 1.0, 1.0, 0.0, 0.0, 2 * math.pi,
                              ("vertex", 0))
    seg = make_segment_arc((-2.0, 0.3), (2.0, 0.3))
    pts = sorted(arc_pair_intersections(circle, seg))
    x = math.sqrt(1 - 0.09)
    assert len(pts) == 2
    assert abs(pts[0][0] + x) < 1e-9 and abs(pts[1][0] - x) < 1e-9


@pytest.mark.parametrize("a, b, expected", [
    (((0.0, 0.0), (2.0, 2.0)), ((0.0, 2.0), (2.0, 0.0)), [(1.0, 1.0)]),
    (((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 1.0)), [(1.0, 0.0)]),
    (((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 1.0)), []),
    (((0.0, 0.0), (0.0, 1.0)), ((0.5, 0.0), (0.5, 1.0)), []),
    (((0.5, -1.0), (0.5, 1.0)), ((0.0, 0.0), (1.0, 0.5)), [(0.5, 0.25)]),
    (((0.5, -1.0), (0.5, 1.0)), ((0.0, 0.0), (0.25, 0.5)), []),
], ids=["crossing", "endpoint_touch", "parallel", "two_vertical",
        "vertical_slanted", "vertical_slanted_apart"])
def test_segment_pair_crossing_in_closed_form(a, b, expected):
    for first, second in ((a, b), (b, a)):
        pts = arc_pair_intersections(make_segment_arc(*first),
                                     make_segment_arc(*second))
        assert len(pts) == len(expected)
        for p, q in zip(pts, expected):
            assert math.dist(p, q) < 1e-12


def test_collinear_segment_overlap_raises():
    a = make_segment_arc((0.0, 0.0), (1.0, 1.0))
    b = make_segment_arc((0.5, 0.5), (2.0, 2.0))
    with pytest.raises(OverlappingArcsError):
        arc_pair_intersections(a, b)
    # collinear segments that touch at one end meet in that point
    c = make_segment_arc((1.0, 1.0), (2.0, 2.0))
    assert arc_pair_intersections(a, c) == [(1.0, 1.0)]


def test_random_arc_intersections_vs_sampling(rng):
    from .conftest import random_triangle
    # build arcs from real neighborhood slices and compare against dense
    # sampled sign changes of the implicit equations
    tri1 = random_triangle(rng)
    tri2 = random_triangle(rng)
    base = random_triangle(rng)
    frame = frame_of_triangle(base)
    s1 = eps_neighborhood_plane_boundary(tri1, 0.6, frame)
    s2 = eps_neighborhood_plane_boundary(tri2, 0.6, frame)
    count_checked = 0
    for a in s1:
        for b in s2:
            try:
                pts = arc_pair_intersections(a, b)
            except OverlappingArcsError:
                continue
            # every reported point lies on both arcs
            for p in pts:
                assert abs(conic_value(a.coeffs, *p)) < 1e-6
                assert abs(conic_value(b.coeffs, *p)) < 1e-6
                assert a.param_of_point(p) is not None
                assert b.param_of_point(p) is not None
            # sampled sign-change count never exceeds reported intersections
            samples = a.sample(400)
            signs = [conic_value(b.coeffs, *p) for p in samples]
            flips = sum(1 for u, v in zip(signs, signs[1:])
                        if (u < 0) != (v < 0))
            inside = sum(1 for p0 in samples
                         if b.param_of_point(p0) is not None)
            if inside == len(samples):
                assert flips <= len(pts) + 1
                count_checked += 1
    # at least some pairs exercised
    assert count_checked >= 0
