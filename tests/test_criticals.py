import math
from itertools import combinations

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from frechet_surfaces import (CriticalValue, PairGeometry, critical_values_2c,
                              critical_values_C1, criticals)
from frechet_surfaces.criticals import (_batched_poly_roots,
                                        _certified_root_free, _feature_ranges,
                                        equidistance_values_on_segment,
                                        segment_features,
                                        triple_equidistance_values)
from frechet_surfaces.geometry import (FEATURES, closest_point_segment,
                                       conic_y_resultant, dist_point_triangle,
                                       frame_of_triangle, triangle_shape, vdist)
from frechet_surfaces.surface import ParamTriangulation, Surface
from frechet_surfaces import validate
from .conftest import (bumped_grid_surface, flat_surface, random_surface_pair,
                       random_triangle, translate_surface)
from .oracles import (batched_poly_roots_eig, points_triangle_dist,
                      region_breakpoints_loops, triple_equidistance_scan,
                      unsplit_critical_values_C1)
from .test_decision import _count_primitive_calls, _count_calls


def kinds_with_value(vals, target, tol=1e-9):
    return {cv.kind for cv in vals if abs(cv.value - target) <= tol}


def test_translate_has_h_as_T2a_and_T2d():
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.4))
    vals = critical_values_C1(f, g)
    kinds = kinds_with_value(vals, 0.4)
    assert "T2a" in kinds
    assert "T2d" in kinds


def test_identical_surfaces_have_zero_T1():
    f = flat_surface()
    vals = critical_values_C1(f, f)
    assert any(cv.kind == "T1" and cv.value <= 1e-12 for cv in vals)


def test_C1_without_parallel_triangles_computes_no_cell_distance(rng,
                                                                 monkeypatch):
    # no T2d value comes from a cell distance; the one geometry of the call
    # builds each primitive table by one batched call per surface
    calls = _count_primitive_calls(monkeypatch)
    f, g = random_surface_pair(rng, tri_range=(4, 6))
    vals = critical_values_C1(f, g)
    assert not any(cv.kind == "T2d" and cv.provenance[0] == "K-tri"
                   for cv in vals)
    assert [len(c) for c in calls.values()] == [2, 2, 2]


def test_sorted_and_deduped(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 6))
    vals = critical_values_C1(f, g)
    assert [cv.value for cv in vals] == sorted(cv.value for cv in vals)
    per_kind = {}
    for cv in vals:
        per_kind.setdefault(cv.kind, []).append(cv.value)
    for kind, vs in per_kind.items():
        for a, b in zip(vs, vs[1:]):
            assert b - a > 1e-12, f"{kind} not deduplicated"


# ---------------------------------------------------------------------------
# T2b oracle: dense scan of the equidistance locus along an edge
# ---------------------------------------------------------------------------

def scan_t2b(seg, tri_a, tri_b, n=100_000):
    """Dense scan for sign changes of d_a - d_b along the segment, refined by
    bisection; returns the smallest common distance."""
    a = np.asarray(seg[0], dtype=float)
    b = np.asarray(seg[1], dtype=float)
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    da = points_triangle_dist(pts, tri_a)
    db = points_triangle_dist(pts, tri_b)
    diff = da - db

    def eval_at(t):
        p = tuple(a + t * (b - a))
        return (dist_point_triangle(p, tri_a, degenerate_ok=True),
                dist_point_triangle(p, tri_b, degenerate_ok=True))

    best = None
    hits = list(np.where(np.abs(diff) < 1e-9)[0])
    for i in hits:
        daa, dbb = eval_at(float(ts[i]))
        best = daa if best is None else min(best, daa)
    flips = np.where(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]
    for i in flips:
        lo, hi = float(ts[i]), float(ts[i + 1])
        flo = float(diff[i])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            daa, dbb = eval_at(mid)
            fm = daa - dbb
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo < 0) != (fm < 0):
                hi = mid
            else:
                lo, flo = mid, fm
        daa, dbb = eval_at(0.5 * (lo + hi))
        if abs(daa - dbb) < 1e-6:
            v = 0.5 * (daa + dbb)
            best = v if best is None else min(best, v)
    return best


def test_t2b_matches_scan_oracle(rng):
    checked = 0
    for _ in range(30):
        tri_a = random_triangle(rng)
        tri_b = random_triangle(rng)
        seg = (tuple(float(c) for c in rng.uniform(-1, 1, size=3)),
               tuple(float(c) for c in rng.uniform(-1, 1, size=3)))
        mine = equidistance_values_on_segment(seg, tri_a, tri_b)
        oracle = scan_t2b(seg, tri_a, tri_b)
        if oracle is None:
            # no equidistant point found by the scan: any candidates we emit
            # must still be genuine (already verified internally); skip
            continue
        assert mine, "scan found an equidistance point but enumeration did not"
        assert abs(min(mine) - oracle) < 1e-4
        checked += 1
    assert checked >= 10


def test_t2b_verified_equidistant(rng):
    for _ in range(20):
        tri_a = random_triangle(rng)
        tri_b = random_triangle(rng)
        seg = (tuple(float(c) for c in rng.uniform(-1, 1, size=3)),
               tuple(float(c) for c in rng.uniform(-1, 1, size=3)))
        for v in equidistance_values_on_segment(seg, tri_a, tri_b):
            assert v >= 0.0


def test_t2b_breakpoints_equal_plane_loops(rng):
    # the shared region planes cut a segment exactly where T2b's own plane
    # loops did, also on triangles with two coincident vertices
    crossings = 0
    for d in (2, 3):
        for trial in range(60):
            a, b, c = random_triangle(rng, d)
            tri = [(a, b, c), (a, a, c), (a, b, a), (a, b, b)][trial % 4]
            seg = tuple(tuple(float(x) for x in p)
                        for p in rng.uniform(-1.5, 1.5, size=(2, d)))
            breaks = segment_features(seg, tri)[0]
            assert set(breaks) == set(region_breakpoints_loops(seg, tri))
            crossings += len(breaks)
    assert crossings > 200


# ---------------------------------------------------------------------------
# T2c
# ---------------------------------------------------------------------------

def make_symmetric_2c_instance():
    """Query surface in the z=0 plane; partner surface is a 6-triangle fan
    whose triangles 0, 2, 4 are 120-degree rotations of each other about the
    z-axis, so the origin is equidistant to the three of them."""
    fq = flat_surface(scale=2.0, origin=(-1.0, -1.0, 0.0))  # covers origin

    def rot(p, ang):
        c, s = math.cos(ang), math.sin(ang)
        return (c * p[0] - s * p[1], s * p[0] + c * p[1], p[2])

    p0 = (0.9, 0.15, 0.55)
    p1 = (0.55, 0.8, 0.9)
    apex = (0.0, 0.0, 1.3)
    ang = 2.0 * math.pi / 3.0
    ring = [p0, p1, rot(p0, ang), rot(p1, ang), rot(p0, 2 * ang), rot(p1, 2 * ang)]
    # parameter fan: center + 6 boundary vertices of the unit square
    verts = [(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (1.0, 0.5),
             (1.0, 1.0), (0.0, 1.0), (0.0, 0.5)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)]
    param = ParamTriangulation.create(verts, tris)
    imgs = [apex] + ring
    g = Surface.create(param, imgs)
    assert validate(g) == [], validate(g)
    return fq, g


def test_t2c_symmetric_construction():
    fq, g = make_symmetric_2c_instance()
    expected = dist_point_triangle((0.0, 0.0, 0.0), g.image_triangle(0))
    vals = critical_values_2c(fq, g, 0.0, expected * 2.0)
    hits = [cv for cv in vals
            if cv.kind == "T2c" and abs(cv.value - expected) < 1e-6]
    assert hits, ([cv.value for cv in vals], expected)
    # provenance names the symmetric triple
    assert any(set(cv.provenance[3]) == {0, 2, 4} for cv in hits)


def test_t2c_no_equidistant_point():
    # partners far on one side: no point of the query triangle is equidistant
    # to three of them inside the triangle at small eps
    fq = flat_surface()
    g = translate_surface(flat_surface(), (5.0, 0.0, 0.0))
    vals = critical_values_2c(fq, g, 0.0, 0.5)
    assert vals == []


def scan_t2c(frame, tri2d, tris, res=500):
    """2D grid scan minimizing the max pairwise distance deviation."""
    xs = np.linspace(min(p[0] for p in tri2d), max(p[0] for p in tri2d), res)
    ys = np.linspace(min(p[1] for p in tri2d), max(p[1] for p in tri2d), res)
    X, Y = np.meshgrid(xs, ys)
    P2 = np.stack([X.ravel(), Y.ravel()], axis=1)
    # inside test
    def inside(p2):
        def area(a, b, c):
            return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
        s = area(*tri2d)
        sgn = 1.0 if s > 0 else -1.0
        return all(area(tri2d[i], tri2d[(i+1) % 3], p2) * sgn >= 0 for i in range(3))
    mask = np.array([inside(p) for p in P2])
    P2 = P2[mask]
    P3 = np.array([frame.from_plane(p) for p in P2])
    ds = [points_triangle_dist(P3, t) for t in tris]
    D = np.stack(ds, axis=1)
    dev = D.max(axis=1) - D.min(axis=1)
    i = int(np.argmin(dev))
    return float(dev[i]), float(D[i].mean()), P2[i]


def test_t2c_matches_grid_scan():
    from frechet_surfaces.geometry import frame_of_triangle
    fq, g = make_symmetric_2c_instance()
    k = 0  # query triangle of fq containing the origin
    tri_img = fq.image_triangle(k)
    frame = frame_of_triangle(tri_img)
    tri2d = [frame.to_plane(v) for v in tri_img]
    tris = [g.image_triangle(i) for i in (0, 2, 4)]
    dev, val, _ = scan_t2c(frame, tri2d, tris)
    assert dev < 1e-2
    vals = critical_values_2c(fq, g, 0.0, 3.0)
    assert any(abs(cv.value - val) < 1e-2 for cv in vals)


def test_t2c_random_candidates_are_genuine(rng):
    from frechet_surfaces.geometry import frame_of_triangle
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    vals = critical_values_2c(f, g, 0.0, 1.5)
    for cv in vals:
        tag, q, _, triple = cv.provenance
        sq, so = (f, g) if tag == "K-tri" else (g, f)
        # the reported value is a genuine common distance of the triple
        # somewhere in the plane of the query triangle: re-verify via scan
        frame = frame_of_triangle(sq.image_triangle(q))
        tri2d = [frame.to_plane(v) for v in sq.image_triangle(q)]
        tris = [so.image_triangle(i) for i in triple]
        dev, val, _ = scan_t2c(frame, tri2d, tris, res=220)
        # scan found some near-equidistant point; our value is one of the
        # equidistance events so it should not undercut the scan's best
        assert dev < 5e-2


def test_t2c_narrow_bracket_keeps_symmetric_value():
    # the shape of the bracket that compute hands to 2c: pruning by feature
    # distance ranges is tightest here
    fq, g = make_symmetric_2c_instance()
    expected = dist_point_triangle((0.0, 0.0, 0.0), g.image_triangle(0))
    vals = critical_values_2c(fq, g, expected * (1.0 - 1e-6),
                              expected * (1.0 + 1e-6))
    hits = [cv for cv in vals if abs(cv.value - expected) < 1e-9]
    assert any(set(cv.provenance[3]) == {0, 2, 4} for cv in hits), \
        ([cv.value for cv in vals], expected)


# a host image triangle and three image triangles of the other surface that
# share their vertex V: at points whose nearest point on all three is V, the
# three distances agree whichever feature row's conics meet there
_SHARED_V = (-0.40021695871619933, 0.26060538325311494, 0.11751595566996365)
_SHARED_VERTEX_HOST = ((0.12451820164135258, 0.7262982762626384, 0.1642535100319828),
                       (0.07112651522156244, 0.010965237720125143, 0.12335983321752214),
                       (0.11857743933838433, 0.5138805376191721, 0.45349933180958896))
_SHARED_VERTEX_OTHERS = [
    (0, ((-0.03645751646149436, -0.023033540876893153, -0.36978773301575013),
         _SHARED_V,
         (-0.2915102339419734, -0.17007004429197564, 0.11058166660473912))),
    (2, (_SHARED_V,
         (-0.7213288951860272, -0.3582923762071068, 0.8587748455890953),
         (-0.5355658214441771, -0.16094571654975356, 0.5203165901858935))),
    (3, (_SHARED_V,
         (-0.5355658214441771, -0.16094571654975356, 0.5203165901858935),
         (-0.2915102339419734, -0.17007004429197564, 0.11058166660473912))),
]


def test_t2c_rejects_roots_of_rows_whose_features_are_not_nearest():
    # a random pair drawn by the benchmark's generator reported 0.65877...
    # here, a root of the row (edge 0, edge 1, vertex 0) at a point whose
    # nearest feature on all three triangles is V; every range is (0, inf),
    # so the feature-range pruning cannot hide such a root
    from frechet_surfaces.geometry import frame_of_triangle
    frame = frame_of_triangle(_SHARED_VERTEX_HOST)
    tri2d = [frame.to_plane(p) for p in _SHARED_VERTEX_HOST]
    ranges = [[(0.0, math.inf)] * len(FEATURES) for _ in _SHARED_VERTEX_OTHERS]
    vals = triple_equidistance_values(frame, tri2d, _SHARED_VERTEX_OTHERS,
                                      ranges, 0.0, 1.0)
    assert vals == []


def _synthetic_t2c_input(rng, d):
    """A host triangle and three to five partner triangles drawn from six
    shared points, so partners meet at coincident vertices, with a random
    bracket and either (0, inf) or random feature ranges, some empty."""
    host = random_triangle(rng, d)
    frame = frame_of_triangle(host)
    tri2d = [frame.to_plane(p) for p in host]
    pool = [tuple(float(c) for c in rng.uniform(-1.0, 1.0, d)) for _ in range(6)]
    n_others = int(rng.integers(3, 6))
    others = []
    while len(others) < n_others:
        tri = tuple(pool[i] for i in rng.choice(len(pool), 3, replace=False))
        if triangle_shape(tri, 1e-3)[0] == "proper":
            others.append((len(others), tri))
    lo = float(rng.uniform(0.0, 0.5))
    hi = lo + float(rng.uniform(0.1, 1.5))
    if rng.random() < 0.5:
        ranges = [[(0.0, math.inf)] * len(FEATURES) for _ in others]
    else:
        ranges = []
        for _ in others:
            lb = rng.uniform(0.0, 1.0, len(FEATURES))
            ub = lb + rng.uniform(-0.05, 1.0, len(FEATURES))
            ranges.append([(float(a), float(b)) for a, b in zip(lb, ub)])
    return frame, tri2d, others, ranges, lo, hi


def test_t2c_rows_equal_triple_scan(rng, monkeypatch):
    # the pairwise row filter, the batches and the no-root certificate change
    # no value: the inputs critical_values_2c hands over on random pairs, 200
    # synthetic ones and the shared-vertex fixture give what the per-triple
    # scan gives, float for float and in the same order
    inputs = []
    calls = _count_calls(monkeypatch, criticals, "triple_equidistance_values")
    for n in range(4):
        f, g = random_surface_pair(rng, d=2 + n % 2, tri_range=(4, 5))
        for lo, hi in ((0.0, 1.5), (0.3, 0.9)):
            critical_values_2c(f, g, lo, hi)
    monkeypatch.undo()
    inputs += [args[:6] for args in calls]
    inputs += [_synthetic_t2c_input(rng, 2 + n % 2) for n in range(200)]
    frame = frame_of_triangle(_SHARED_VERTEX_HOST)
    inputs.append((frame, [frame.to_plane(p) for p in _SHARED_VERTEX_HOST],
                   _SHARED_VERTEX_OTHERS,
                   [[(0.0, math.inf)] * len(FEATURES)] * len(_SHARED_VERTEX_OTHERS),
                   0.0, 1.0))
    assert len(inputs) >= 240
    expected = [repr(triple_equidistance_scan(*args)) for args in inputs]
    got = [repr(triple_equidistance_values(*args)) for args in inputs]
    assert got == expected
    assert sum(e != "[]" for e in expected) >= 20
    # one triple per batch
    monkeypatch.setattr(criticals, "_BATCH_ROWS", 1)
    assert [repr(triple_equidistance_values(*args)) for args in inputs] == expected


def _poly_interval(rng):
    """An interval near 0 or near +-1e3, 1e-3 to 3 wide."""
    centre = float(rng.choice([0.0, 1e3, -1e3])) + rng.uniform(-1.0, 1.0)
    width = 10.0 ** rng.uniform(-3.0, 0.5)
    return centre - 0.5 * width, centre + 0.5 * width


def _roots_at_interval(rng, lo, hi, deg):
    """Roots inside [lo, hi], at its ends, just inside or outside them,
    double, in nearly real complex pairs, and far roots that leave a leading
    coefficient of about 1e-11."""
    width = hi - lo
    roots = []
    while len(roots) < deg:
        kind = int(rng.integers(0, 6))
        free = deg - len(roots)
        if kind == 0:
            roots.append(rng.uniform(lo, hi))
        elif kind == 1:
            roots.append(float(rng.choice([lo, hi])))
        elif kind == 2:
            roots.append(float(rng.choice([lo, hi]))
                         + rng.choice([-1.0, 1.0]) * width * 10.0 ** rng.uniform(-12, -3))
        elif kind == 3 and free >= 2:
            roots += [rng.uniform(lo, hi)] * 2
        elif kind == 4 and free >= 2:
            re = rng.uniform(lo, hi)
            im = 1e-8 * (1.0 + abs(re)) * rng.uniform(0.3, 3.0)
            roots += [complex(re, im), complex(re, -im)]
        elif kind == 5 and roots:
            roots.append(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(10.5, 11.5))
    return roots


def _roots_off_interval(rng, lo, hi, deg):
    """Real roots half a width to three widths outside [lo, hi], and complex
    pairs over it half a width to two widths off the real axis."""
    width = hi - lo
    roots = []
    while len(roots) < deg:
        if deg - len(roots) >= 2 and rng.random() < 0.5:
            re = rng.uniform(lo, hi)
            im = width * rng.uniform(0.5, 2.0)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(float(rng.choice([lo - width * rng.uniform(0.5, 3.0),
                                           hi + width * rng.uniform(0.5, 3.0)])))
    return roots


def _poly_rows(rng, n, roots, near_zero=False):
    """n rows of degree 1-4 polynomials (lowest degree first, five columns)
    with the given roots and a random scale, and their intervals."""
    coeffs = np.zeros((n, 5))
    xlo = np.zeros(n)
    xhi = np.zeros(n)
    for r in range(n):
        lo, hi = _poly_interval(rng)
        if near_zero:
            lo, hi = lo - round(lo), hi - round(lo)
        c = P.polyfromroots(roots(rng, lo, hi, int(rng.integers(1, 5)))).real
        coeffs[r, :len(c)] = c * 10.0 ** rng.uniform(-3.0, 3.0)
        xlo[r], xhi[r] = lo, hi
    return coeffs, xlo, xhi


def _certified_by_degree(coeffs, xlo, xhi):
    """{degree: (rows, certified mask)} for the rows of degree 3 and 4, as
    _batched_poly_roots normalizes and trims them."""
    norm = coeffs / np.abs(coeffs).max(axis=1, keepdims=True)
    degs = np.array([max([0] + [d for d in range(1, 5) if abs(row[d]) > 1e-12])
                     for row in norm])
    out = {}
    for d in (3, 4):
        rows = np.flatnonzero(degs == d)
        out[d] = rows, _certified_root_free(norm[rows, :d + 1], xlo[rows], xhi[rows])
    return out


def test_certificate_keeps_every_row_with_a_root(rng):
    coeffs, xlo, xhi = _poly_rows(rng, 4000, _roots_at_interval)
    rows, xs = _batched_poly_roots(coeffs, xlo, xhi)
    eig_rows, eig_xs = batched_poly_roots_eig(coeffs, xlo, xhi)
    assert len(set(eig_rows.tolist())) > 2000
    assert np.array_equal(rows, eig_rows) and np.array_equal(xs, eig_xs)
    with_root = set(eig_rows.tolist())
    for d, (deg_rows, certified) in _certified_by_degree(coeffs, xlo, xhi).items():
        assert len(deg_rows) > 300
        assert not with_root & set(deg_rows[certified].tolist()), d


def test_certificate_skips_most_root_free_rows(rng):
    coeffs, xlo, xhi = _poly_rows(rng, 4000, _roots_off_interval, near_zero=True)
    assert len(batched_poly_roots_eig(coeffs, xlo, xhi)[0]) == 0
    certified = np.concatenate([c for _, c in
                                _certified_by_degree(coeffs, xlo, xhi).values()])
    assert len(certified) > 1000
    assert certified.mean() > 0.5


def test_batched_poly_roots_keep_the_double_root_of_coaxial_circles(rng):
    # two intersecting circles centred on one horizontal line: their
    # y-resultant is a perfect square, whose double root at the common x has
    # a discriminant that rounds to either sign
    n = 2000
    cy, x1 = rng.uniform(-1.0, 1.0, size=(2, n))
    d = rng.uniform(0.1, 1.0, n)
    x2 = x1 + d
    r1 = rng.uniform(0.2, 1.0, n)
    r2 = rng.uniform(np.abs(d - r1), d + r1)
    one, zero = np.ones(n), np.zeros(n)
    circles = [np.stack([one, zero, one, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - r * r])
               for cx, r in ((x1, r1), (x2, r2))]
    polys = np.stack(conic_y_resultant(*circles)[0], axis=1)
    x = (r1 * r1 - r2 * r2 + x2 * x2 - x1 * x1) / (2.0 * (x2 - x1))
    rows, xs = _batched_poly_roots(polys, x - 0.5, x + 0.5)
    assert set(rows.tolist()) == set(range(n))
    assert np.abs(xs - x[rows]).max() < 1e-7


def test_batched_poly_roots_of_a_row_do_not_depend_on_the_batch(rng):
    coeffs, xlo, xhi = _poly_rows(rng, 300, _roots_at_interval)
    rows, xs = _batched_poly_roots(coeffs, xlo, xhi)
    together = [xs[rows == r].tolist() for r in range(len(coeffs))]
    alone = [_batched_poly_roots(coeffs[r:r + 1], xlo[r:r + 1], xhi[r:r + 1])[1].tolist()
             for r in range(len(coeffs))]
    assert together == alone
    assert sum(map(len, alone)) > 150


def _feature_distance(p, tri, feature):
    kind, idx = feature
    if kind == "vertex":
        return vdist(p, tri[idx])
    if kind == "edge":
        q, _ = closest_point_segment(p, tri[idx], tri[(idx + 1) % 3])
        return vdist(p, q)
    return dist_point_triangle(p, tri)


def test_feature_ranges_bound_sampled_distances(rng):
    n = 6
    grid = [(a / n, b / n, (n - a - b) / n)
            for a in range(n + 1) for b in range(n + 1 - a)]
    for _ in range(4):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        geo = PairGeometry(f, g)
        for q_on_f, sq, so in ((True, f, g), (False, g, f)):
            for q in range(sq.n_triangles):
                tq = sq.image_triangle(q)
                pts = [tuple(wa * x + wb * y + wc * z
                             for x, y, z in zip(*tq)) for wa, wb, wc in grid]
                for i in range(so.n_triangles):
                    ti = so.image_triangle(i)
                    ranges = _feature_ranges(geo, q_on_f, q, i)
                    assert len(ranges) == len(FEATURES)
                    for (lb, ub), feat in zip(ranges, FEATURES):
                        assert lb <= ub
                        for p in pts:
                            d = _feature_distance(p, ti, feat)
                            assert lb - 1e-12 <= d <= ub + 1e-12, (feat, lb, d, ub)


def _edge_range(geo, on_f, e, i):
    """[edge distance, larger endpoint distance] of image edge e of one
    surface to image triangle i of the other, read from the pair geometry."""
    edges, edge_dist, vertex_dist = (
        (geo.f_edges, geo.f_edge_dist, geo.f_vertex_dist) if on_f
        else (geo.g_edges, geo.g_edge_dist, geo.g_vertex_dist))
    return (edge_dist[edges.index(e), i],
            max(vertex_dist[e[0], i], vertex_dist[e[1], i]))


def test_t2b_values_lie_in_both_edge_ranges(rng):
    # the ranges C1 prunes T2b with hold every value far within their pad
    # (1e-4 at unit scale), on random pairs and the T = 8 and 32 grids
    pairs = [random_surface_pair(rng, tri_range=(4, 6)) for _ in range(3)]
    pairs += [(bumped_grid_surface(n, n, 0.25, (0.0, 0.0, 0.0)),
               bumped_grid_surface(n, n, 0.20, (0.05, -0.04, 0.3))) for n in (2, 4)]
    checked = 0
    for f, g in pairs:
        geo = PairGeometry(f, g)
        for on_f, se, st in ((True, f, g), (False, g, f)):
            edges = se.param.edges()
            # five sampled edges per side keep the T = 32 grid cheap
            for k in sorted(rng.choice(len(edges), min(len(edges), 5), replace=False)):
                e = edges[k]
                seg = se.image_segment(e)
                for i, j in combinations(range(st.n_triangles), 2):
                    for v in equidistance_values_on_segment(
                            seg, st.image_triangle(i), st.image_triangle(j)):
                        for t in (i, j):
                            lb, ub = _edge_range(geo, on_f, e, t)
                            slack = 1e-9 * max(1.0, v)
                            assert lb - slack <= v <= ub + slack, (e, t, lb, v, ub)
                        checked += 1
    assert checked >= 200


def test_bounded_C1_is_the_unbounded_list_inside_the_bounds(rng, monkeypatch):
    pruned = 0
    for _ in range(4):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        full = critical_values_C1(f, g)
        values = sorted({cv.value for cv in full})
        mids = [0.5 * (a + b) for a, b in zip(values, values[1:])]
        windows = [(values[0], values[-1])]
        for ends in (values, mids):
            for _ in range(6):
                a, b = sorted(rng.choice(len(ends), 2, replace=False))
                windows.append((ends[a], ends[b]))
        for lo, hi in windows:
            assert critical_values_C1(f, g, lo=lo, hi=hi) == \
                [cv for cv in full if lo <= cv.value <= hi], (lo, hi)
        # the window of one T2b value solves fewer triples, and finds it
        t2b = [cv for cv in full if cv.kind == "T2b"]
        if not t2b:
            continue
        v = t2b[len(t2b) // 2].value
        calls = _count_calls(monkeypatch, criticals, "equidistance_values_on_segment")
        critical_values_C1(f, g)
        n_full = len(calls)
        calls.clear()
        assert [cv for cv in critical_values_C1(f, g, lo=v, hi=v)
                if cv.kind == "T2b"] == [cv for cv in t2b if cv.value == v]
        assert 0 < len(calls) < n_full
        monkeypatch.undo()
        pruned += 1
    assert pruned >= 2


def test_C1_equals_the_unsplit_enumeration(rng):
    # the table values and the T2b values are deduplicated apart and then
    # merged; dedup works per kind, so that is the one list, float for float
    pairs = [random_surface_pair(rng, d=d, tri_range=(4, 8))
             for d in (2, 3) for _ in range(4)]
    pairs.append((bumped_grid_surface(2, 2, 0.25, (0.0, 0.0, 0.0)),
                  bumped_grid_surface(2, 2, 0.20, (0.05, -0.04, 0.3))))
    for f, g in pairs:
        full = critical_values_C1(f, g)
        assert repr(full) == repr(unsplit_critical_values_C1(f, g))
        values = [cv.value for cv in full]
        n = len(values)
        for lo, hi in ((values[n // 4], values[n // 2]),
                       (values[n // 2], values[-1]),
                       (0.5 * (values[0] + values[1]), values[n // 3]),
                       (values[n // 3], values[n // 3])):
            assert repr(critical_values_C1(f, g, lo=lo, hi=hi)) == \
                repr(unsplit_critical_values_C1(f, g, lo=lo, hi=hi)), (lo, hi)


def test_batched_poly_roots_treat_a_small_leading_coefficient_as_linear():
    # 1 - 2.95e-11 x + 8.52e-11 x^2 has no real root: its discriminant is
    # just below 0 because its x^2 coefficient is small, not because of a
    # double root, and its linear part's root lies far outside [0, 1]
    coeffs = np.array([[1.0, -2.95e-11, 8.52e-11]])
    for solve in (_batched_poly_roots, batched_poly_roots_eig):
        rows, xs = solve(coeffs, np.array([0.0]), np.array([1.0]))
        assert len(rows) == len(xs) == 0
