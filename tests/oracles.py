"""Independent oracles used to freeze expected values and cross-check the
main implementations.  Everything here is brute force on purpose and must not
share code paths with the algorithms under test.
"""

import math

import numpy as np
from scipy import ndimage

from frechet_surfaces.batched import batch_dist_point_triangle
from frechet_surfaces.coverage import CoverageRecord
from frechet_surfaces.criticals import (CriticalValue, _feature_bbox,
                                        _is_nearest_feature,
                                        _point_in_triangle_2d, _y_on_conic,
                                        critical_values_2c, critical_values_C1,
                                        dedup_critical_values,
                                        equidistance_values_on_segment,
                                        segment_features, table_critical_values)
from frechet_surfaces.decision import (MODE_EXACT, _first_true, _merged_values,
                                       decide)
from frechet_surfaces.freespace import PairGeometry
from frechet_surfaces.geometry import (FEATURES, check_triangle,
                                       closest_segment_segment, conic_value,
                                       conic_y_resultant, dist_point_triangle,
                                       feature_sqdist_conic, perp_component,
                                       vcross3, vdist, vdot, vlerp, vnorm, vsub,
                                       vunit)
from frechet_surfaces.scalar import DEFAULT_TOL, bisect_threshold
from frechet_surfaces.surface import image_diameter_bound, lipschitz_constant


def points_triangle_dist(points, tri):
    """Distances from the rows of an (n, d) array of points to a triangle."""
    return batch_dist_point_triangle(tuple(np.asarray(points, dtype=float).T), tri)


# ---------------------------------------------------------------------------
# Polynomial roots: sign-change scan + bisection refinement
# ---------------------------------------------------------------------------

def bisection_roots(coeffs, lo, hi, n_intervals=1_000_000, resolution=1e-12):
    xs = np.linspace(lo, hi, n_intervals + 1)
    vals = np.zeros_like(xs)
    for c in reversed(coeffs):
        vals = vals * xs + c
    roots = []
    zero_hits = np.where(vals == 0.0)[0]
    for i in zero_hits:
        roots.append(xs[i])
    sign = np.sign(vals)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        a, b = xs[i], xs[i + 1]
        fa = np.polyval(list(reversed(coeffs)), a)
        while b - a > resolution:
            m = 0.5 * (a + b)
            fm = np.polyval(list(reversed(coeffs)), m)
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0) != (fm < 0):
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 10 * resolution:
            continue
        merged.append(r)
    return merged


# ---------------------------------------------------------------------------
# Distance oracles by dense sampling
# ---------------------------------------------------------------------------

def sample_triangle(tri, n, rng=None, grid=False):
    A, B, C = (np.asarray(v, dtype=float) for v in tri)
    if grid:
        k = int(math.isqrt(2 * n)) + 1
        pts = []
        for i in range(k + 1):
            for j in range(k + 1 - i):
                l1 = i / k
                l2 = j / k
                pts.append((1 - l1 - l2) * A + l1 * B + l2 * C)
        return np.array(pts)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1
    u[flip] = 1 - u[flip]
    v[flip] = 1 - v[flip]
    return (1 - u - v)[:, None] * A + u[:, None] * B + v[:, None] * C


def _zoom_min(fn, n_params, k, rounds):
    """Brute-force minimization on [0,1]^n by iterated grid zoom: evaluate a
    k^n grid, keep the best cell, shrink the window around it and repeat."""
    lo = np.zeros(n_params)
    hi = np.ones(n_params)
    best = math.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], k) for i in range(n_params)]
        grids = np.meshgrid(*axes, indexing="ij")
        P = np.stack([g.ravel() for g in grids], axis=1)
        vals = fn(P)
        idx = int(np.argmin(vals))
        best = min(best, float(vals[idx]))
        center = P[idx]
        width = (hi - lo) * (2.0 / (k - 1))
        lo = np.maximum(0.0, center - width)
        hi = np.minimum(1.0, center + width)
    return best


def _bary_points(tri, L):
    """Map (l1, l2) in [0,1]^2 onto the triangle; fold the l1+l2>1 half back."""
    A, B, C = (np.asarray(v, dtype=float) for v in tri)
    l1 = L[:, 0].copy()
    l2 = L[:, 1].copy()
    over = l1 + l2 > 1.0
    l1[over] = 1.0 - l1[over]
    l2[over] = 1.0 - l2[over]
    return (1 - l1 - l2)[:, None] * A + l1[:, None] * B + l2[:, None] * C


def sampled_point_triangle(p, tri, k=40, rounds=4):
    q = np.asarray(p, dtype=float)

    def fn(P):
        pts = _bary_points(tri, P)
        return np.linalg.norm(pts - q, axis=1)

    return _zoom_min(fn, 2, k, rounds)


def sampled_segment_triangle(seg, tri, k=18, rounds=5):
    a = np.asarray(seg[0], dtype=float)
    b = np.asarray(seg[1], dtype=float)

    def fn(P):
        spts = a[None, :] + P[:, 0:1] * (b - a)[None, :]
        tpts = _bary_points(tri, P[:, 1:3])
        return np.linalg.norm(spts - tpts, axis=1)

    return _zoom_min(fn, 3, k, rounds)


def sampled_triangle_triangle(t1, t2, k=11, rounds=8):
    def fn(P):
        p1 = _bary_points(t1, P[:, 0:2])
        p2 = _bary_points(t2, P[:, 2:4])
        return np.linalg.norm(p1 - p2, axis=1)

    return _zoom_min(fn, 4, k, rounds)


# ---------------------------------------------------------------------------
# Rasterized 4D free-space decision oracle
# ---------------------------------------------------------------------------

def grid_eval_surface(surface, res):
    """Images of the res x res grid of parameter-cell centers, shape (res*res, d)."""
    from frechet_surfaces.surface import eval_surface
    pts = []
    for j in range(res):
        for i in range(res):
            pts.append(((i + 0.5) / res, (j + 0.5) / res))
    return np.array([eval_surface(surface, p) for p in pts])


def rasterized_decide(f, g, eps, res=16):
    """Mark 4D grid cells whose center pair is within eps; check whether some
    face-connected component projects onto both parameter grids fully."""
    Pf = grid_eval_surface(f, res)   # (res^2, d)
    Pg = grid_eval_surface(g, res)
    D = np.linalg.norm(Pf[:, None, :] - Pg[None, :, :], axis=2)
    free = (D <= eps).reshape(res, res, res, res)
    structure = ndimage.generate_binary_structure(4, 1)
    labels, n = ndimage.label(free, structure=structure)
    for lab in range(1, n + 1):
        mask = labels == lab
        proj_f = mask.any(axis=(2, 3))
        proj_g = mask.any(axis=(0, 1))
        if proj_f.all() and proj_g.all():
            return True
    return False


def rasterized_margin(f, g, res=16):
    """Margin bound under which the rasterized oracle may disagree."""
    cell_diam = 2.0 / res  # sqrt(4) * (1/res)
    return 2.0 * cell_diam * (lipschitz_constant(f) + lipschitz_constant(g))


# ---------------------------------------------------------------------------
# Monte-Carlo coverage oracle
# ---------------------------------------------------------------------------

def mc_triangle_covered(f, g, k_tri, partners, eps, n=10_000, rng=None):
    """(verdict, min_abs_margin): sampled coverage of f's triangle by partner
    neighborhoods, with the smallest |min-distance - eps| over the samples."""
    tri = f.image_triangle(k_tri)
    pts = sample_triangle(tri, n, rng=rng)
    best = None
    for l in partners:
        d = points_triangle_dist(pts, g.image_triangle(l))
        best = d if best is None else np.minimum(best, d)
    if best is None:
        return False, 0.0
    margin = float(np.abs(best - eps).min())
    return bool((best <= eps).all()), margin


# ---------------------------------------------------------------------------
# Curve oracles
# ---------------------------------------------------------------------------

def rasterized_curve_decide(f, g, eps, res=256, monotone=True):
    """Grid decision on the 2D curve free space: monotone path (Fréchet) or
    extensive component (weak)."""
    from frechet_surfaces.geometry import vlerp

    def curve_point(c, t):
        t = min(1.0, max(0.0, t))
        k = c.n_segments
        x = t * k
        i = min(int(x), k - 1)
        return vlerp(*c.segment(i), x - i)

    Pf = np.array([curve_point(f, (i + 0.5) / res) for i in range(res)])
    Pg = np.array([curve_point(g, (j + 0.5) / res) for j in range(res)])
    D = np.linalg.norm(Pf[:, None, :] - Pg[None, :, :], axis=2)
    free = D <= eps
    if monotone:
        if not (free[0, 0] and free[-1, -1]):
            return False
        reach = np.zeros_like(free)
        reach[0, 0] = True
        for i in range(res):
            for j in range(res):
                if not free[i, j] or reach[i, j]:
                    continue
                if i > 0 and reach[i - 1, j]:
                    reach[i, j] = True
                elif j > 0 and reach[i, j - 1]:
                    reach[i, j] = True
                elif i > 0 and j > 0 and reach[i - 1, j - 1]:
                    reach[i, j] = True
        # propagate until fixpoint (cheap since monotone dependencies)
        changed = True
        while changed:
            changed = False
            for i in range(res):
                for j in range(res):
                    if free[i, j] and not reach[i, j]:
                        if (i > 0 and reach[i - 1, j]) or (j > 0 and reach[i, j - 1]) \
                           or (i > 0 and j > 0 and reach[i - 1, j - 1]):
                            reach[i, j] = True
                            changed = True
        return bool(reach[-1, -1])
    labels, n = ndimage.label(free)
    for lab in range(1, n + 1):
        mask = labels == lab
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            return True
    return False


# ---------------------------------------------------------------------------
# Graph components oracle
# ---------------------------------------------------------------------------

def bfs_components(vertices, edges):
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# One-at-a-time references of vectorised routines
# ---------------------------------------------------------------------------

def sample_image_points_loop(surface, spacing):
    """surface.sample_image_points, one barycentric sample at a time."""
    out = []
    for ti in range(surface.n_triangles):
        ia, ib, ic = surface.image_triangle(ti)
        diam = max(vdist(ia, ib), vdist(ib, ic), vdist(ic, ia))
        k = max(1, int(math.ceil(diam / max(spacing, 1e-12))))
        A = np.array(ia, dtype=float)
        B = np.array(ib, dtype=float)
        C = np.array(ic, dtype=float)
        for i in range(k + 1):
            for j in range(k + 1 - i):
                l1 = i / k
                l2 = j / k
                out.append((1.0 - l1 - l2) * A + l1 * B + l2 * C)
    return np.array(out)


def resultant_rows(C1, C2):
    """The y-resultant quartic and the cubic b1*c2 - b2*c1 of conic pairs,
    given as (N, 6) rows (A, B, C, D, E, F), as (N, 5) and (N, 4) arrays.
    This is the form the type-2c search solved before the resultant builder
    was shared with the coverage sweep; 2c values stay the same only while
    the shared builder equals it bit for bit."""
    A1, B1, Cc1, D1, E1, F1 = (C1[:, i] for i in range(6))
    A2, B2, Cc2, D2, E2, F2 = (C2[:, i] for i in range(6))
    p0 = Cc1 * F2 - Cc2 * F1
    p1 = Cc1 * D2 - Cc2 * D1
    p2 = Cc1 * A2 - Cc2 * A1
    q0 = Cc1 * E2 - Cc2 * E1
    q1 = Cc1 * B2 - Cc2 * B1
    v0 = E1 * F2 - E2 * F1
    v1 = E1 * D2 + B1 * F2 - (E2 * D1 + B2 * F1)
    v2 = E1 * A2 + B1 * D2 - (E2 * A1 + B2 * D1)
    v3 = B1 * A2 - B2 * A1
    res = np.empty((C1.shape[0], 5))
    res[:, 0] = p0 * p0 - q0 * v0
    res[:, 1] = 2 * p0 * p1 - (q0 * v1 + q1 * v0)
    res[:, 2] = p1 * p1 + 2 * p0 * p2 - (q0 * v2 + q1 * v1)
    res[:, 3] = 2 * p1 * p2 - (q0 * v3 + q1 * v2)
    res[:, 4] = p2 * p2 - q1 * v3
    return res, np.stack([v0, v1, v2, v3], axis=1)


def region_breakpoints_loops(seg, tri):
    """The parameters t in (0, 1) where the segment crosses a plane bounding
    the triangle's nearest-feature regions, each plane built in its own loop.
    This is the form T2b used before the planes were shared with the coverage
    slices; T2b values stay the same only while the shared planes equal it
    bit for bit."""
    s0, s1 = seg
    d = vsub(s1, s0)
    ts = []

    def add_plane(grad, val0):
        v0 = vdot(grad, s0) + val0
        slope = vdot(grad, d)
        if slope != 0.0:
            t = -v0 / slope
            if 0.0 < t < 1.0:
                ts.append(t)

    for i in range(3):
        vi = tri[i]
        for j in range(3):
            if j == i:
                continue
            grad = vsub(tri[j], vi)
            add_plane(grad, -vdot(vi, grad))
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        c = tri[(i + 2) % 3]
        u = vunit(vsub(b, a))
        w = perp_component(vsub(c, a), u)
        add_plane(w, -vdot(a, w))
    return ts


# ---------------------------------------------------------------------------
# Scalar segment/triangle kernels: the batched tables of batched.py must equal
# them bit for bit
# ---------------------------------------------------------------------------

def segment_crosses_triangle(a, b, tri):
    """True when segment [a, b] meets the closed triangle (d=3 proper crossing;
    coplanar contact is resolved by the edge/vertex distance terms instead)."""
    if len(a) == 2:
        return False
    u = vsub(tri[1], tri[0])
    v = vsub(tri[2], tri[0])
    n = vcross3(u, v)
    nn = vnorm(n)
    if nn == 0.0:
        return False
    da = vdot(n, vsub(a, tri[0]))
    db = vdot(n, vsub(b, tri[0]))
    if (da > 0.0 and db > 0.0) or (da < 0.0 and db < 0.0):
        return False
    denom = da - db
    if denom == 0.0:
        return False  # coplanar; handled elsewhere
    t = da / denom
    p = vlerp(a, b, t)
    # barycentric inside test
    w = vsub(p, tri[0])
    uu = vdot(u, u)
    uv = vdot(u, v)
    vv = vdot(v, v)
    wu = vdot(w, u)
    wv = vdot(w, v)
    det = uu * vv - uv * uv
    if det == 0.0:
        return False
    s = (vv * wu - uv * wv) / det
    r = (uu * wv - uv * wu) / det
    return s >= 0.0 and r >= 0.0 and s + r <= 1.0


def dist_segment_triangle(seg, tri, tol=DEFAULT_TOL, degenerate_ok=False):
    check_triangle(tri, tol, degenerate_ok)
    a, b = seg
    if segment_crosses_triangle(a, b, tri):
        return 0.0
    best = min(dist_point_triangle(a, tri, tol, True),
               dist_point_triangle(b, tri, tol, True))
    for i in range(3):
        d, _, _ = closest_segment_segment(a, b, tri[i], tri[(i + 1) % 3])
        if d < best:
            best = d
    return best


def dist_triangle_triangle(t1, t2, tol=DEFAULT_TOL, degenerate_ok=False):
    check_triangle(t1, tol, degenerate_ok)
    check_triangle(t2, tol, degenerate_ok)
    best = math.inf
    for i in range(3):
        e1 = (t1[i], t1[(i + 1) % 3])
        d = dist_segment_triangle(e1, t2, tol, True)
        if d < best:
            best = d
        e2 = (t2[i], t2[(i + 1) % 3])
        d = dist_segment_triangle(e2, t1, tol, True)
        if d < best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Type-2c search, one triple at a time
# ---------------------------------------------------------------------------

def batched_poly_roots_eig(coeffs, xlo, xhi):
    """Real roots of polynomial rows (lowest degree first) in [xlo, xhi],
    every row of degree 3 or 4 solved by companion-matrix eigenvalues: the
    solve of criticals._batched_poly_roots without its no-root certificate."""
    n, width = coeffs.shape
    rows_out = []
    xs_out = []
    mags = np.abs(coeffs).max(axis=1)
    ok = mags > 0
    norm = coeffs.copy()
    norm[ok] = coeffs[ok] / mags[ok, None]
    tiny = 1e-12
    degs = np.zeros(n, dtype=int)
    for d in range(width - 1, 0, -1):
        mask = (degs == 0) & (np.abs(norm[:, d]) > tiny)
        degs[mask] = d

    def emit(rows, xs):
        keep = (xs >= xlo[rows]) & (xs <= xhi[rows])
        rows_out.append(rows[keep])
        xs_out.append(xs[keep])

    for d in (3, 4):
        rows = np.where(degs == d)[0]
        if len(rows) == 0:
            continue
        sub = norm[rows][:, : d + 1]
        comp = np.zeros((len(rows), d, d))
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = -sub[:, :d] / sub[:, d:d + 1]
        eig = np.linalg.eigvals(comp)
        realish = np.abs(eig.imag) <= 1e-7 * (1.0 + np.abs(eig.real))
        rr = np.repeat(rows, d)[realish.ravel()]
        emit(rr, eig.real.ravel()[realish.ravel()])
    rows = np.where(degs == 2)[0]
    if len(rows):
        a = norm[rows, 2]
        b = norm[rows, 1]
        c = norm[rows, 0]
        disc = b * b - 4 * a * c
        has = disc > -4.0 * DEFAULT_TOL.rel
        sq = np.sqrt(np.maximum(disc, 0.0))
        for sgn in (-1.0, 1.0):
            emit(rows[has], ((-b + sgn * sq) / (2 * a))[has])
    rows = np.where(degs == 1)[0]
    if len(rows):
        emit(rows, -norm[rows, 0] / norm[rows, 1])
    if not rows_out:
        return np.array([], dtype=int), np.array([])
    return np.concatenate(rows_out), np.concatenate(xs_out)


def triple_equidistance_scan(frame, tri2d, others, ranges, lo, hi,
                             tol=DEFAULT_TOL):
    """criticals.triple_equidistance_values as a loop over triples: each
    triple scans all 343 feature rows with the three-way box and range tests
    and solves its kept rows in a call of its own, without the no-root
    certificate.  The per-root checks are the library's own helpers."""
    from itertools import combinations

    out = []
    txs = [p[0] for p in tri2d]
    tys = [p[1] for p in tri2d]
    tri_box = np.array([min(txs), min(tys), max(txs), max(tys)])
    scale = max(1.0, hi)
    slack = 1e-7 * scale
    pad = 1e-4 * scale

    n_feat = len(FEATURES)
    n_others = len(others)
    rng_arr = np.array(ranges, dtype=float)
    lb_arr = rng_arr[:, :, 0]
    ub_arr = rng_arr[:, :, 1]
    live = (lb_arr <= hi + pad) & (ub_arr >= lo - pad)
    conic_arr = np.full((n_others, n_feat, 6), np.nan)
    box_arr = np.full((n_others, n_feat, 4), np.nan)
    for a, (oi, tri) in enumerate(others):
        for fi, feat in enumerate(FEATURES):
            if not live[a, fi]:
                continue
            c = feature_sqdist_conic(frame, tri, feat)
            if c is None:
                continue
            conic_arr[a, fi] = c
            box_arr[a, fi] = _feature_bbox(frame, tri, feat, hi * 1.0001)
    alive = [a for a in range(n_others) if not np.isnan(conic_arr[a, :, 0]).all()]

    fi_g, fj_g, fk_g = np.meshgrid(np.arange(n_feat), np.arange(n_feat),
                                   np.arange(n_feat), indexing="ij")
    fi_g = fi_g.ravel()
    fj_g = fj_g.ravel()
    fk_g = fk_g.ravel()

    for (ia, ib, ic) in combinations(alive, 3):
        i, tri_i = others[ia]
        j, tri_j = others[ib]
        k, tri_k = others[ic]
        Ci = conic_arr[ia][fi_g]
        Cj = conic_arr[ib][fj_g]
        Ck = conic_arr[ic][fk_g]
        blo_x = np.maximum.reduce([box_arr[ia][fi_g, 0], box_arr[ib][fj_g, 0],
                                   box_arr[ic][fk_g, 0], np.full(len(fi_g), tri_box[0])])
        bhi_x = np.minimum.reduce([box_arr[ia][fi_g, 2], box_arr[ib][fj_g, 2],
                                   box_arr[ic][fk_g, 2], np.full(len(fi_g), tri_box[2])])
        blo_y = np.maximum.reduce([box_arr[ia][fi_g, 1], box_arr[ib][fj_g, 1],
                                   box_arr[ic][fk_g, 1], np.full(len(fi_g), tri_box[1])])
        bhi_y = np.minimum.reduce([box_arr[ia][fi_g, 3], box_arr[ib][fj_g, 3],
                                   box_arr[ic][fk_g, 3], np.full(len(fi_g), tri_box[3])])
        lb_max = np.maximum.reduce([lb_arr[ia][fi_g], lb_arr[ib][fj_g],
                                    lb_arr[ic][fk_g]])
        ub_min = np.minimum.reduce([ub_arr[ia][fi_g], ub_arr[ib][fj_g],
                                    ub_arr[ic][fk_g]])
        C1 = Ci - Cj
        C2 = Ci - Ck
        with np.errstate(invalid="ignore"):
            keep = ((blo_x <= bhi_x) & (blo_y <= bhi_y) & (lb_max <= ub_min + pad)
                    & ~np.isnan(C1).any(axis=1) & ~np.isnan(C2).any(axis=1)
                    & (np.abs(C1).max(axis=1) > 1e-12)
                    & (np.abs(C2).max(axis=1) > 1e-12))
        if not keep.any():
            continue
        kept = np.flatnonzero(keep)
        C1 = C1[keep]
        C2 = C2[keep]
        xlo = blo_x[keep] - slack
        xhi = bhi_x[keep] + slack
        ylo = blo_y[keep] - slack
        yhi = bhi_y[keep] + slack

        quartic, cubic = conic_y_resultant(C1.T, C2.T)
        res = np.stack(quartic, axis=1)
        cubic = np.stack(cubic, axis=1)
        both_linear = (np.abs(C1[:, 2]) <= 1e-12) & (np.abs(C2[:, 2]) <= 1e-12)
        polys = np.where(both_linear[:, None],
                         np.hstack([cubic, np.zeros((len(cubic), 1))]), res)
        seen = set()
        root_rows, root_xs = batched_poly_roots_eig(polys, xlo, xhi)
        for row, x in zip(root_rows, root_xs):
            c1 = tuple(C1[row])
            c2 = tuple(C2[row])
            ys = _y_on_conic(c1, x, tol) if abs(c1[2]) >= abs(c2[2]) \
                else _y_on_conic(c2, x, tol)
            for y in ys:
                if not (ylo[row] <= y <= yhi[row]):
                    continue
                r1 = conic_value(c1, x, y)
                r2 = conic_value(c2, x, y)
                conic_scale = 1e-5 * max(1.0, abs(x) + abs(y)) ** 2 * scale
                if abs(r1) > conic_scale or abs(r2) > conic_scale:
                    continue
                if not _point_in_triangle_2d((x, y), tri2d, slack):
                    continue
                key = (round(x / (10 * slack)), round(y / (10 * slack)))
                if key in seen:
                    continue
                seen.add(key)
                p3 = frame.from_plane((x, y))
                di = dist_point_triangle(p3, tri_i, tol, degenerate_ok=True)
                dj = dist_point_triangle(p3, tri_j, tol, degenerate_ok=True)
                dk = dist_point_triangle(p3, tri_k, tol, degenerate_ok=True)
                dmax = max(di, dj, dk)
                dmin = min(di, dj, dk)
                slack_d = 1e3 * tol.gap(dmax)
                if dmax - dmin > slack_d:
                    continue
                src = kept[row]
                feats = ((tri_i, ia, fi_g[src], di), (tri_j, ib, fj_g[src], dj),
                         (tri_k, ic, fk_g[src], dk))
                if not all(_is_nearest_feature(p3, (x, y), tri, FEATURES[fa],
                                               conic_arr[a, fa], d, slack_d)
                           for tri, a, fa, d in feats):
                    continue
                val = (di + dj + dk) / 3.0
                if lo - tol.gap(val) <= val <= hi + tol.gap(val):
                    out.append((val, (i, j, k)))
    return out


# ---------------------------------------------------------------------------
# critical_values_C1 as one enumeration, before T2b was split out of it
# ---------------------------------------------------------------------------

def unsplit_critical_values_C1(f, g, tol=DEFAULT_TOL, geometry=None, lo=0.0,
                               hi=math.inf):
    """A frozen copy of critical_values_C1 from before its T2b enumeration
    became a function of its own: the table values and the T2b values near
    [lo, hi] deduplicated in one list, then cut to [lo, hi]."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    vals = table_critical_values(f, g, tol, geometry)
    pad = 1e-4 * max(1.0, hi)
    for (tagE, tagT, se, edges, tris, lbs, vertex_dist) in (
            ("K-edge", "L-tris", f, geometry.f_edges, geometry.g_tris,
             geometry.f_edge_dist, geometry.f_vertex_dist),
            ("L-edge", "K-tris", g, geometry.g_edges, geometry.f_tris,
             geometry.g_edge_dist, geometry.g_vertex_dist)):
        ubs = vertex_dist[np.array(edges)].max(axis=1) + pad
        for e, lb, ub, live in zip(edges, lbs, ubs, (lbs <= hi + pad) & (ubs >= lo)):
            idx = np.flatnonzero(live)
            lb, ub = lb[idx], ub[idx]
            meet = np.triu((lb[:, None] <= ub) & (lb <= ub[:, None]), 1)
            seg = se.image_segment(e)
            feats = {i: segment_features(seg, tris[i])
                     for i in idx[meet.any(axis=0) | meet.any(axis=1)].tolist()}
            for i, j in idx[np.argwhere(meet)].tolist():
                for v in equidistance_values_on_segment(seg, tris[i], tris[j], tol,
                                                        features=(feats[i], feats[j])):
                    vals.append(CriticalValue(v, "T2b", (tagE, e, tagT, (i, j))))
    return [cv for cv in dedup_critical_values(vals, tol) if lo <= cv.value <= hi]


# ---------------------------------------------------------------------------
# compute's former search: all of C1 in one stage
# ---------------------------------------------------------------------------

def single_stage_compute(f, g, mode, tol=DEFAULT_TOL):
    """compute() with one candidate stage before the last: every type
    1/2a/2b/2d value, enumerated unbounded and merged into one list, is
    binary-searched down to a bracket (lo, hi], which is refined as compute
    refines it.  It shares decide() and the merge with compute, so it checks
    the staging only.  Returns (distance, (lo, hi)), with no bracket when
    eps = 0 decides true."""
    geometry = PairGeometry(f, g, tol)
    record = CoverageRecord()

    def probe(eps):
        return decide(f, g, eps, tol, validated=True, geometry=geometry,
                      record=record)[0]

    def probe_candidate(v):
        return probe(v + 10.0 * tol.gap(v))

    if probe(0.0):
        return 0.0, None
    vals = _merged_values(critical_values_C1(f, g, tol, geometry=geometry),
                          0.0, math.inf, tol)
    eps_max = image_diameter_bound(f, g) * (1.0 + 1e-9) + tol.abs + 1e-12
    if not vals or vals[-1] < eps_max:
        vals.append(eps_max)
    assert probe_candidate(vals[-1])
    i = _first_true(vals, probe_candidate)
    lo, hi = (vals[i - 1] if i else 0.0), vals[i]
    if mode == MODE_EXACT:
        c2 = critical_values_2c(f, g, lo, hi, tol, geometry=geometry)
        cands = _merged_values(c2, lo, hi, tol) + [hi]
        distance = cands[_first_true(cands, probe_candidate)]
    else:
        distance = bisect_threshold(probe, lo, hi + 10.0 * tol.gap(hi), tol)
    return distance, (lo, hi)
