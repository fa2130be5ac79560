"""Candidate critical values of eps at which the free-space combinatorics or
the coverage status of a surface pair can change.

Kinds:
  T1   edge/triangle image distances (a boundary cell becomes nonempty)
  T2a  vertex/triangle image distances (last point covered at a vertex)
  T2b  equidistance of two triangles along an image edge
  T2c  equidistance of three triangles in the plane of an image triangle
  T2d  distances between parallel image feature pairs (degenerate position)
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .scalar import DEFAULT_TOL, DegeneratePolynomialError, quadratic_roots
from .freespace import PairGeometry
from .geometry import (FEATURES, closest_point_segment, closest_point_triangle,
                       closest_segment_segment, conic_value, conic_y_resultant,
                       cross_norm, dist_point_triangle, feature_regions,
                       feature_sqdist_conic, frame_of_triangle,
                       line_sqdist_quadratic, point_sqdist_quadratic,
                       triangle_unit_normal, vdist, vdot, vsub, vunit)


@dataclass(frozen=True)
class CriticalValue:
    value: float
    kind: str          # "T1" | "T2a" | "T2b" | "T2c" | "T2d"
    provenance: tuple  # generating simplices, e.g. ("K-edge", (i,j), "L-tri", t)

    def as_dict(self):
        return {"value": self.value, "kind": self.kind,
                "provenance": list(self.provenance)}


# ---------------------------------------------------------------------------
# T2b: equidistant points of two triangles along a segment
# ---------------------------------------------------------------------------

def _region_breakpoints_on_segment(seg, tri):
    """Parameters t where the nearest feature of the triangle can switch along
    the segment: crossings of the planes that bound the feature regions."""
    s0, s1 = seg
    d = vsub(s1, s0)
    ts = []
    for grad, c in feature_regions(tri)[0]:
        slope = vdot(grad, d)
        if slope != 0.0:
            t = -(vdot(grad, s0) + c) / slope
            if 0.0 < t < 1.0:
                ts.append(t)
    return ts


def _feature_sqdist_quadratic(seg, tri, feature):
    """Coefficients (A, B, C) of squared distance to a triangle feature along
    the segment: d^2(t) = A t^2 + B t + C, valid while that feature is nearest."""
    s0, s1 = seg
    d = vsub(s1, s0)
    kind, idx = feature
    if kind == "vertex":
        return point_sqdist_quadratic(s0, d, tri[idx])
    if kind == "edge":
        a = tri[idx]
        return line_sqdist_quadratic(s0, d, a, vunit(vsub(tri[(idx + 1) % 3], a)))
    n = triangle_unit_normal(tri)
    if n is None:
        return (0.0, 0.0, 0.0)  # inside a 2D triangle the distance is zero
    lam0 = vdot(n, vsub(s0, tri[0]))
    lamd = vdot(n, d)
    return (lamd * lamd, 2.0 * lam0 * lamd, lam0 * lam0)


def segment_features(seg, tri):
    """What equidistance_values_on_segment needs of one triangle along one
    segment, whatever the other triangle: the parameters where its nearest
    feature can switch, and the squared-distance quadratic of each feature."""
    return (_region_breakpoints_on_segment(seg, tri),
            {feat: _feature_sqdist_quadratic(seg, tri, feat) for feat in FEATURES})


def equidistance_values_on_segment(seg, tri_a, tri_b, tol=DEFAULT_TOL,
                                   features=None):
    """Common distances at points of the segment equidistant to both triangles.

    The segment is cut at every parameter where either triangle's nearest
    feature can change; on each piece both squared distances are quadratics,
    so equidistance reduces to a quadratic equation.  Every root is verified
    against the true distances before being reported.  `features` is the
    pair (segment_features(seg, tri_a), segment_features(seg, tri_b)) when
    the caller already holds it."""
    (breaks_a, quads_a), (breaks_b, quads_b) = features or (
        segment_features(seg, tri_a), segment_features(seg, tri_b))
    ts = sorted(set([0.0, 1.0] + breaks_a + breaks_b))
    s0, s1 = seg
    out = []
    slack = 1e-9
    for ta, tb in zip(ts, ts[1:]):
        if tb - ta <= 1e-13:
            continue
        tm = 0.5 * (ta + tb)
        pm = tuple(a + tm * (b - a) for a, b in zip(s0, s1))
        _, feat_a = closest_point_triangle(pm, tri_a)
        _, feat_b = closest_point_triangle(pm, tri_b)
        qa = quads_a[feat_a]
        qb = quads_b[feat_b]
        diff = (qa[0] - qb[0], qa[1] - qb[1], qa[2] - qb[2])
        if max(abs(c) for c in diff) == 0.0:
            continue  # identical quadratics: equidistant on the whole piece;
            # endpoints of the piece are breakpoints of other kinds
        try:
            roots = quadratic_roots(diff[0], diff[1], diff[2], tol)
        except DegeneratePolynomialError:
            roots = []
        for t in roots:
            if not (ta - slack <= t <= tb + slack):
                continue
            t = min(1.0, max(0.0, t))
            p = tuple(a + t * (b - a) for a, b in zip(s0, s1))
            da = dist_point_triangle(p, tri_a, tol, degenerate_ok=True)
            db = dist_point_triangle(p, tri_b, tol, degenerate_ok=True)
            if abs(da - db) <= 10.0 * tol.gap(max(da, db)):
                out.append(0.5 * (da + db))
    return sorted(out)


# ---------------------------------------------------------------------------
# T2d: parallel feature pairs
# ---------------------------------------------------------------------------

def parallel_pair_values(f, g, tol=DEFAULT_TOL, geometry=None):
    """Distances between parallel (edge|triangle) image feature pairs.  Edge
    and triangle distances are read from the pair's PairGeometry."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    out = []
    f_segs = [f.image_segment(e) for e in geometry.f_edges]
    g_segs = [g.image_segment(e) for e in geometry.g_edges]
    f_units = [vunit(vsub(s[1], s[0])) for s in f_segs]
    g_units = [vunit(vsub(s[1], s[0])) for s in g_segs]
    # None for a triangle in the plane (d = 2): such triangles all share the
    # plane, and no pair of them is reported
    f_normals = [triangle_unit_normal(t) for t in geometry.f_tris]
    g_normals = [triangle_unit_normal(t) for t in geometry.g_tris]
    zero = lambda x: x <= 1e-9

    for ek, (edge_k, sk, uk) in enumerate(zip(geometry.f_edges, f_segs, f_units)):
        for edge_l, sl, ul in zip(geometry.g_edges, g_segs, g_units):
            if zero(cross_norm(uk, ul)):
                d, _, _ = closest_segment_segment(sk[0], sk[1], sl[0], sl[1])
                out.append(CriticalValue(d, "T2d", ("K-edge", edge_k, "L-edge", edge_l)))
        for lt, nl in enumerate(g_normals):
            if nl is not None and zero(abs(vdot(uk, nl))):
                out.append(CriticalValue(
                    geometry.f_edge_dist[ek, lt].item(), "T2d",
                    ("K-edge", edge_k, "L-tri", lt)))
    for el, (edge_l, ul) in enumerate(zip(geometry.g_edges, g_units)):
        for kt, nk in enumerate(f_normals):
            if nk is not None and zero(abs(vdot(ul, nk))):
                out.append(CriticalValue(
                    geometry.g_edge_dist[el, kt].item(), "T2d",
                    ("L-edge", edge_l, "K-tri", kt)))
    for kt, nk in enumerate(f_normals):
        for lt, nl in enumerate(g_normals):
            if nk is not None and nl is not None and zero(cross_norm(nk, nl)):
                out.append(CriticalValue(
                    geometry.cell_dist[kt, lt].item(), "T2d",
                    ("K-tri", kt, "L-tri", lt)))
    return out


# ---------------------------------------------------------------------------
# C1 = T1, T2a, T2b, T2d
# ---------------------------------------------------------------------------

def table_critical_values(f, g, tol=DEFAULT_TOL, geometry=None):
    """The T1, T2a and T2d candidates, sorted ascending and deduplicated per
    kind: the values read from the tables of `geometry`, the pair's
    PairGeometry (a fresh one when omitted)."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    vals = parallel_pair_values(f, g, tol, geometry=geometry)
    for (kind, tagR, tagT, keys, table) in (
            ("T1", "K-edge", "L-tri", geometry.f_edges, geometry.f_edge_dist),
            ("T1", "L-edge", "K-tri", geometry.g_edges, geometry.g_edge_dist),
            ("T2a", "K-vertex", "L-tri", range(len(f.image)), geometry.f_vertex_dist),
            ("T2a", "L-vertex", "K-tri", range(len(g.image)), geometry.g_vertex_dist)):
        for key, row in zip(keys, table.tolist()):
            vals.extend(CriticalValue(d, kind, (tagR, key, tagT, ti))
                        for ti, d in enumerate(row))
    return dedup_critical_values(vals, tol)


def t2b_critical_values(f, g, tol=DEFAULT_TOL, geometry=None, lo=0.0, hi=math.inf):
    """The T2b candidates near [lo, hi], sorted ascending and deduplicated.

    A T2b value of edge e and triangles i, j is the common distance at a
    point of e.  The distance to a convex set is convex along a segment, so
    the value lies in the range [edge distance, larger endpoint distance] of
    both (e, i) and (e, j), read from `geometry`.  T2b is enumerated only for
    the (e, i) whose range meets [lo, hi] and the pairs whose ranges meet,
    within a pad far above rounding; every T2b value near [lo, hi] is found,
    so the dedup keeps the unbounded list's entries in [lo, hi] unless a chain
    of values, each within the dedup radius of the next, spans the pad."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    vals = []
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
            # pairs i < j, in the order of combinations()
            for i, j in idx[np.argwhere(meet)].tolist():
                for v in equidistance_values_on_segment(seg, tris[i], tris[j], tol,
                                                        features=(feats[i], feats[j])):
                    vals.append(CriticalValue(v, "T2b", (tagE, e, tagT, (i, j))))
    return dedup_critical_values(vals, tol)


def critical_values_C1(f, g, tol=DEFAULT_TOL, geometry=None, lo=0.0, hi=math.inf):
    """The type 1/2a/2b/2d candidates in [lo, hi], sorted ascending and
    deduplicated per kind: the table and T2b lists, merged unchanged."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    vals = table_critical_values(f, g, tol, geometry) + t2b_critical_values(
        f, g, tol, geometry, lo, hi)
    return [cv for cv in dedup_critical_values(vals, tol) if lo <= cv.value <= hi]


def dedup_critical_values(vals, tol=DEFAULT_TOL):
    """Sort ascending; merge values within 10x tolerance, per kind."""
    out = []
    last_by_kind = {}
    for cv in sorted(vals, key=lambda c: (c.value, c.kind, repr(c.provenance))):
        last = last_by_kind.get(cv.kind)
        if last is not None and abs(cv.value - last) <= 10.0 * tol.gap(cv.value):
            continue
        last_by_kind[cv.kind] = cv.value
        out.append(cv)
    return out


# ---------------------------------------------------------------------------
# T2c: triple equidistance in the plane of an image triangle
# ---------------------------------------------------------------------------

def _is_nearest_feature(p, xy, tri, feature, conic, dist, slack):
    """Whether `feature` of `tri` is nearest to p (plane coordinates xy),
    whose triangle distance is `dist`: the distance to the feature's affine
    hull (the square root of its conic) equals `dist`, and for an edge so
    does the distance to the segment itself, so the hull's nearest point lies
    on the edge.  A vertex is its own hull, and a face whose plane is as far
    as the triangle has its nearest plane point inside the triangle."""
    if abs(math.sqrt(max(0.0, conic_value(conic, *xy))) - dist) > slack:
        return False
    kind, idx = feature
    if kind != "edge":
        return True
    q = closest_point_segment(p, tri[idx], tri[(idx + 1) % 3])[0]
    return abs(vdist(p, q) - dist) <= slack


def _feature_bbox(frame, tri, feature, pad):
    kind, idx = feature
    if kind == "vertex":
        pts = [tri[idx]]
    elif kind == "edge":
        pts = [tri[idx], tri[(idx + 1) % 3]]
    else:
        pts = list(tri)
    uv = [frame.to_plane(p) for p in pts]
    xs = [p[0] for p in uv]
    ys = [p[1] for p in uv]
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def _point_in_triangle_2d(p, tri2d, slack):
    def area2(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    s = area2(*tri2d)
    for i in range(3):
        a, b = tri2d[i], tri2d[(i + 1) % 3]
        if area2(a, b, p) * (1.0 if s > 0 else -1.0) < -slack:
            return False
    return True


def _certified_root_free(polys, xlo, xhi):
    """Which rows (polynomials lowest degree first, largest coefficient 1)
    certainly have no root in their interval [xlo, xhi]: every coefficient of
    the polynomial in the Bernstein basis of the interval lies beyond 1e-6 * S
    on one side of zero, with S = sum |c_k| max(1, |xlo|, |xhi|)^k.

    By the convex-hull property |p| > 1e-6 * S then holds on the interval.
    A root that the companion-matrix solve reports there has a residual of
    about 1e-15 * S, and the real part of a pair it accepts as real one of
    about 1e-12 * S, so such a row yields no root either way."""
    d = polys.shape[1] - 1
    powers = np.arange(d + 1)
    with np.errstate(all="ignore"):
        big = np.maximum(1.0, np.maximum(np.abs(xlo), np.abs(xhi)))
        bound = 1e-6 * (np.abs(polys) * big[:, None] ** powers).sum(axis=1)
        # Taylor shift to xlo, then scale the interval to [0, 1]
        t = polys.copy()
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                t[:, j] += xlo * t[:, j + 1]
        t *= (xhi - xlo)[:, None] ** powers
        above = np.ones(len(polys), dtype=bool)
        below = np.ones(len(polys), dtype=bool)
        for i in range(d + 1):
            b = sum(math.comb(i, j) / math.comb(d, j) * t[:, j] for j in range(i + 1))
            above &= b > bound
            below &= b < -bound
    return above | below


def _batched_poly_roots(coeffs, xlo, xhi, tol=DEFAULT_TOL):
    """Real roots of many low-degree polynomials (rows, lowest degree first),
    restricted to per-row intervals [xlo, xhi].

    Returns (rows, xs) arrays.  Rows are normalized, trimmed by magnitude and
    solved per effective degree: closed form up to degree 2, companion-matrix
    eigenvalues for degrees 3 and 4, skipping the rows that
    _certified_root_free clears.  Each row's roots do not depend on the
    other rows of the call."""
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
        sub = norm[rows][:, : d + 1]
        solve = ~_certified_root_free(sub, xlo[rows], xhi[rows])
        rows = rows[solve]
        if len(rows) == 0:
            continue
        sub = sub[solve]
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
        # as in quadratic_roots, a discriminant just below 0 is a double root
        has = disc > -4.0 * tol.rel
        sq = np.sqrt(np.maximum(disc, 0.0))
        for sgn in (-1.0, 1.0):
            emit(rows[has], ((-b + sgn * sq) / (2 * a))[has])
    rows = np.where(degs == 1)[0]
    if len(rows):
        emit(rows, -norm[rows, 0] / norm[rows, 1])
    if not rows_out:
        return np.array([], dtype=int), np.array([])
    return np.concatenate(rows_out), np.concatenate(xs_out)


def _y_on_conic(c, x, tol):
    A, B, C, D, E, F = c
    b = B * x + E
    cc = A * x * x + D * x + F
    if abs(C) > 1e-12:
        try:
            return quadratic_roots(C, b, cc, tol)
        except DegeneratePolynomialError:
            return []
    if abs(b) > 1e-12:
        return [-cc / b]
    return []


def _feature_ranges(geometry, q_on_f, q, i):
    """Range (lb, ub) of the distance from the points of image triangle q to
    each of the seven FEATURES of image triangle i of the other surface, in
    FEATURES order.  q is a triangle of f and i one of g when `q_on_f`, and
    the other way round otherwise.

    lb is the distance of the whole triangle q to the feature, read from
    `geometry`.  The distance to a convex set is convex, so over q it is
    largest at a vertex of q: ub is the largest of the three vertex
    distances.  At a 2c point of q the common value is the distance to each
    triangle's nearest feature, so it lies in that feature's range."""
    sq, so, q_vertex_dist, o_vertex_dist, o_edges, o_edge_dist, cells = (
        (geometry.f, geometry.g, geometry.f_vertex_dist, geometry.g_vertex_dist,
         geometry.g_edges, geometry.g_edge_dist, geometry.cell_dist) if q_on_f else
        (geometry.g, geometry.f, geometry.g_vertex_dist, geometry.f_vertex_dist,
         geometry.f_edges, geometry.f_edge_dist, geometry.cell_dist.T))
    q_verts = sq.param.triangles[q]
    o_verts = so.param.triangles[i]
    q_pts = [sq.image[v] for v in q_verts]
    o_pts = [so.image[v] for v in o_verts]
    ranges = [(o_vertex_dist[v, q], max(vdist(p, o_pts[a]) for p in q_pts))
              for a, v in enumerate(o_verts)]
    for a in range(3):
        b = (a + 1) % 3
        va, vb = o_verts[a], o_verts[b]
        ub = max(vdist(p, closest_point_segment(p, o_pts[a], o_pts[b])[0])
                 for p in q_pts)
        e = bisect_left(o_edges, (min(va, vb), max(va, vb)))
        ranges.append((o_edge_dist[e, q], ub))
    ranges.append((cells[q, i], max(q_vertex_dist[v, i] for v in q_verts)))
    return ranges


# the feature rows of whole triples are solved together until a batch holds
# at least this many
_BATCH_ROWS = 1024


def triple_equidistance_values(frame, tri2d, others, ranges, lo, hi,
                               tol=DEFAULT_TOL):
    """Equidistance values of triangle triples within an image triangle.

    `others` is a list of (index, triangle) candidates already filtered by
    distance, and `ranges[a]` the _feature_ranges of others[a] over the image
    triangle; returns (value, (i, j, k)) tuples with lo <= value <= hi.

    At a triple point with a value in [lo, hi] that value lies in the range
    of each triangle's nearest feature, so a feature whose range misses
    [lo, hi] and a feature row (one feature of each triangle) whose three
    ranges do not overlap are dropped (within a pad far above the
    verification slack), as are rows whose hi-padded feature boxes miss each
    other or the triangle.  Every two ranges or boxes of a row overlap
    exactly when all of them do, so the rows of a triple are read off masks
    over pairs of (triangle, feature) nodes.  For each row the two pairwise
    bisectors of the squared distance conics are intersected; the
    x-resultants of the rows of several triples are solved in one batch, and
    every surviving point is verified against the true triangle distances
    before its common value is reported."""
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
    if len(alive) < 3:
        return out

    # node a * n_feat + f is feature f of others[a]; NaN (a dead feature)
    # fails every comparison
    conic = conic_arr.reshape(-1, 6)
    box = box_arr.reshape(-1, 4)
    lb = lb_arr.ravel()
    ub_pad = ub_arr.ravel() + pad
    with np.errstate(invalid="ignore"):
        unary = ((box[:, 0] <= box[:, 2]) & (box[:, 1] <= box[:, 3])
                 & (box[:, 0] <= tri_box[2]) & (tri_box[0] <= box[:, 2])
                 & (box[:, 1] <= tri_box[3]) & (tri_box[1] <= box[:, 3])
                 & (lb <= ub_pad))
        meet_x = box[:, None, 0] <= box[None, :, 2]
        meet_y = box[:, None, 1] <= box[None, :, 3]
        meet_r = lb[:, None] <= ub_pad[None, :]
        meet = (meet_x & meet_x.T & meet_y & meet_y.T & meet_r & meet_r.T
                & unary[:, None] & unary[None, :])
        # max over the coefficients of |Cu - Cv|, NaN propagating like np.max
        diff = np.abs(conic[:, None, 0] - conic[None, :, 0])
        for c in range(1, 6):
            np.maximum(diff, np.abs(conic[:, None, c] - conic[None, :, c]), out=diff)
    split = meet & (diff > 1e-12)
    # [a, b, f, g]: nodes (a, f) and (b, g)
    meet = meet.reshape(n_others, n_feat, n_others, n_feat).transpose(0, 2, 1, 3)
    split = split.reshape(n_others, n_feat, n_others, n_feat).transpose(0, 2, 1, 3)

    def solve(batch):
        """Verified values of the rows of the (triple, u, v, w) of `batch`,
        triple by triple, each triple's roots in the order of its rows."""
        tid = np.repeat(np.arange(len(batch)), [len(b[1]) for b in batch])
        u, v, w = (np.concatenate([b[n] for b in batch]) for n in (1, 2, 3))
        C1 = conic[u] - conic[v]
        C2 = conic[u] - conic[w]
        blo_x, blo_y, bhi_x, bhi_y = (
            red([box[u, m], box[v, m], box[w, m], np.full(len(u), tri_box[m])])
            for red, m in ((np.maximum.reduce, 0), (np.maximum.reduce, 1),
                           (np.minimum.reduce, 2), (np.minimum.reduce, 3)))
        xlo = blo_x - slack
        xhi = bhi_x + slack
        ylo = blo_y - slack
        yhi = bhi_y + slack

        quartic, cubic = conic_y_resultant(C1.T, C2.T)
        res = np.stack(quartic, axis=1)
        cubic = np.stack(cubic, axis=1)
        both_linear = (np.abs(C1[:, 2]) <= 1e-12) & (np.abs(C2[:, 2]) <= 1e-12)
        polys = np.where(both_linear[:, None],
                         np.hstack([cubic, np.zeros((len(cubic), 1))]), res)
        root_rows, root_xs = _batched_poly_roots(polys, xlo, xhi, tol)
        order = np.argsort(tid[root_rows], kind="stable")
        last = None
        for row, x in zip(root_rows[order], root_xs[order]):
            if tid[row] != last:
                last = tid[row]
                (ia, ib, ic), seen = batch[last][0], set()
                i, tri_i = others[ia]
                j, tri_j = others[ib]
                k, tri_k = others[ic]
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
                # where the three triangles share a nearest feature, a root
                # of an unrelated row is equidistant too
                feats = ((tri_i, u[row], di), (tri_j, v[row], dj), (tri_k, w[row], dk))
                if not all(_is_nearest_feature(p3, (x, y), tri, FEATURES[node % n_feat],
                                               conic[node], d, slack_d)
                           for tri, node, d in feats):
                    continue
                val = (di + dj + dk) / 3.0
                if lo - tol.gap(val) <= val <= hi + tol.gap(val):
                    out.append((val, (i, j, k)))

    batch, n_rows = [], 0
    for (ia, ib, ic) in combinations(alive, 3):
        # rows (f, g, h) in lexicographic order
        fi, fj, fk = np.nonzero(split[ia, ib][:, :, None] & split[ia, ic][:, None, :]
                                & meet[ib, ic][None, :, :])
        if len(fi) == 0:
            continue
        batch.append(((ia, ib, ic), ia * n_feat + fi, ib * n_feat + fj,
                      ic * n_feat + fk))
        n_rows += len(fi)
        if n_rows >= _BATCH_ROWS:
            solve(batch)
            batch, n_rows = [], 0
    if batch:
        solve(batch)
    return out


def critical_values_2c(f, g, lo, hi, tol=DEFAULT_TOL, geometry=None):
    """Type-2c candidates in [lo, hi]: for each image triangle of one surface,
    equidistance points of triples of the other surface's triangles within it.
    Triangle, edge and vertex distances are read from `geometry`, the pair's
    PairGeometry (a fresh one when omitted)."""
    if lo > hi:
        return []
    geometry = PairGeometry.of(f, g, tol, geometry)
    cells = geometry.cell_dist
    # the triangle distance is symmetric (the minimum of the same six
    # segment-triangle distances in either order), so g's side reads the
    # transposed table
    vals = []
    for (tagT, tagO, sq, so, dist) in (("K-tri", "L-tris", f, g, cells),
                                       ("L-tri", "K-tris", g, f, cells.T)):
        for q in range(sq.n_triangles):
            tri_img = sq.image_triangle(q)
            frame = frame_of_triangle(tri_img, tol)
            tri2d = [frame.to_plane(p) for p in tri_img]
            near = [(i, so.image_triangle(i))
                    for i in np.flatnonzero(dist[q] <= hi + tol.gap(hi)).tolist()]
            if len(near) < 3:
                continue
            ranges = [_feature_ranges(geometry, tagT == "K-tri", q, i)
                      for (i, _) in near]
            for val, triple in triple_equidistance_values(frame, tri2d, near,
                                                          ranges, lo, hi, tol):
                vals.append(CriticalValue(val, "T2c", (tagT, q, tagO, triple)))
    return dedup_critical_values(vals, tol)
