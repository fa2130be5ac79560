"""Batched minimum distances, equal to scalar routines bit for bit, and the
three primitive tables of a surface pair built from them (point/triangle,
segment/segment, crossings), whose minima are freespace.PairGeometry's.

Each batch_* kernel is an elementwise transcription of the scalar routine of
the same name (Ericson, Real-Time Collision Detection, ch. 5): those of
geometry.py, and for the crossing test the scalar reference kept with the
tests (tests/oracles.py).  A point is a tuple of coordinate arrays that
broadcast together, so vsub, vadd, vscale, vdot, vlerp and vcross3 apply to
it unchanged and keep the scalar order of operations; a norm is np.sqrt of
vdot (math.sqrt is correctly rounded too); min(1.0, max(0.0, t)) is
_clamp01.  Every branch of a scalar routine becomes a mask, and a value is
chosen from the routine's returns last to first, so that the earliest
return whose condition holds wins, as in the scalar code.  A lane a branch
does not take may divide by zero; that value is discarded, and _discarded
silences the warning.
"""

import numpy as np

from .geometry import check_triangle, vadd, vcross3, vdot, vlerp, vscale, vsub
from .scalar import DEFAULT_TOL

_discarded = np.errstate(divide="ignore", invalid="ignore")


def _bnorm(a):
    return np.sqrt(vdot(a, a))


def _bdist(a, b):
    return _bnorm(vsub(a, b))


def _clamp01(t):
    """min(1.0, max(0.0, t)): max keeps t only when t > 0.0, min only when
    t < 1.0."""
    t = np.where(t > 0.0, t, 0.0)
    return np.where(t < 1.0, t, 1.0)


def _bselect(mask, p, q):
    """The point p where mask holds, q elsewhere."""
    return tuple(np.where(mask, x, y) for x, y in zip(p, q))


def _closest_point_segment(p, a, b):
    """The point of closest_point_segment elementwise."""
    ab = vsub(b, a)
    denom = vdot(ab, ab)
    t = _clamp01(vdot(vsub(p, a), ab) / denom)
    return _bselect(denom == 0.0, a, vadd(a, vscale(ab, t)))


@_discarded
def _best_edge_point(p, tri):
    """closest_point_triangle's fallback for a zero denominator: the closest
    point of the first edge whose distance no later edge beats."""
    best_q = _closest_point_segment(p, tri[0], tri[1])
    best_d = _bdist(p, best_q)
    for i in (1, 2):
        q = _closest_point_segment(p, tri[i], tri[(i + 1) % 3])
        d = _bdist(p, q)
        closer = d < best_d
        best_d = np.where(closer, d, best_d)
        best_q = _bselect(closer, q, best_q)
    return best_q


@_discarded
def batch_closest_point_triangle(p, tri):
    """The point of closest_point_triangle elementwise (without the
    feature)."""
    a, b, c = tri
    ab = vsub(b, a)
    ac = vsub(c, a)
    ap = vsub(p, a)
    d1 = vdot(ab, ap)
    d2 = vdot(ac, ap)
    bp = vsub(p, b)
    d3 = vdot(ab, bp)
    d4 = vdot(ac, bp)
    vc = d1 * d4 - d3 * d2
    cp = vsub(p, c)
    d5 = vdot(ab, cp)
    d6 = vdot(ac, cp)
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    denom = va + vb + vc
    q = vadd(a, vadd(vscale(ab, vb / denom), vscale(ac, vc / denom)))
    degenerate = denom == 0.0
    if np.any(degenerate):
        q = _bselect(degenerate, _best_edge_point(p, tri), q)
    den_a = (d4 - d3) + (d5 - d6)
    q = _bselect((va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0)
                 & (den_a != 0.0),
                 vadd(b, vscale(vsub(c, b), (d4 - d3) / den_a)), q)
    q = _bselect((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0) & (d2 - d6 != 0.0),
                 vadd(a, vscale(ac, d2 / (d2 - d6))), q)
    q = _bselect((d6 >= 0.0) & (d5 <= d6), c, q)
    q = _bselect((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & (d1 - d3 != 0.0),
                 vadd(a, vscale(ab, d1 / (d1 - d3))), q)
    q = _bselect((d3 >= 0.0) & (d4 <= d3), b, q)
    return _bselect((d1 <= 0.0) & (d2 <= 0.0), a, q)


def batch_dist_point_triangle(p, tri):
    """dist_point_triangle elementwise, without the triangle check."""
    return _bdist(p, batch_closest_point_triangle(p, tri))


@_discarded
def batch_closest_segment_segment(p1, q1, p2, q2):
    """The distance of closest_segment_segment elementwise."""
    d1 = vsub(q1, p1)
    d2 = vsub(q2, p2)
    r = vsub(p1, p2)
    a = vdot(d1, d1)
    e = vdot(d2, d2)
    f = vdot(d2, r)
    c = vdot(d1, r)
    b = vdot(d1, d2)
    denom = a * e - b * b
    s = np.where(denom > 0.0, _clamp01((b * f - c * e) / denom), 0.0)
    t = (b * s + f) / e
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, _clamp01(-c / a), np.where(high, _clamp01((b - c) / a), s))
    t = np.where(low, 0.0, np.where(high, 1.0, t))
    dist = _bdist(vadd(p1, vscale(d1, s)), vadd(p2, vscale(d2, t)))
    # the degenerate returns, last to first: the second segment a point, the
    # first a point, both points
    dist = np.where(e == 0.0, _bdist(vadd(p1, vscale(d1, _clamp01(-c / a))), p2), dist)
    dist = np.where(a == 0.0, _bdist(p1, vadd(p2, vscale(d2, _clamp01(f / e)))), dist)
    return np.where((a == 0.0) & (e == 0.0), _bdist(p1, p2), dist)


@_discarded
def batch_segment_crosses_triangle(a, b, tri):
    """segment_crosses_triangle elementwise, as a boolean array."""
    if len(a) == 2:
        shape = np.broadcast(*a, *b, *tri[0], *tri[1], *tri[2]).shape
        return np.zeros(shape, dtype=bool)
    u = vsub(tri[1], tri[0])
    v = vsub(tri[2], tri[0])
    n = vcross3(u, v)
    nn = _bnorm(n)
    da = vdot(n, vsub(a, tri[0]))
    db = vdot(n, vsub(b, tri[0]))
    denom = da - db
    p = vlerp(a, b, da / denom)
    w = vsub(p, tri[0])
    uu = vdot(u, u)
    uv = vdot(u, v)
    vv = vdot(v, v)
    wu = vdot(w, u)
    wv = vdot(w, v)
    det = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / det
    r = (uu * wv - uv * wu) / det
    return ((nn != 0.0) & ~(((da > 0.0) & (db > 0.0)) | ((da < 0.0) & (db < 0.0)))
            & (denom != 0.0) & (det != 0.0)
            & (s >= 0.0) & (r >= 0.0) & (s + r <= 1.0))


# Pairs per kernel call of a table: the kernels hold a few dozen temporaries
# of this many floats at once, so larger tables go in blocks of rows.
_TABLE_LANES = 4096


def _split(a):
    """A float array of shape (n, m, d), or (n, m, k, d), as the kernels'
    argument: a point (d coordinate arrays) or a tuple of k points."""
    if a.ndim == 3:
        return tuple(a[..., x] for x in range(a.shape[-1]))
    return tuple(_split(a[..., i, :]) for i in range(a.shape[-2]))


def _table(kernel, rows, cols, out):
    """out with row i set to kernel(rows[i], cols) for every row, each row
    or column a point or a tuple of points, a block of rows at a time."""
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    step = max(1, _TABLE_LANES // len(cols))
    cols = _split(cols[None])
    for start in range(0, len(rows), step):
        out[start:start + step] = kernel(_split(rows[start:start + step, None]), cols)
    return out


def point_triangle_table(points, tris, tol=DEFAULT_TOL):
    """dist_point_triangle(p, tri, tol) for every point p (rows) and triangle
    tri (columns); every triangle is checked first, as the scalar routine does."""
    for tri in tris:
        check_triangle(tri, tol)
    return _table(batch_dist_point_triangle, points, tris,
                  np.empty((len(points), len(tris))))


def segment_segment_table(segs, others, groups):
    """The least distance of every segment of segs (rows) to the segments
    others[i], i in a row of the int array groups (columns), two segments'
    distance being closest_segment_segment in both argument orders, the
    smaller.  Each block of rows is reduced over the groups as it is
    computed, so the distances of all segment pairs are never held at once."""
    def kernel(s, t):
        dist = np.minimum(batch_closest_segment_segment(*s, *t),
                          batch_closest_segment_segment(*t, *s))
        return dist[:, groups].min(axis=2)
    return _table(kernel, segs, others, np.empty((len(segs), len(groups))))


def segment_crosses_table(segs, tris):
    """segment_crosses_triangle(a, b, tri) for every segment (a, b) (rows)
    and triangle tri (columns), as a boolean array."""
    return _table(lambda seg, tri: batch_segment_crosses_triangle(*seg, tri),
                  segs, tris, np.empty((len(segs), len(tris)), dtype=bool))
