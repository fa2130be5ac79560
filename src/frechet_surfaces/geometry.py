"""Primitive geometry in R^2/R^3.

Minimum distances between points, segments and triangles; plane frames; and
the conic arcs that bound the intersection of a triangle's eps-neighborhood
with a plane.  Points are plain tuples of floats (length 2 or 3); the numpy
versions of the distance routines are in batched.py.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .scalar import (DEFAULT_TOL, DegeneratePolynomialError, Tolerance,
                     quadratic_roots, real_roots, within)

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Small vector helpers (dimension 2 or 3, plain floats for speed)
# ---------------------------------------------------------------------------

def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(a, s):
    return tuple(x * s for x in a)


def vdot(a, b):
    # An explicit left fold, ((0 + x0*y0) + x1*y1) + x2*y2: sum() of floats
    # compensates rounding from Python 3.12 on, and the kernels of batched.py
    # apply this function to arrays to repeat the order exactly.
    s = 0
    for x, y in zip(a, b):
        s = s + x * y
    return s


def vnorm(a):
    return math.sqrt(vdot(a, a))


def vdist(a, b):
    return vnorm(vsub(a, b))


def vlerp(a, b, t):
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def vunit(v):
    """v scaled to unit length; a zero vector is returned unchanged."""
    n = vnorm(v)
    return vscale(v, 1.0 / n) if n > 0 else v


def perp_component(v, unit_axis):
    """The part of v orthogonal to the unit vector unit_axis."""
    return vsub(v, vscale(unit_axis, vdot(v, unit_axis)))


def vcross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def triangle_unit_normal(tri):
    """Unit normal of a triangle in R^3, or None in R^2."""
    if len(tri[0]) == 2:
        return None
    return vunit(vcross3(vsub(tri[1], tri[0]), vsub(tri[2], tri[0])))


def cross_norm(a, b):
    """Norm of the cross product, valid for d=2 (scalar) and d=3."""
    if len(a) == 2:
        return abs(a[0] * b[1] - a[1] * b[0])
    return vnorm(vcross3(a, b))


def triangle_scale(tri):
    return max(vdist(tri[0], tri[1]), vdist(tri[1], tri[2]), vdist(tri[2], tri[0]))


def _area_test(edges, rel):
    """Whether a triangle with edge vectors q-p, r-p, r-q has an area of at
    most rel times its longest edge squared."""
    scale = max(vnorm(e) for e in edges)
    return 0.5 * cross_norm(edges[0], edges[1]) <= rel * scale * scale


def triangle_shape(tri, rel):
    """(shape, span) of a triangle, span the largest coordinate difference of
    its vertices and shape "degenerate" when its area is at most rel times
    its longest edge squared, "range" when it is not but its scale puts that
    test out of double precision, and "proper" otherwise.

    The test squares lengths twice, so on raw coordinates far from unit
    scale it under- or overflows.  It is decided on the edge vectors scaled
    by a power of two into [0.5, 1), which is exact; a proper triangle is
    "range" when the same test on its raw edges would call it degenerate,
    which can happen only when the power of two is beyond 2^200 either way."""
    p, q, r = tri
    edges = (vsub(q, p), vsub(r, p), vsub(r, q))
    span = max(abs(c) for e in edges for c in e)
    if span == 0.0:
        return "degenerate", span
    if not math.isfinite(span):
        return "range", span
    k = math.frexp(span)[1]
    if _area_test([[math.ldexp(c, -k) for c in e] for e in edges], rel):
        return "degenerate", span
    if abs(k) > 200 and _area_test(edges, rel):
        return "range", span
    return "proper", span


RANGE_MESSAGE = ("outside the range where its degeneracy test can be evaluated "
                 "in double precision")


def check_triangle(tri, tol=DEFAULT_TOL, degenerate_ok=False):
    if degenerate_ok:
        return
    shape, span = triangle_shape(tri, tol.rel)
    if shape == "degenerate":
        raise GeometryError("degenerate triangle (zero area)")
    if shape == "range":
        raise GeometryError(f"triangle spans {span:.3g}, {RANGE_MESSAGE}")


# ---------------------------------------------------------------------------
# Closest points and minimum distances
# ---------------------------------------------------------------------------

def closest_point_segment(p, a, b):
    """Closest point of segment [a, b] to p, as (point, t)."""
    ab = vsub(b, a)
    denom = vdot(ab, ab)
    if denom == 0.0:
        return a, 0.0
    t = vdot(vsub(p, a), ab) / denom
    t = min(1.0, max(0.0, t))
    return vadd(a, vscale(ab, t)), t


def closest_point_triangle(p, tri):
    """Closest point of a triangle to p, with the nearest feature.

    Returns (point, feature) where feature is ("vertex", i), ("edge", i) with
    edge i joining vertices i and (i+1) % 3, or ("face", 0).  Works in any
    dimension >= 2 since only dot products are used.
    """
    a, b, c = tri
    ab = vsub(b, a)
    ac = vsub(c, a)
    ap = vsub(p, a)
    d1 = vdot(ab, ap)
    d2 = vdot(ac, ap)
    if d1 <= 0.0 and d2 <= 0.0:
        return a, ("vertex", 0)

    bp = vsub(p, b)
    d3 = vdot(ab, bp)
    d4 = vdot(ac, bp)
    if d3 >= 0.0 and d4 <= d3:
        return b, ("vertex", 1)

    vc = d1 * d4 - d3 * d2
    # an edge branch whose denominator is 0 (coincident vertices) is skipped,
    # so that a later branch or the best-edge fallback answers
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0 and d1 - d3 != 0.0:
        t = d1 / (d1 - d3)
        return vadd(a, vscale(ab, t)), ("edge", 0)

    cp = vsub(p, c)
    d5 = vdot(ab, cp)
    d6 = vdot(ac, cp)
    if d6 >= 0.0 and d5 <= d6:
        return c, ("vertex", 2)

    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0 and d2 - d6 != 0.0:
        t = d2 / (d2 - d6)
        return vadd(a, vscale(ac, t)), ("edge", 2)

    va = d3 * d6 - d5 * d4
    if (va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0
            and (d4 - d3) + (d5 - d6) != 0.0):
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return vadd(b, vscale(vsub(c, b), t)), ("edge", 1)

    denom = va + vb + vc
    if denom == 0.0:
        # Degenerate triangle; fall back to the best edge.
        best = None
        for i in range(3):
            q, _ = closest_point_segment(p, tri[i], tri[(i + 1) % 3])
            d = vdist(p, q)
            if best is None or d < best[0]:
                best = (d, q, ("edge", i))
        return best[1], best[2]
    v = vb / denom
    w = vc / denom
    q = vadd(a, vadd(vscale(ab, v), vscale(ac, w)))
    return q, ("face", 0)


def dist_point_triangle(p, tri, tol=DEFAULT_TOL, degenerate_ok=False):
    check_triangle(tri, tol, degenerate_ok)
    q, _ = closest_point_triangle(p, tri)
    return vdist(p, q)


def closest_segment_segment(p1, q1, p2, q2):
    """Closest points of two segments; returns (dist, s, t)."""
    d1 = vsub(q1, p1)
    d2 = vsub(q2, p2)
    r = vsub(p1, p2)
    a = vdot(d1, d1)
    e = vdot(d2, d2)
    f = vdot(d2, r)
    if a == 0.0 and e == 0.0:
        return vdist(p1, p2), 0.0, 0.0
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        return vdist(p1, vadd(p2, vscale(d2, t))), 0.0, t
    c = vdot(d1, r)
    if e == 0.0:
        s = min(1.0, max(0.0, -c / a))
        return vdist(vadd(p1, vscale(d1, s)), p2), s, 0.0
    b = vdot(d1, d2)
    denom = a * e - b * b
    if denom > 0.0:
        s = min(1.0, max(0.0, (b * f - c * e) / denom))
    else:
        s = 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    pa = vadd(p1, vscale(d1, s))
    pb = vadd(p2, vscale(d2, t))
    return vdist(pa, pb), s, t


# ---------------------------------------------------------------------------
# Plane frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane2Frame:
    """Orthonormal 2D coordinate frame spanning a plane in R^d.  The basis is
    checked for orthonormality under `tol`."""

    origin: tuple
    b1: tuple
    b2: tuple
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        tol = self.tol
        if not (tol.zero(vnorm(self.b1) - 1.0, 1.0) and tol.zero(vnorm(self.b2) - 1.0, 1.0)
                and tol.zero(vdot(self.b1, self.b2), 1.0)):
            raise GeometryError("plane frame basis must be orthonormal")

    @property
    def dim(self):
        return len(self.origin)

    def normal(self):
        if self.dim != 3:
            raise GeometryError("plane normal only defined in R^3")
        return vcross3(self.b1, self.b2)

    def to_plane(self, p):
        d = vsub(p, self.origin)
        return (vdot(d, self.b1), vdot(d, self.b2))

    def from_plane(self, uv):
        return vadd(self.origin, vadd(vscale(self.b1, uv[0]), vscale(self.b2, uv[1])))

    def offset_of(self, p):
        """Signed distance of p from the plane (0 in d=2)."""
        if self.dim == 2:
            return 0.0
        return vdot(vsub(p, self.origin), self.normal())

    def affine_in_plane(self, grad, value_at_origin):
        """Restrict the ambient affine functional grad . p + c to plane coords.

        Returns (alpha, beta, gamma) with functional = alpha*u + beta*v + gamma.
        """
        return (vdot(grad, self.b1), vdot(grad, self.b2),
                value_at_origin + vdot(grad, self.origin))


def frame_of_triangle(tri, tol=DEFAULT_TOL):
    """Orthonormal frame of the plane supporting a (non-degenerate) triangle."""
    check_triangle(tri, tol)
    if len(tri[0]) == 2:
        return Plane2Frame((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), tol)
    b1 = vunit(vsub(tri[1], tri[0]))
    b2 = vunit(perp_component(vsub(tri[2], tri[0]), b1))
    return Plane2Frame(tri[0], b1, b2, tol)


# ---------------------------------------------------------------------------
# Squared distances to a triangle's features
# ---------------------------------------------------------------------------
#
# Along a line s0 + t*d the squared distance to a point or to a line is a
# quadratic A t^2 + B t + C in t; in the plane of a frame the squared distance
# to a vertex, an edge line or a face plane is a conic in the plane
# coordinates.  A feature is ("vertex", i), ("edge", i) with edge i joining
# vertices i and (i+1) % 3, or ("face", 0), as closest_point_triangle names
# them.

FEATURES = (("vertex", 0), ("vertex", 1), ("vertex", 2),
            ("edge", 0), ("edge", 1), ("edge", 2), ("face", 0))


def point_sqdist_quadratic(s0, d, q):
    """(A, B, C) with |s0 + t*d - q|^2 = A t^2 + B t + C."""
    w0 = vsub(s0, q)
    return (vdot(d, d), 2.0 * vdot(w0, d), vdot(w0, w0))


def line_sqdist_quadratic(s0, d, a, u):
    """(A, B, C) with A t^2 + B t + C the squared distance of s0 + t*d from
    the line through a with unit direction u."""
    w0 = vsub(s0, a)
    du = vdot(d, u)
    wu = vdot(w0, u)
    return (vdot(d, d) - du * du,
            2.0 * (vdot(w0, d) - wu * du),
            vdot(w0, w0) - wu * wu)


def feature_sqdist_conic(frame, tri, feature):
    """Implicit conic coefficients (A, B, C, D, E, F) of the squared distance
    to a triangle feature as a function of the frame's plane coordinates, or
    None when the feature does not define one (a face in R^2)."""
    kind, idx = feature
    g1, g2 = frame.b1, frame.b2
    o = frame.origin
    if kind == "vertex":
        r = vsub(o, tri[idx])
        return (1.0, 0.0, 1.0,
                2.0 * vdot(r, g1), 2.0 * vdot(r, g2), vdot(r, r))
    if kind == "edge":
        a = tri[idx]
        u = vunit(vsub(tri[(idx + 1) % 3], a))
        r = vsub(o, a)
        u1, u2 = vdot(g1, u), vdot(g2, u)
        ru = vdot(r, u)
        return (1.0 - u1 * u1, -2.0 * u1 * u2, 1.0 - u2 * u2,
                2.0 * (vdot(r, g1) - ru * u1), 2.0 * (vdot(r, g2) - ru * u2),
                vdot(r, r) - ru * ru)
    n = triangle_unit_normal(tri)
    if n is None:
        return None
    alpha = vdot(n, g1)
    beta = vdot(n, g2)
    gamma = vdot(n, vsub(o, tri[0]))
    return (alpha * alpha, 2.0 * alpha * beta, beta * beta,
            2.0 * alpha * gamma, 2.0 * beta * gamma, gamma * gamma)


# ---------------------------------------------------------------------------
# Nearest-feature regions of a triangle
# ---------------------------------------------------------------------------
#
# The points whose nearest point of a triangle lies on one feature form that
# feature's region, an intersection of half-spaces bounded by nine planes.

# The (plane index, side) pairs of each region: a vertex lies behind its two
# vertex planes, an edge in front of the vertex planes at both of its ends and
# outside its side plane, the face inside all three side planes.
_REGION_SIDES = {
    ("vertex", 0): ((0, 1), (1, 1)),
    ("vertex", 1): ((2, 1), (3, 1)),
    ("vertex", 2): ((4, 1), (5, 1)),
    ("edge", 0): ((0, -1), (2, -1), (6, 1)),
    ("edge", 1): ((3, -1), (5, -1), (7, 1)),
    ("edge", 2): ((4, -1), (1, -1), (8, 1)),
    ("face", 0): ((6, -1), (7, -1), (8, -1)),
}


def feature_regions(tri):
    """The nine planes that bound a triangle's nearest-feature regions, and
    for each feature of FEATURES the (plane index, side) pairs of its region:
    where side * (grad . p + c) <= 0 for every pair.

    A plane is (grad, c), the affine functional grad . p + c: first the six
    vertex planes (p - v_i) . (v_j - v_i) for (i, j) = (0, 1), (0, 2), (1, 0),
    (1, 2), (2, 0), (2, 1), then the side planes (p - a) . w of edges
    i = 0, 1, 2 joining a = v_i and b, with w the part of c - a orthogonal to
    b - a (c the third vertex).  Works in any dimension >= 2."""
    planes = []
    for i, j in permutations(range(3), 2):
        grad = vsub(tri[j], tri[i])
        planes.append((grad, -vdot(tri[i], grad)))
    for i in range(3):
        a, b, c = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        w = perp_component(vsub(c, a), vunit(vsub(b, a)))
        planes.append((w, -vdot(a, w)))
    return planes, _REGION_SIDES


def _oriented_plane(plane, side):
    """The plane itself for side 1; its exact negation for side -1."""
    grad, c = plane
    return plane if side > 0 else (vscale(grad, -1.0), -c)


# ---------------------------------------------------------------------------
# Conic arcs in a plane frame
# ---------------------------------------------------------------------------

@dataclass
class ConicArc:
    """Arc of an ellipse (a circle when rx == ry), or a straight segment, in
    plane coordinates.

    Ellipse arcs are parameterized as
        p(t) = center + rx*cos(t)*u_axis + ry*sin(t)*v_axis
    with t in [t0, t1] (t1 <= t0 + 2*pi); segments use p(t) = p0 + t*(p1-p0),
    t in [0, 1].  ``coeffs`` stores the implicit supporting conic
    A x^2 + B xy + C y^2 + D x + E y + F = 0.  ``source`` records the triangle
    feature ("vertex" i / "edge" i / "face" 0) whose distance level set
    produced the arc.
    """

    kind: str  # "ellipse" | "segment"
    center: tuple = (0.0, 0.0)
    rx: float = 0.0
    ry: float = 0.0
    rot: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    p0: tuple = (0.0, 0.0)
    p1: tuple = (0.0, 0.0)
    coeffs: tuple = (0.0,) * 6
    source: tuple = ("face", 0)

    def point(self, t):
        if self.kind == "segment":
            return (self.p0[0] + t * (self.p1[0] - self.p0[0]),
                    self.p0[1] + t * (self.p1[1] - self.p0[1]))
        cr, sr = math.cos(self.rot), math.sin(self.rot)
        x = self.rx * math.cos(t)
        y = self.ry * math.sin(t)
        return (self.center[0] + x * cr - y * sr,
                self.center[1] + x * sr + y * cr)

    def endpoints(self):
        return self.point(self.t0), self.point(self.t1)

    def sample(self, n):
        ts = [self.t0 + (self.t1 - self.t0) * i / (n - 1) for i in range(n)]
        return [self.point(t) for t in ts]

    def param_of_point(self, p, tol=DEFAULT_TOL):
        """Parameter of a point assumed on the supporting curve, or None if
        outside the arc's parameter range."""
        if self.kind == "segment":
            dx = self.p1[0] - self.p0[0]
            dy = self.p1[1] - self.p0[1]
            L2 = dx * dx + dy * dy
            if L2 == 0.0:
                return None
            t = ((p[0] - self.p0[0]) * dx + (p[1] - self.p0[1]) * dy) / L2
            slack = tol.gap(1.0) * 1e3
            if -slack <= t <= 1.0 + slack:
                return min(1.0, max(0.0, t))
            return None
        cr, sr = math.cos(self.rot), math.sin(self.rot)
        dx = p[0] - self.center[0]
        dy = p[1] - self.center[1]
        xl = dx * cr + dy * sr
        yl = -dx * sr + dy * cr
        t = math.atan2(yl / self.ry if self.ry > 0 else 0.0,
                       xl / self.rx if self.rx > 0 else 0.0)
        # shift into [t0, t0 + 2*pi)
        while t < self.t0 - 1e-12:
            t += TWO_PI
        slack = 1e-7 + tol.rel * 1e3
        if t <= self.t1 + slack:
            return min(self.t1, max(self.t0, t))
        return None

    def x_extreme_params(self):
        """Parameters interior to the arc where dx/dt = 0 (vertical tangents)."""
        if self.kind == "segment":
            return []
        # x(t) = cx + rx cos t cos rot - ry sin t sin rot
        # dx/dt = -rx sin t cos rot - ry cos t sin rot = 0
        a = -self.rx * math.cos(self.rot)
        b = -self.ry * math.sin(self.rot)
        if a == 0.0 and b == 0.0:
            return []
        t_base = math.atan2(-b, a)  # solves a sin t + b cos t = 0
        out = []
        for k in (-2, -1, 0, 1, 2):
            for off in (0.0, math.pi):
                t = t_base + off + k * TWO_PI
                if self.t0 < t < self.t1:
                    out.append(t)
        return sorted(set(out))

    def aabb(self):
        pts = [self.point(self.t0), self.point(self.t1)]
        pts += [self.point(t) for t in self.x_extreme_params()]
        if self.kind != "segment":
            # also y-extremes for a proper box
            a = -self.rx * math.sin(self.rot)
            b = self.ry * math.cos(self.rot)
            if not (a == 0.0 and b == 0.0):
                t_base = math.atan2(b, a)
                for k in (-2, -1, 0, 1, 2):
                    for off in (0.0, math.pi):
                        t = t_base + off + k * TWO_PI
                        if self.t0 < t < self.t1:
                            pts.append(self.point(t))
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return (min(xs), min(ys), max(xs), max(ys))

    def vertical_line_hits(self, x):
        """y-values where the arc meets the vertical line u = x."""
        out = []
        if self.kind == "segment":
            dx = self.p1[0] - self.p0[0]
            if dx == 0.0:
                return []
            t = (x - self.p0[0]) / dx
            if 0.0 <= t <= 1.0:
                out.append(self.p0[1] + t * (self.p1[1] - self.p0[1]))
            return out
        A, B, C, D, E, F = self.coeffs
        # C y^2 + (B x + E) y + (A x^2 + D x + F) = 0
        ys = quadratic_roots(C, B * x + E, A * x * x + D * x + F)
        for y in ys:
            if self.param_of_point((x, y)) is not None:
                out.append(y)
        return out


def conic_value(coeffs, x, y):
    """A x^2 + B xy + C y^2 + D x + E y + F for coeffs (A, B, C, D, E, F)."""
    A, B, C, D, E, F = coeffs
    return A * x * x + B * x * y + C * y * y + D * x + E * y + F


def _ellipse_coeffs(cx, cy, rx, ry, rot):
    # Expand ((x') / rx)^2 + ((y') / ry)^2 = 1 with x' = rotation of (x - c).
    c, s = math.cos(rot), math.sin(rot)
    irx2 = 1.0 / (rx * rx)
    iry2 = 1.0 / (ry * ry)
    A = c * c * irx2 + s * s * iry2
    B = 2.0 * c * s * (irx2 - iry2)
    C = s * s * irx2 + c * c * iry2
    # substitute x -> x - cx, y -> y - cy
    D = -2.0 * A * cx - B * cy
    E = -B * cx - 2.0 * C * cy
    F = A * cx * cx + B * cx * cy + C * cy * cy - 1.0
    return (A, B, C, D, E, F)


def _line_coeffs(p0, p1):
    nx = -(p1[1] - p0[1])
    ny = p1[0] - p0[0]
    return (0.0, 0.0, 0.0, nx, ny, -(nx * p0[0] + ny * p0[1]))


def make_segment_arc(p0, p1, source=("face", 0)):
    return ConicArc(kind="segment", p0=tuple(p0), p1=tuple(p1), t0=0.0, t1=1.0,
                    coeffs=_line_coeffs(p0, p1), source=source)


def make_ellipse_arc(center, rx, ry, rot, t0, t1, source):
    return ConicArc(kind="ellipse", center=tuple(center), rx=rx, ry=ry, rot=rot,
                    t0=t0, t1=t1,
                    coeffs=_ellipse_coeffs(center[0], center[1], rx, ry, rot),
                    source=source)


# ---------------------------------------------------------------------------
# Clipping parameter intervals of a carrier curve against half-planes
# ---------------------------------------------------------------------------

def _halfplane_values_on_ellipse(hp, center, rx, ry, rot):
    """Rewrite alpha*u + beta*v + gamma on the ellipse as a*cos t + b*sin t + c."""
    alpha, beta, gamma = hp
    cr, sr = math.cos(rot), math.sin(rot)
    # u = cx + rx cos t cr - ry sin t sr ; v = cy + rx cos t sr + ry sin t cr
    a = alpha * rx * cr + beta * rx * sr
    b = -alpha * ry * sr + beta * ry * cr
    c = alpha * center[0] + beta * center[1] + gamma
    return a, b, c


def _clip_intervals(intervals, crossings, inside_fn):
    """Split intervals at crossing params; keep parts whose midpoint passes."""
    out = []
    for (a, b) in intervals:
        cuts = sorted([a, b] + [t for t in crossings if a < t < b])
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo <= 1e-13:
                continue
            if inside_fn(0.5 * (lo + hi)):
                if out and abs(out[-1][1] - lo) <= 1e-13:
                    out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
    return out


def clip_ellipse_by_halfplanes(center, rx, ry, rot, halfplanes, tol=DEFAULT_TOL):
    """Parameter intervals of the full ellipse where all alpha*u+beta*v+gamma <= 0."""
    intervals = [(0.0, TWO_PI)]
    for hp in halfplanes:
        a, b, c = _halfplane_values_on_ellipse(hp, center, rx, ry, rot)
        R = math.hypot(a, b)
        scale = max(R, abs(c), 1e-300)
        if R <= tol.rel * scale:
            if c > 0.0:
                return []
            continue
        crossings = []
        if abs(c) <= R:
            phi = math.atan2(b, a)
            delta = math.acos(max(-1.0, min(1.0, -c / R)))
            for base in (phi + delta, phi - delta):
                t = base % TWO_PI
                crossings.extend([t, t + TWO_PI])
        val = lambda t, a=a, b=b, c=c: a * math.cos(t) + b * math.sin(t) + c
        intervals = _clip_intervals(intervals, crossings, lambda t: val(t) <= 0.0)
        if not intervals:
            return []
    # merge a wrap-around pair (..., 2*pi) + (0, ...) into one arc
    if len(intervals) >= 2 and intervals[0][0] <= 1e-12 \
            and intervals[-1][1] >= TWO_PI - 1e-12:
        first = intervals.pop(0)
        last = intervals.pop()
        intervals.append((last[0], first[1] + TWO_PI))
    return intervals


def clip_segment_by_halfplanes(p0, p1, halfplanes, tol=DEFAULT_TOL):
    """Sub-intervals of the segment param [0,1] where all half-planes hold."""
    intervals = [(0.0, 1.0)]
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    for (alpha, beta, gamma) in halfplanes:
        v0 = alpha * p0[0] + beta * p0[1] + gamma
        slope = alpha * dx + beta * dy
        scale = max(abs(v0), abs(slope), 1e-300)
        if abs(slope) <= tol.rel * scale:
            if v0 > 0.0:
                return []
            continue
        crossings = [-v0 / slope]
        intervals = _clip_intervals(
            intervals, crossings, lambda t: v0 + slope * t <= 0.0)
        if not intervals:
            return []
    return intervals


# ---------------------------------------------------------------------------
# eps-neighborhood of a triangle intersected with a plane
# ---------------------------------------------------------------------------

def _classify_restricted_quadric(A2, b2, c0, source, scene_halfwidth, halfplanes,
                                 tol):
    """Zero set of an edge conic on the plane, clipped by half-planes.

    A2 is the symmetric 2x2 quadratic part in plane coords, b2 the linear part,
    c0 the constant:  q(w) = w^T A2 w + 2 b2 . w + c0.  A2 is I - u u^T for
    the in-plane part u of the edge's unit direction, so its larger eigenvalue
    is 1 and q is never affine.  Returns a list of ConicArcs.
    """
    arcs = []
    A = np.array(A2, dtype=float)
    b = np.array(b2, dtype=float)
    evals, evecs = np.linalg.eigh(A)
    lam_small, lam_big = float(evals[0]), float(evals[1])
    scale = max(lam_big, abs(c0), float(np.max(np.abs(b))), 1e-300)

    if lam_small > 1e-7 * lam_big:
        # positive definite: ellipse
        center = np.linalg.solve(A, -b)
        q0 = c0 + float(b @ center)
        if q0 >= -tol.abs * max(1.0, scale):
            return []  # empty or a single point
        r1 = math.sqrt(-q0 / lam_big)
        r2 = math.sqrt(-q0 / lam_small)
        # axis of lam_big has the SMALL radius r1
        ax = evecs[:, 1]
        rot = math.atan2(ax[1], ax[0])
        cxy = (float(center[0]), float(center[1]))
        for (t0, t1) in clip_ellipse_by_halfplanes(cxy, r1, r2, rot, halfplanes, tol):
            arcs.append(make_ellipse_arc(cxy, r1, r2, rot, t0, t1, source))
        return arcs

    # rank one: q = lam_big * (e . w + s0)^2 + const -> 0, 1 or 2 parallel lines
    e = evecs[:, 1]
    # q(w) = lam*(e.w)^2 + 2 b.w + c0 with b parallel to e (PSD cylinder case)
    be = float(b @ e)
    c_line = c0
    # lam * s^2 + 2 be * s + c_line = 0 for s = e.w
    roots = quadratic_roots(lam_big, 2.0 * be, c_line, tol)
    for s in roots:
        # line: e . w = s  ->  e0*u + e1*v - s = 0, both orientations clipped
        arcs.extend(_line_to_arcs((float(e[0]), float(e[1]), -s),
                                  scene_halfwidth, halfplanes, source, tol))
    return arcs


def _line_to_arcs(line, scene_halfwidth, halfplanes, source, tol):
    """Clip the line alpha*u + beta*v + gamma = 0 to a big box, then by the
    half-planes, producing segment arcs."""
    alpha, beta, gamma = line
    n = math.hypot(alpha, beta)
    if n == 0.0:
        return []
    alpha, beta, gamma = alpha / n, beta / n, gamma / n
    # point on line closest to origin, direction along line
    px, py = -gamma * alpha, -gamma * beta
    dx, dy = -beta, alpha
    M = scene_halfwidth
    p0 = (px - M * dx, py - M * dy)
    p1 = (px + M * dx, py + M * dy)
    ivals = clip_segment_by_halfplanes(p0, p1, halfplanes, tol)
    out = []
    for (t0, t1) in ivals:
        q0 = vlerp(p0, p1, t0)
        q1 = vlerp(p0, p1, t1)
        if vdist(q0, q1) <= tol.abs:
            continue
        out.append(make_segment_arc(q0, q1, source))
    return out


def plane_triangle_distance(frame, tri):
    """Distance from the (infinite) plane of the frame to a triangle."""
    if frame.dim == 2:
        return 0.0
    n = frame.normal()
    offs = [vdot(vsub(v, frame.origin), n) for v in tri]
    if min(offs) <= 0.0 <= max(offs):
        return 0.0
    return min(abs(o) for o in offs)


def eps_neighborhood_plane_boundary(tri, eps, frame, tol=DEFAULT_TOL):
    """Boundary arcs of the eps-neighborhood of a triangle within a plane, as
    a list of ConicArcs; empty when the neighborhood misses or only touches
    the plane.

    Assembles the level set dist(., tri) = eps from the triangle's seven
    features: three vertices (sphere cap -> circle), three edges (cylinder ->
    ellipse / parallel lines) and the face (two offset planes -> lines, d=3
    only).  Each feature's curve is clipped to the region where that feature
    is the nearest one — feature_regions bounds those regions by planes, so
    the clipping is exact.
    """
    if eps < 0.0:
        raise GeometryError("eps must be nonnegative")
    check_triangle(tri, tol)
    d = len(tri[0])

    dmin = plane_triangle_distance(frame, tri)
    if not within(dmin, eps, tol):
        return []

    # Half-width of a box (in plane coords, around the frame origin) certain to
    # contain every boundary point of the neighborhood slice.
    reach = max(vdist(frame.origin, v) for v in tri)
    scene = reach + triangle_scale(tri) + eps + 1.0
    arcs = []
    planes, sides = feature_regions(tri)

    def region(feature):
        # the feature's nearest region as half-planes alpha*u + beta*v + gamma <= 0
        return [frame.affine_in_plane(*_oriented_plane(planes[k], side))
                for k, side in sides[feature]]

    # vertex features: sphere caps, circles of radius rho in the plane
    for i in range(3):
        v = tri[i]
        h = frame.offset_of(v)
        rho2 = eps * eps - h * h
        if rho2 <= (tol.abs + tol.rel * eps) ** 2:
            continue
        rho = math.sqrt(rho2)
        cuv = frame.to_plane(v)
        for (t0, t1) in clip_ellipse_by_halfplanes(cuv, rho, rho, 0.0,
                                                   region(("vertex", i)), tol):
            arcs.append(make_ellipse_arc(cuv, rho, rho, 0.0, t0, t1, ("vertex", i)))

    # edge features: the squared distance to the edge line minus eps^2, as
    # w^T A2 w + 2 b2 . w + c0 in plane coordinates w (halving B, D, E is exact)
    for i in range(3):
        A, B, C, D, E, F = feature_sqdist_conic(frame, tri, ("edge", i))
        arcs.extend(_classify_restricted_quadric(
            ((A, 0.5 * B), (0.5 * B, C)), (0.5 * D, 0.5 * E), F - eps * eps,
            ("edge", i), scene, region(("edge", i)), tol))

    # face feature (two offset planes), d=3 only
    if d == 3:
        n = triangle_unit_normal(tri)
        alpha, beta, gamma0 = frame.affine_in_plane(n, -vdot(tri[0], n))
        # lambda(u,v) = alpha*u + beta*v + gamma0 is the signed plane offset
        if math.hypot(alpha, beta) > tol.rel:
            hps = region(("face", 0))
            for sign in (1.0, -1.0):
                line = (alpha, beta, gamma0 - sign * eps)
                arcs.extend(_line_to_arcs(line, scene, hps, ("face", 0), tol))

    return arcs


# ---------------------------------------------------------------------------
# Conic-conic intersection
# ---------------------------------------------------------------------------

class OverlappingArcsError(GeometryError):
    pass


def conic_y_resultant(c1, c2):
    """The resultant in y of two conics (A, B, C, D, E, F), viewed as
    quadratics a y^2 + b(x) y + c(x) with a = C, b = E + B x and
    c = F + D x + A x^2: the quartic (p^2 - q v)(x) with p = a1 c2 - a2 c1,
    q = a1 b2 - a2 b1 and v = b1 c2 - b2 c1, and the cubic v itself, which
    the conics share as a root polynomial when both are linear in y.  Both
    are returned lowest degree first.  The coefficients may be floats or
    equal-length arrays, one entry per conic pair."""
    A1, B1, Cc1, D1, E1, F1 = c1
    A2, B2, Cc2, D2, E2, F2 = c2
    # p = a1*c2(x) - a2*c1(x), degree 2
    p0 = Cc1 * F2 - Cc2 * F1
    p1 = Cc1 * D2 - Cc2 * D1
    p2 = Cc1 * A2 - Cc2 * A1
    # q = a1*b2(x) - a2*b1(x), degree 1
    q0 = Cc1 * E2 - Cc2 * E1
    q1 = Cc1 * B2 - Cc2 * B1
    # v = b1*c2(x) - b2*c1(x), degree 3
    v0 = E1 * F2 - E2 * F1
    v1 = E1 * D2 + B1 * F2 - (E2 * D1 + B2 * F1)
    v2 = E1 * A2 + B1 * D2 - (E2 * A1 + B2 * D1)
    v3 = B1 * A2 - B2 * A1
    quartic = (p0 * p0 - q0 * v0,
               2 * p0 * p1 - (q0 * v1 + q1 * v0),
               p1 * p1 + 2 * p0 * p2 - (q0 * v2 + q1 * v1),
               2 * p1 * p2 - (q0 * v3 + q1 * v2),
               p2 * p2 - q1 * v3)
    return quartic, (v0, v1, v2, v3)


def _normalize_coeffs(coeffs):
    m = max(abs(c) for c in coeffs)
    if m == 0.0:
        return None
    v = [c / m for c in coeffs]
    # canonical sign: first nonzero positive
    for c in v:
        if abs(c) > 1e-14:
            if c < 0:
                v = [-x for x in v]
            break
    return v


def conics_identical(c1, c2, tol=DEFAULT_TOL):
    n1 = _normalize_coeffs(c1)
    n2 = _normalize_coeffs(c2)
    if n1 is None or n2 is None:
        return False
    return all(abs(a - b) <= tol.rel for a, b in zip(n1, n2))


def conic_conic_points(c1, c2, xlo, xhi, tol=DEFAULT_TOL):
    """Intersection points of two implicit conics with x in [xlo, xhi], at
    least one of them an ellipse (with a y^2 term).

    Eliminates y via the quartic of conic_y_resultant, isolates its x-roots
    with the scalar kernel, then recovers y on a conic with a y^2 term.
    """
    s1 = max(abs(c) for c in c1)
    s2 = max(abs(c) for c in c2)
    if s1 == 0.0 or s2 == 0.0:
        return []
    c1 = [c / s1 for c in c1]
    c2 = [c / s2 for c in c2]
    # swapping the conics negates p, q and v and leaves the resultant unchanged
    if abs(c1[2]) <= 1e-10:
        c1, c2 = c2, c1
    res, _ = conic_y_resultant(c1, c2)
    A, B, C, D, E, F = c1

    pts = []
    try:
        xs = real_roots(res, xlo, xhi, tol)
    except DegeneratePolynomialError:
        xs = []
    for x in xs:
        try:
            ys = quadratic_roots(C, E + B * x, F + D * x + A * x * x, tol)
        except DegeneratePolynomialError:
            ys = []
        for y in ys:
            if abs(conic_value(c2, x, y)) <= 1e-6 * (1.0 + x * x + y * y):
                pts.append((x, y))

    # dedup
    out = []
    for p in pts:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) <= 100.0 * tol.gap(max(abs(p[0]), abs(p[1])))
                   for q in out):
            out.append(p)
    return out


def arc_pair_intersections(a, b, tol=DEFAULT_TOL):
    """Intersection points of two coplanar arcs, within both parameter ranges.

    Two segments meet in closed form; a pair with an ellipse goes through
    conic_conic_points.  Arcs on one supporting curve that overlap in more
    than a point raise OverlappingArcsError."""
    if a.kind == "segment" and b.kind == "segment":
        dx = b.p1[0] - b.p0[0]
        dy = b.p1[1] - b.p0[1]
        if conics_identical(a.coeffs, b.coeffs, tol):
            # Same supporting line.  Touching at one point is fine; an overlap
            # of positive length is caller's problem.
            L2 = dx * dx + dy * dy
            if L2 == 0.0:
                return []
            sa = ((a.p0[0] - b.p0[0]) * dx + (a.p0[1] - b.p0[1]) * dy) / L2
            sb = ((a.p1[0] - b.p0[0]) * dx + (a.p1[1] - b.p0[1]) * dy) / L2
            lo = max(0.0, min(sa, sb))
            hi = min(1.0, max(sa, sb))
            gap = tol.gap(1.0) * 10.0
            if hi - lo > gap:
                raise OverlappingArcsError("overlapping arcs (collinear segments)")
            if abs(hi - lo) <= gap and hi >= lo - gap:
                t = 0.5 * (lo + hi)
                return [(b.p0[0] + t * dx, b.p0[1] + t * dy)]
            return []
        # a.p0 + s (a.p1 - a.p0) = b.p0 + t (b.p1 - b.p0), by Cramer's rule
        ex = a.p1[0] - a.p0[0]
        ey = a.p1[1] - a.p0[1]
        den = ex * dy - ey * dx
        if den == 0.0:
            return []  # parallel
        wx = b.p0[0] - a.p0[0]
        wy = b.p0[1] - a.p0[1]
        s = (wx * dy - wy * dx) / den
        t = (wx * ey - wy * ex) / den
        slack = tol.gap(1.0) * 1e3  # the slack of param_of_point
        if -slack <= s <= 1.0 + slack and -slack <= t <= 1.0 + slack:
            return [(a.p0[0] + s * ex, a.p0[1] + s * ey)]
        return []
    if a.kind != "segment" and b.kind != "segment":
        if conics_identical(a.coeffs, b.coeffs, tol):
            raise OverlappingArcsError("overlapping arcs (identical supporting conics)")

    ax0, ay0, ax1, ay1 = a.aabb()
    bx0, by0, bx1, by1 = b.aabb()
    pad = 10.0 * tol.gap(max(abs(ax0), abs(ax1), abs(bx0), abs(bx1)))
    xlo = max(ax0, bx0) - pad
    xhi = min(ax1, bx1) + pad
    if xlo > xhi:
        return []
    pts = conic_conic_points(a.coeffs, b.coeffs, xlo, xhi, tol)
    out = []
    for p in pts:
        if a.param_of_point(p, tol) is not None and b.param_of_point(p, tol) is not None:
            out.append(p)
    return out
