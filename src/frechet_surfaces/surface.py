"""Triangulated parameter domains over the unit square with piecewise-linear
maps into R^2 or R^3.

A surface is a triangulation of [0,1]^2 plus one image point per parameter
vertex; on each triangle the map is the affine extension of the vertex images.
Surfaces are immutable after construction and safe to share across threads.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .scalar import DEFAULT_TOL
from .geometry import RANGE_MESSAGE, triangle_shape, vdist, vsub


class ValidationError(ValueError):
    """Raised when an operation requires a valid surface and gets none."""


def parse_coordinate(value):
    """Accept a number or a 'p/q' rational string; return (float, raw_text)."""
    if isinstance(value, str):
        return float(Fraction(value)), value
    return float(value), None


def _signed_area2(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


@dataclass(frozen=True)
class ParamTriangulation:
    """Triangulation of the unit square: 2D vertices plus index triples."""

    vertices: tuple          # tuple of (x, y)
    triangles: tuple         # tuple of (i, j, k), counterclockwise
    vertex_texts: tuple = () # original rational texts where given, else None

    @staticmethod
    def create(vertices, triangles, vertex_texts=None):
        verts = tuple((float(v[0]), float(v[1])) for v in vertices)
        tris = tuple(tuple(int(i) for i in t) for t in triangles)
        texts = tuple(vertex_texts) if vertex_texts else tuple(None for _ in verts)
        return ParamTriangulation(verts, tris, texts)

    def edge_map(self):
        """Undirected edge -> list of incident triangle indices."""
        em = {}
        for ti, (i, j, k) in enumerate(self.triangles):
            for a, b in ((i, j), (j, k), (k, i)):
                key = (a, b) if a < b else (b, a)
                em.setdefault(key, []).append(ti)
        return em

    def edges(self):
        return sorted(self.edge_map().keys())

    def boundary_edges(self):
        return sorted(e for e, ts in self.edge_map().items() if len(ts) == 1)

    def triangle_points(self, ti):
        i, j, k = self.triangles[ti]
        return (self.vertices[i], self.vertices[j], self.vertices[k])


def _edge_on_square_boundary(a, b, tol):
    g = tol.gap(1.0)
    for c in (0.0, 1.0):
        if abs(a[0] - c) <= g and abs(b[0] - c) <= g:
            return True
        if abs(a[1] - c) <= g and abs(b[1] - c) <= g:
            return True
    return False


@dataclass(frozen=True)
class Surface:
    """Piecewise-linear parameterized surface: parameter triangulation plus
    per-vertex image coordinates in R^d, d in {2, 3}."""

    param: ParamTriangulation
    image: tuple  # tuple of d-tuples, one per parameter vertex

    @staticmethod
    def create(param, image):
        img = tuple(tuple(float(c) for c in p) for p in image)
        return Surface(param, img)

    @property
    def dim(self):
        return len(self.image[0])

    @property
    def n_triangles(self):
        return len(self.param.triangles)

    def image_triangle(self, ti):
        i, j, k = self.param.triangles[ti]
        return (self.image[i], self.image[j], self.image[k])

    def image_segment(self, edge):
        i, j = edge
        return (self.image[i], self.image[j])

    def image_triangles(self):
        return [self.image_triangle(i) for i in range(self.n_triangles)]


def validate(surface, tol=DEFAULT_TOL):
    """Validation report: list of human-readable violations (empty iff valid)."""
    report = []
    tri = surface.param
    nv = len(tri.vertices)
    g = tol.gap(1.0)

    for i, v in enumerate(tri.vertices):
        if not all(math.isfinite(c) for c in v):
            report.append(f"vertex {i} has non-finite coordinates")
        elif not (-g <= v[0] <= 1.0 + g and -g <= v[1] <= 1.0 + g):
            report.append(f"vertex {i} outside [0,1]^2: {v}")

    if len(surface.image) != nv:
        report.append(
            f"image vertex count {len(surface.image)} != parameter vertex count {nv}")
        return report
    d = surface.dim
    if d not in (2, 3):
        report.append(f"image dimension {d} unsupported (need 2 or 3)")
        return report
    for i, p in enumerate(surface.image):
        if len(p) != d:
            report.append(f"image vertex {i} has mixed dimension")
            return report
        if not all(math.isfinite(c) for c in p):
            report.append(f"image vertex {i} has non-finite coordinates")

    area_sum = 0.0
    for ti, t in enumerate(tri.triangles):
        if len(set(t)) != 3 or any(i < 0 or i >= nv for i in t):
            report.append(f"triangle {ti} has invalid vertex indices {t}")
            continue
        a, b, c = tri.triangle_points(ti)
        s2 = _signed_area2(a, b, c)
        if s2 <= g * g:
            if s2 < -g * g:
                report.append(f"triangle {ti} is clockwise (needs counterclockwise)")
            else:
                report.append(f"triangle {ti} is degenerate in parameter space")
            continue
        area_sum += 0.5 * s2
    if report:
        return report

    if abs(area_sum - 1.0) > 1e-9:
        report.append(
            f"triangle area sum {area_sum:.12g} != 1 (union is not the unit square)")

    for (a, b), ts in tri.edge_map().items():
        if len(ts) > 2:
            report.append(f"edge ({a},{b}) shared by {len(ts)} triangles")
        elif len(ts) == 1:
            if not _edge_on_square_boundary(tri.vertices[a], tri.vertices[b], tol):
                report.append(
                    f"edge ({a},{b}) has one incident triangle but is not on the "
                    f"square boundary")
        else:
            # internal edge: the two triangles must traverse it oppositely
            dirs = []
            for ti in ts:
                i, j, k = tri.triangles[ti]
                for u, v in ((i, j), (j, k), (k, i)):
                    if (min(u, v), max(u, v)) == (min(a, b), max(a, b)):
                        dirs.append((u, v))
            if len(dirs) == 2 and dirs[0] == dirs[1]:
                report.append(
                    f"edge ({a},{b}) traversed twice in the same direction "
                    f"(inconsistent orientation or overlap)")

    # boundary edges must cover the full square perimeter
    blen = 0.0
    for (a, b) in tri.boundary_edges():
        blen += vdist(tri.vertices[a], tri.vertices[b])
    if abs(blen - 4.0) > 1e-9:
        report.append(
            f"boundary edge length sum {blen:.12g} != 4 (square boundary not traced)")

    for ti in range(len(tri.triangles)):
        shape, span = triangle_shape(surface.image_triangle(ti), tol.rel)
        if shape == "degenerate":
            report.append(f"degenerate image triangle at index {ti}")
        elif shape == "range":
            report.append(f"image triangle {ti} spans {span:.3g}, {RANGE_MESSAGE}")

    return report


def require_valid(surface, tol=DEFAULT_TOL):
    rep = validate(surface, tol)
    if rep:
        raise ValidationError("; ".join(rep))
    return surface


def _barycentric(p, a, b, c):
    det = _signed_area2(a, b, c)
    l1 = _signed_area2(p, b, c) / det
    l2 = _signed_area2(a, p, c) / det
    return l1, l2, 1.0 - l1 - l2


def locate_triangle(tri, p, tol=DEFAULT_TOL):
    """Index of a triangle containing p (linear scan), with barycentrics."""
    g = tol.gap(1.0)
    for ti in range(len(tri.triangles)):
        a, b, c = tri.triangle_points(ti)
        l1, l2, l3 = _barycentric(p, a, b, c)
        if min(l1, l2, l3) >= -g:
            return ti, (l1, l2, l3)
    return None, None


def eval_surface(surface, p, tol=DEFAULT_TOL):
    """Image of a parameter point under the piecewise-linear map."""
    x, y = p
    g = tol.gap(1.0)
    if not (-g <= x <= 1.0 + g and -g <= y <= 1.0 + g):
        raise ValueError(f"parameter point {p} outside [0,1]^2")
    ti, lam = locate_triangle(surface.param, p, tol)
    if ti is None:
        raise ValueError(f"parameter point {p} not inside any triangle")
    i, j, k = surface.param.triangles[ti]
    pi, pj, pk = surface.image[i], surface.image[j], surface.image[k]
    return tuple(lam[0] * a + lam[1] * b + lam[2] * c
                 for a, b, c in zip(pi, pj, pk))


def barycentric_subdivide(surface):
    """One barycentric-style subdivision: each triangle is split into 6 by its
    edge midpoints and centroid.  The pointwise map is preserved exactly."""
    tri = surface.param
    verts = list(tri.vertices)
    imgs = list(surface.image)
    midpoint_index = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key in midpoint_index:
            return midpoint_index[key]
        vi, vj = verts[i], verts[j]
        verts.append(((vi[0] + vj[0]) / 2.0, (vi[1] + vj[1]) / 2.0))
        imgs.append(tuple((a + b) / 2.0 for a, b in zip(imgs[i], imgs[j])))
        midpoint_index[key] = len(verts) - 1
        return midpoint_index[key]

    new_tris = []
    for (i, j, k) in tri.triangles:
        mij = midpoint(i, j)
        mjk = midpoint(j, k)
        mki = midpoint(k, i)
        vi, vj, vk = verts[i], verts[j], verts[k]
        verts.append(((vi[0] + vj[0] + vk[0]) / 3.0, (vi[1] + vj[1] + vk[1]) / 3.0))
        imgs.append(tuple((a + b + c) / 3.0
                          for a, b, c in zip(imgs[i], imgs[j], imgs[k])))
        cen = len(verts) - 1
        new_tris.extend([
            (i, mij, cen), (mij, j, cen), (j, mjk, cen),
            (mjk, k, cen), (k, mki, cen), (mki, i, cen),
        ])

    param = ParamTriangulation(tuple(verts), tuple(new_tris),
                               tuple([*tri.vertex_texts] + [None] * (len(verts) - len(tri.vertices))))
    return Surface(param, tuple(imgs))


def subdivide_times(surface, m):
    s = surface
    for _ in range(m):
        s = barycentric_subdivide(s)
    return s


def mesh_size(tri):
    """Max triangle diameter (max pairwise vertex distance over triangles)."""
    best = 0.0
    for ti in range(len(tri.triangles)):
        a, b, c = tri.triangle_points(ti)
        best = max(best, vdist(a, b), vdist(b, c), vdist(c, a))
    return best


def lipschitz_constant(surface):
    """Max over triangles of the operator norm of the affine map's linear part."""
    best = 0.0
    for ti in range(surface.n_triangles):
        a, b, c = surface.param.triangle_points(ti)
        P = np.array([[b[0] - a[0], c[0] - a[0]],
                      [b[1] - a[1], c[1] - a[1]]], dtype=float)
        ia, ib, ic = surface.image_triangle(ti)
        Q = np.array([vsub(ib, ia), vsub(ic, ia)], dtype=float).T  # d x 2
        J = Q @ np.linalg.inv(P)
        s = np.linalg.svd(J, compute_uv=False)[0]
        best = max(best, float(s))
    return best


def image_vertex_cloud(*surfaces):
    pts = []
    for s in surfaces:
        pts.extend(s.image)
    return pts


def image_diameter_bound(f, g):
    """Diameter of the union of both image vertex sets; decide() is always true
    at this eps because every pointwise distance is below it."""
    pts = image_vertex_cloud(f, g)
    P = np.array(pts, dtype=float)
    best = 0.0
    for i in range(len(pts)):
        d = np.linalg.norm(P - P[i], axis=1).max()
        best = max(best, float(d))
    return best


def sample_image_points(surface, spacing):
    """Sample image points so that every image point is within `spacing` of a
    sample.  Returns an (n, d) array."""
    out = []
    for ti in range(surface.n_triangles):
        ia, ib, ic = surface.image_triangle(ti)
        diam = max(vdist(ia, ib), vdist(ib, ic), vdist(ic, ia))
        k = max(1, int(math.ceil(diam / max(spacing, 1e-12))))
        A = np.array(ia, dtype=float)
        B = np.array(ib, dtype=float)
        C = np.array(ic, dtype=float)
        # every (i, j) with i + j <= k, i-major as in a double loop
        i, j = np.nonzero(np.add.outer(np.arange(k + 1), np.arange(k + 1)) <= k)
        l1 = (i / k)[:, None]
        l2 = (j / k)[:, None]
        out.append((1.0 - l1 - l2) * A + l1 * B + l2 * C)
    return np.concatenate(out)
