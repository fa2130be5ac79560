"""Coverage decisions: is an image triangle contained in the union of the
eps-neighborhoods of its partner triangles?

Each partner's neighborhood, intersected with the plane of the query triangle,
is a convex region bounded by conic arcs.  The arcs of all partners are swept
slab-by-slab (events at arc endpoints, vertical tangents and pairwise
intersections), which extracts one interior representative point per
arrangement face; each face is then classified by the direct distance
predicate, so correctness never depends on arc orientation bookkeeping.
"""

import math

from .scalar import DEFAULT_TOL, within
from .geometry import (OverlappingArcsError, arc_pair_intersections,
                       dist_point_triangle, eps_neighborhood_plane_boundary,
                       frame_of_triangle, make_segment_arc, triangle_shape)


def _point_covered(p, partner_tris, eps, tol):
    for tri in partner_tris:
        if within(dist_point_triangle(p, tri, tol, degenerate_ok=True), eps, tol):
            return True
    return False


def _collect_events(curves, tol):
    """Sorted abscissae of the curves' endpoints, vertical tangents and
    pairwise intersections."""
    xs = set()
    for arc in curves:
        p0, p1 = arc.endpoints()
        xs.add(p0[0])
        xs.add(p1[0])
        for t in arc.x_extreme_params():
            xs.add(arc.point(t)[0])
    boxes = [c.aabb() for c in curves]
    for i in range(len(curves)):
        bi = boxes[i]
        for j in range(i + 1, len(curves)):
            bj = boxes[j]
            if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
                continue
            try:
                pts = arc_pair_intersections(curves[i], curves[j], tol)
            except OverlappingArcsError:
                # coincident supporting curves: their endpoints suffice as events
                pts = list(curves[i].endpoints()) + list(curves[j].endpoints())
            for p in pts:
                xs.add(p[0])
    return sorted(xs)


def arrangement(tri_img, partner_tris, eps, tol=DEFAULT_TOL):
    """The arrangement that the partners' eps-neighborhood boundaries cut in
    an image triangle, built at unit scale: the triangle, its partners and
    eps are multiplied by the exact power of two 2^-k that puts the
    triangle's span (see geometry.triangle_shape) in [0.5, 1), and the plane
    is the frame_of_triangle of the scaled triangle.

    Returns (tri2d, arcs, faces), all in that frame: the triangle, the
    boundary arcs that reach near it, and a lazy sequence of (point, covered)
    pairs, one per face piece of each slab, where point is a plane point
    inside the piece and covered tells whether its image, scaled back by 2^k,
    lies in a partner's neighborhood at the original coordinates and eps.
    """
    k = math.frexp(triangle_shape(tri_img, tol.rel)[1])[1]

    def unit(p):
        return tuple(math.ldexp(c, -k) for c in p)

    tri_unit = [unit(v) for v in tri_img]
    frame = frame_of_triangle(tri_unit, tol)
    tri2d = [frame.to_plane(v) for v in tri_unit]
    arcs = []
    # a negative eps has empty neighborhoods: no arcs, every face uncovered
    for tri in (partner_tris if eps >= 0.0 else []):
        arcs.extend(eps_neighborhood_plane_boundary(
            [unit(v) for v in tri], math.ldexp(eps, -k), frame, tol))

    # prune arcs far outside the triangle
    txlo = min(p[0] for p in tri2d)
    txhi = max(p[0] for p in tri2d)
    tylo = min(p[1] for p in tri2d)
    tyhi = max(p[1] for p in tri2d)
    pad = 10.0 * tol.gap(max(abs(txlo), abs(txhi), abs(tylo), abs(tyhi)))
    kept = []
    for arc in arcs:
        b = arc.aabb()
        if b[2] < txlo - pad or b[0] > txhi + pad or b[3] < tylo - pad or b[1] > tyhi + pad:
            continue
        kept.append(arc)

    edges = [make_segment_arc(tri2d[i], tri2d[(i + 1) % 3]) for i in range(3)]
    xs = _collect_events(kept + edges, tol)
    tiny = 1e-3 * tol.gap(max(abs(txlo), abs(txhi), 1.0))

    def faces():
        for a, b in zip(xs, xs[1:]):
            if b - a <= tiny:
                continue
            xm = 0.5 * (a + b)
            section = [y for edge in edges for y in edge.vertical_line_hits(xm)]
            if len(section) < 2:
                continue
            ylo, yhi = min(section), max(section)
            if yhi - ylo <= tiny:
                continue
            cuts = sorted(y for arc in kept for y in arc.vertical_line_hits(xm)
                          if ylo < y < yhi)
            levels = [ylo] + cuts + [yhi]
            for ya, yb in zip(levels, levels[1:]):
                if yb - ya <= tiny:
                    continue
                p = (xm, 0.5 * (ya + yb))
                q = tuple(math.ldexp(c, k) for c in frame.from_plane(p))
                yield p, _point_covered(q, partner_tris, eps, tol)

    return tri2d, kept, faces()


def triangle_covered(f, g, k_tri, partners, eps, tol=DEFAULT_TOL):
    """True iff the image of f's triangle k_tri is contained in the union of
    the eps-neighborhoods of the listed partner triangles of g.

    Empty partner lists are uncovered by definition.  Fast paths: a single
    partner whose (convex) neighborhood slice contains all three corners
    covers the triangle; an uncovered probe point refutes coverage without a
    sweep.  Otherwise the sweep stops at the first uncovered face.
    """
    tri_img = f.image_triangle(k_tri)
    if not partners:
        return False
    partner_tris = [g.image_triangle(l) for l in partners]

    corners = list(tri_img)
    # single convex partner region containing all corners covers everything
    for tri in partner_tris:
        if all(within(dist_point_triangle(c, tri, tol, degenerate_ok=True), eps, tol)
               for c in corners):
            return True

    # cheap refutation probes: corners, edge midpoints, centroid
    probes = list(corners)
    for i in range(3):
        a, b = tri_img[i], tri_img[(i + 1) % 3]
        probes.append(tuple((x + y) / 2.0 for x, y in zip(a, b)))
    probes.append(tuple((a + b + c) / 3.0 for a, b, c in zip(*tri_img)))
    for p in probes:
        if not _point_covered(p, partner_tris, eps, tol):
            return False

    _, _, faces = arrangement(tri_img, partner_tris, eps, tol)
    return all(covered for _, covered in faces)


class CoverageRecord:
    """The verdicts of the coverage sweeps run so far for one surface pair,
    keyed by (side, triangle): side 0 is a triangle of f, side 1 of g.

    Coverage is monotone in eps and in the partner set, so an entry settles
    more than its own query: a triangle covered at eps0 by partners P0 is
    covered at every eps >= eps0 by every P containing P0, and one uncovered
    at eps0 by P0 is uncovered at every eps <= eps0 by every subset of P0.
    A record belongs to one compute() or decide() call, like PairGeometry.
    """

    def __init__(self):
        self._entries = {}  # (side, triangle) -> [(eps, partners, covered)]

    def implied(self, key, eps, partners):
        """The verdict an earlier entry implies for this query, else None;
        partners is a frozenset."""
        for eps0, partners0, covered in self._entries.get(key, ()):
            if covered:
                if eps >= eps0 and partners >= partners0:
                    return True
            elif eps <= eps0 and partners <= partners0:
                return False
        return None

    def add(self, key, eps, partners, covered):
        self._entries.setdefault(key, []).append((eps, partners, covered))


def component_extensive(component, f, g, eps, tol=DEFAULT_TOL, *, record=None):
    """True iff the component's projections cover both parameter spaces, i.e.
    every triangle of f is covered by its partners in the component and
    symmetrically for g.  `record` is the pair's CoverageRecord when several
    decisions share it; a sweep runs only for a verdict it does not imply."""
    if record is None:
        record = CoverageRecord()
    partners_k = {}
    partners_l = {}
    for (k, l) in component:
        partners_k.setdefault(k, []).append(l)
        partners_l.setdefault(l, []).append(k)
    if len(partners_k) < f.n_triangles or len(partners_l) < g.n_triangles:
        return False

    jobs = [(0, f, g, k, ls) for k, ls in sorted(partners_k.items())]
    jobs += [(1, g, f, l, ks) for l, ks in sorted(partners_l.items())]
    for side, a, b, t, ps in jobs:
        key = (side, t)
        partners = frozenset(ps)
        covered = record.implied(key, eps, partners)
        if covered is None:
            covered = triangle_covered(a, b, t, sorted(ps), eps, tol)
            record.add(key, eps, partners, covered)
        if not covered:
            return False
    return True


def arrangement_svg(f, g, k_tri, partners, eps, path, tol=DEFAULT_TOL):
    """Draw the arrangement of f's triangle k_tri under the listed partner
    triangles of g, in the triangle's own frame: the triangle, the boundary
    arcs and one dot per face, green when covered, red when not."""
    tri2d, arcs, faces = arrangement(f.image_triangle(k_tri),
                                     [g.image_triangle(l) for l in partners],
                                     eps, tol)
    faces = list(faces)
    pts = list(tri2d)
    for a in arcs:
        pts.extend(a.sample(8))
    pts.extend(p for p, _ in faces)
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts)
    yhi = max(p[1] for p in pts)
    w = max(xhi - xlo, 1e-9)
    h = max(yhi - ylo, 1e-9)
    s = 640.0 / max(w, h)

    def tx(p):
        return ((p[0] - xlo) * s + 20.0, (yhi - p[1]) * s + 20.0)

    d = " ".join(f"{tx(p)[0]:.2f},{tx(p)[1]:.2f}" for p in tri2d)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(w*s)+40}" '
             f'height="{int(h*s)+40}">',
             f'<polygon points="{d}" fill="none" stroke="black" stroke-width="1.5"/>']
    for a in arcs:
        samp = [tx(p) for p in a.sample(48 if a.kind != "segment" else 2)]
        d = " ".join(f"{x:.2f},{y:.2f}" for x, y in samp)
        lines.append(f'<polyline points="{d}" fill="none" stroke="#3366cc" stroke-width="1"/>')
    for p, ok in faces:
        x, y = tx(p)
        color = "#2a2" if ok else "#c22"
        lines.append(f'<circle class="face" cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
