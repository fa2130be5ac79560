"""Polygonal-curve free-space diagram with Fréchet and weak Fréchet decisions.

This is the classic low-dimensional machinery: per-cell free intervals on the
cell boundaries, monotone reachability propagation for the Fréchet decision,
and extensive connected components for the weak variant.  It doubles as an
independently verifiable regression anchor for the surface pipeline.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .batched import batch_closest_segment_segment
from .scalar import DEFAULT_TOL, bisect_threshold
from .geometry import (closest_point_segment, line_sqdist_quadratic,
                       point_sqdist_quadratic, vdist, vdot, vlerp, vsub)
from .freespace import UnionFind


@dataclass(frozen=True)
class PolyCurve:
    vertices: tuple  # tuple of d-tuples, d in {2, 3}

    @staticmethod
    def create(vertices):
        vs = tuple(tuple(float(c) for c in v) for v in vertices)
        if len(vs) < 2:
            raise ValueError("curve needs at least 2 vertices")
        if len(set(len(v) for v in vs)) != 1 or len(vs[0]) not in (2, 3):
            raise ValueError("curve vertices must share dimension 2 or 3")
        if any(not all(math.isfinite(c) for c in v) for v in vs):
            raise ValueError("curve vertices must be finite")
        return PolyCurve(vs)

    @property
    def n_segments(self):
        return len(self.vertices) - 1

    def segment(self, i):
        return self.vertices[i], self.vertices[i + 1]

    def reversed(self):
        return PolyCurve(tuple(reversed(self.vertices)))

    def refined(self, k):
        """Split every segment into k equal parts (vertices are preserved)."""
        out = []
        for i in range(self.n_segments):
            a, b = self.segment(i)
            for j in range(k):
                out.append(vlerp(a, b, j / k))
        out.append(self.vertices[-1])
        return PolyCurve(tuple(out))


def require_same_dimension(f, g):
    """Raise ValueError unless the two curves lie in the same dimension."""
    if len(f.vertices[0]) != len(g.vertices[0]):
        raise ValueError(f"curves of different dimension: {len(f.vertices[0])}-D "
                         f"and {len(g.vertices[0])}-D")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _free_intervals(A, B, W, eps):
    """{t in [0,1] : |p - seg(t)| <= eps} for arrays of the coefficients
    (A, B, W) of |p - seg(t)|^2 = A t^2 + B t + W, as (lo, hi, free); lo and hi
    are meaningless where free is False.  Each
    operation is the one plain float arithmetic does, in the same order, and
    max(lo, 0.0) and min(hi, 1.0) keep their first argument unless the second
    is strictly beyond it, so every interval equals the plain-float one bit
    for bit."""
    C = W - eps * eps
    disc = B * B - 4.0 * A * C
    sq = np.sqrt(disc)
    lo = (-B - sq) / (2.0 * A)
    hi = (-B + sq) / (2.0 * A)
    lo = np.where(0.0 > lo, 0.0, lo)
    hi = np.where(1.0 < hi, 1.0, hi)
    point = A == 0.0
    free = np.where(point, C <= 0.0, ~(disc < 0.0) & ~(lo > hi))
    return np.where(point, 0.0, lo), np.where(point, 1.0, hi), free


def _projection_pieces(seg_f, seg_g):
    """The pieces of [0,1] on which dist(seg_f(s), seg_g)^2 is one quadratic
    A s^2 + B s + C0, as (sa, sb, A, B, C0) in order of s."""
    a, b = seg_f
    # distance to a segment is piecewise: near endpoint / interior projection.
    # Breakpoints where the nearest feature switches are linear in s.
    c, d = seg_g
    u = vsub(d, c)
    uu = vdot(u, u)
    ts = [0.0, 1.0]
    if uu > 0.0:
        # (p(s) - c) . u = 0  and  = uu
        w0 = vdot(vsub(a, c), u)
        slope = vdot(vsub(b, a), u)
        if slope != 0.0:
            for target in (0.0, uu):
                t = (target - w0) / slope
                if 0.0 < t < 1.0:
                    ts.append(t)
    ts = sorted(set(ts))
    dv = vsub(b, a)
    pieces = []
    for sa, sb in zip(ts, ts[1:]):
        if sb - sa <= 1e-15:
            continue
        sm = 0.5 * (sa + sb)
        pm = vlerp(a, b, sm)
        _, tq = closest_point_segment(pm, c, d)
        if uu == 0.0 or tq <= 0.0 or tq >= 1.0:
            # nearest feature is an endpoint of seg_g on this piece
            q = c if (uu == 0.0 or tq <= 0.0) else d
            pieces.append((sa, sb) + point_sqdist_quadratic(a, dv, q))
        else:
            # interior projection: the distance to seg_g's line; x / sqrt(uu)
            # rounds differently from geometry.vunit
            un = tuple(x / math.sqrt(uu) for x in u)
            pieces.append((sa, sb) + line_sqdist_quadratic(a, dv, c, un))
    return pieces


def _projection_interval(pieces, eps):
    """The hull of the pieces' parts within eps, as (lo, hi) or None."""
    parts = []
    for sa, sb, A, B, C0 in pieces:
        C = C0 - eps * eps
        if A <= 1e-15:
            if B == 0.0:
                if C <= 0.0:
                    parts.append((sa, sb))
                continue
            r = -C / B
            if B > 0:
                lo, hi = -math.inf, r
            else:
                lo, hi = r, math.inf
        else:
            disc = B * B - 4.0 * A * C
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            lo = (-B - sq) / (2.0 * A)
            hi = (-B + sq) / (2.0 * A)
        lo = max(lo, sa)
        hi = min(hi, sb)
        if lo <= hi:
            parts.append((lo, hi))
    if not parts:
        return None
    return (min(p[0] for p in parts), max(p[1] for p in parts))


class CurvePairGeometry:
    """The eps-independent geometry of a curve pair's free-space diagram.

    With n segments on f and m on g, five tables, each filled whole the first
    time it is read:

        segment_dist[i, j]   f-segment i to g-segment j (cell (i, j) is
                             nonempty at eps iff this is <= eps)
        left                 arrays (A, B, W) of shape (n + 1, m): f-vertex i
                             against g-segment j, the left boundary of cell
                             (i, j); row n is the right edge of the diagram
        bottom               arrays (A, B, W) of shape (n, m + 1): g-vertex j
                             against f-segment i, the bottom boundary of cell
                             (i, j); column m is the top edge
        f_pieces[i][j]       the projection pieces of f-segment i onto
                             g-segment j
        g_pieces[j][i]       those of g-segment j onto f-segment i

    The boundary free intervals at eps are _free_intervals of the left and
    bottom tables, and the projection intervals _projection_interval of the
    pieces.  One geometry serves every eps of one curve_compute.
    """

    def __init__(self, f, g, tol=DEFAULT_TOL):
        require_same_dimension(f, g)
        self.f, self.g, self.tol = f, g, tol
        self.n = f.n_segments
        self.m = g.n_segments

    @classmethod
    def of(cls, f, g, tol, geometry=None):
        """`geometry` after checking that it was built for (f, g, tol), or a
        new geometry of the pair when it is None."""
        if geometry is None:
            return cls(f, g, tol)
        if geometry.f is not f or geometry.g is not g or geometry.tol != tol:
            raise ValueError("geometry was built for another curve pair or tolerance")
        return geometry

    @cached_property
    def segment_dist(self):
        # coordinate-major vertex arrays: f's along rows, g's along columns
        f = np.asarray(self.f.vertices, dtype=float).T[:, :, None]
        g = np.asarray(self.g.vertices, dtype=float).T[:, None, :]
        return batch_closest_segment_segment(tuple(f[:, :-1]), tuple(f[:, 1:]),
                                             tuple(g[..., :-1]), tuple(g[..., 1:]))

    @cached_property
    def left(self):
        g = self.g.vertices
        return _coefficient_table(
            [[point_sqdist_quadratic(g[j], vsub(g[j + 1], g[j]), p)
              for j in range(self.m)] for p in self.f.vertices])

    @cached_property
    def bottom(self):
        f = self.f.vertices
        return _coefficient_table(
            [[point_sqdist_quadratic(f[i], vsub(f[i + 1], f[i]), q)
              for q in self.g.vertices] for i in range(self.n)])

    @cached_property
    def f_pieces(self):
        return [[_projection_pieces(self.f.segment(i), self.g.segment(j))
                 for j in range(self.m)] for i in range(self.n)]

    @cached_property
    def g_pieces(self):
        return [[_projection_pieces(self.g.segment(j), self.f.segment(i))
                 for i in range(self.n)] for j in range(self.m)]


def _coefficient_table(rows):
    """Rows of (A, B, W) triples as the triple of arrays (A, B, W)."""
    table = np.asarray(rows, dtype=float)
    return table[..., 0], table[..., 1], table[..., 2]


def _interval_rows(lo, hi, free):
    """Arrays from _free_intervals as rows of (lo, hi) or None."""
    return [[(a, b) if ok else None for a, b, ok in zip(*row)]
            for row in zip(lo.tolist(), hi.tolist(), free.tolist())]


def curve_decide_frechet(f, g, eps, tol=DEFAULT_TOL, *, geometry=None):
    """True iff a monotone path crosses the free space corner to corner.
    `geometry` is the pair's CurvePairGeometry, shared across calls at
    different eps; a fresh one is built when it is omitted."""
    geometry = CurvePairGeometry.of(f, g, tol, geometry)
    if vdist(f.vertices[0], g.vertices[0]) > eps or \
       vdist(f.vertices[-1], g.vertices[-1]) > eps:
        return False
    n, m = geometry.n, geometry.m
    L = _interval_rows(*_free_intervals(*geometry.left, eps))
    B = _interval_rows(*_free_intervals(*geometry.bottom, eps))
    # reachable sub-intervals of the left/bottom boundaries
    RL = [[None] * m for _ in range(n + 1)]
    RB = [[None] * (m + 1) for _ in range(n)]
    # left edge of the diagram: climbable only while contiguous from (0,0)
    for j in range(m):
        iv = L[0][j]
        if iv is None:
            break
        if j == 0:
            RL[0][j] = iv if iv[0] <= 0.0 else None
        else:
            prev = RL[0][j - 1]
            RL[0][j] = iv if (prev is not None and prev[1] >= 1.0 and iv[0] <= 0.0) else None
        if RL[0][j] is None:
            break
    for i in range(n):
        iv = B[i][0]
        if iv is None:
            break
        if i == 0:
            RB[i][0] = iv if iv[0] <= 0.0 else None
        else:
            prev = RB[i - 1][0]
            RB[i][0] = iv if (prev is not None and prev[1] >= 1.0 and iv[0] <= 0.0) else None
        if RB[i][0] is None:
            break

    for i in range(n):
        for j in range(m):
            left = RL[i][j]
            bottom = RB[i][j]
            # right boundary: L[i+1][j]
            free_r = L[i + 1][j]
            if free_r is not None:
                if bottom is not None:
                    RL[i + 1][j] = free_r
                elif left is not None:
                    lo = max(free_r[0], left[0])
                    RL[i + 1][j] = (lo, free_r[1]) if lo <= free_r[1] else None
            # top boundary: B[i][j+1]
            free_t = B[i][j + 1]
            if free_t is not None:
                if left is not None:
                    RB[i][j + 1] = free_t
                elif bottom is not None:
                    lo = max(free_t[0], bottom[0])
                    RB[i][j + 1] = (lo, free_t[1]) if lo <= free_t[1] else None

    top = RB[n - 1][m]
    right = RL[n][m - 1]
    return (top is not None and top[1] >= 1.0) or (right is not None and right[1] >= 1.0)


def curve_decide_weak(f, g, eps, tol=DEFAULT_TOL, *, geometry=None):
    """True iff some connected free-space component projects onto both curves.
    `geometry` is as for curve_decide_frechet."""
    geometry = CurvePairGeometry.of(f, g, tol, geometry)
    m = geometry.m
    # cell (i, j) is the integer i * m + j
    cells = np.flatnonzero(geometry.segment_dist <= eps).tolist()
    left_free = _free_intervals(*geometry.left, eps)[2].tolist()
    bottom_free = _free_intervals(*geometry.bottom, eps)[2].tolist()
    cellset = set(cells)
    uf = UnionFind(cells)
    for c in cells:
        i, j = divmod(c, m)
        if c + m in cellset and left_free[i + 1][j]:
            uf.union(c, c + m)
        if j + 1 < m and c + 1 in cellset and bottom_free[i][j + 1]:
            uf.union(c, c + 1)

    comps = {}
    for c in cells:
        comps.setdefault(uf.find(c), []).append(divmod(c, m))

    for comp in comps.values():
        if _curve_component_extensive(comp, geometry, eps):
            return True
    return False


def _merge_cover(intervals):
    """True iff the union of (lo, hi) intervals covers [0, 1]."""
    ivs = sorted(i for i in intervals if i is not None)
    reach = 0.0
    slack = 1e-9
    for lo, hi in ivs:
        if lo > reach + slack:
            return False
        reach = max(reach, hi)
        if reach >= 1.0 - slack:
            return True
    return reach >= 1.0 - slack


def _curve_component_extensive(comp, geometry, eps):
    by_row = {}
    by_col = {}
    for (i, j) in comp:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    if len(by_row) < geometry.n or len(by_col) < geometry.m:
        return False
    for i, js in by_row.items():
        pieces = geometry.f_pieces[i]
        if not _merge_cover([_projection_interval(pieces[j], eps) for j in js]):
            return False
    for j, is_ in by_col.items():
        pieces = geometry.g_pieces[j]
        if not _merge_cover([_projection_interval(pieces[i], eps) for i in is_]):
            return False
    return True


VARIANT_FRECHET = "frechet"
VARIANT_WEAK = "weak"


def curve_compute(f, g, variant=VARIANT_FRECHET, tol=DEFAULT_TOL):
    """Min eps with the chosen decision true, located by bisection; one
    CurvePairGeometry serves every probe."""
    if variant == VARIANT_FRECHET:
        dec = curve_decide_frechet
    elif variant == VARIANT_WEAK:
        dec = curve_decide_weak
    else:
        raise ValueError(f"unknown variant {variant!r}")
    geometry = CurvePairGeometry(f, g, tol)
    if dec(f, g, 0.0, tol, geometry=geometry):
        return 0.0
    hi = max(vdist(p, q) for p in f.vertices for q in g.vertices) + tol.abs
    if not dec(f, g, hi, tol, geometry=geometry):
        raise ArithmeticError("curve decision failed at the diameter bound")
    return bisect_threshold(lambda eps: dec(f, g, eps, tol, geometry=geometry),
                            0.0, hi, tol)


def discrete_frechet(f, g):
    """Discrete Fréchet distance of the vertex sequences (O(nm) DP)."""
    require_same_dimension(f, g)
    P = f.vertices
    Q = g.vertices
    n, m = len(P), len(Q)
    prev = None
    for i in range(n):
        cur = [0.0] * m
        for j in range(m):
            d = vdist(P[i], Q[j])
            if i == 0 and j == 0:
                best = 0.0
            elif i == 0:
                best = cur[j - 1]
            elif j == 0:
                best = prev[j]
            else:
                best = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = max(d, best)
        prev = cur
    return prev[m - 1]


# samples per cell side in curve_freespace_svg
_SHADE_RES = 14


def curve_freespace_svg(f, g, eps, path):
    """Shade the free-space diagram of two curves: one n x m grid of cells,
    sub-sampled _SHADE_RES^2 per cell, free samples drawn white on grey."""
    require_same_dimension(f, g)
    n = f.n_segments
    m = g.n_segments
    cell = 64
    w = n * cell
    h = m * cell
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 2}" height="{h + 2}">',
             f'<rect x="0" y="0" width="{w}" height="{h}" fill="#888"/>']
    sub = cell / _SHADE_RES
    for i in range(n):
        a, b = f.segment(i)
        for j in range(m):
            c, d = g.segment(j)
            for si in range(_SHADE_RES):
                s = (si + 0.5) / _SHADE_RES
                p = vlerp(a, b, s)
                for sj in range(_SHADE_RES):
                    t = (sj + 0.5) / _SHADE_RES
                    q = vlerp(c, d, t)
                    if vdist(p, q) <= eps:
                        x = i * cell + si * sub
                        y = h - (j * cell + (sj + 1) * sub)
                        lines.append(
                            f'<rect class="free" x="{x:.2f}" y="{y:.2f}" '
                            f'width="{sub:.2f}" height="{sub:.2f}" fill="#fff"/>')
    for i in range(n + 1):
        lines.append(f'<line x1="{i*cell}" y1="0" x2="{i*cell}" y2="{h}" '
                     f'stroke="#333" stroke-width="0.5"/>')
    for j in range(m + 1):
        lines.append(f'<line x1="0" y1="{j*cell}" x2="{w}" y2="{j*cell}" '
                     f'stroke="#333" stroke-width="0.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
