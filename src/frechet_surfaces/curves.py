"""Polygonal-curve free-space diagram with Fréchet and weak Fréchet decisions.

This is the classic low-dimensional machinery: per-cell free intervals on the
cell boundaries, monotone reachability propagation for the Fréchet decision,
and extensive connected components for the weak variant.  It doubles as an
independently verifiable regression anchor for the surface pipeline.
"""

import math
from dataclasses import dataclass

from .scalar import DEFAULT_TOL
from .geometry import (closest_point_segment, closest_segment_segment, vdist,
                       vdot, vlerp, vsub)
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


def point_segment_free_interval(p, seg, eps):
    """{t in [0,1] : |p - seg(t)| <= eps} as (lo, hi) or None."""
    a, b = seg
    d = vsub(b, a)
    w = vsub(a, p)
    A = vdot(d, d)
    B = 2.0 * vdot(w, d)
    C = vdot(w, w) - eps * eps
    if A == 0.0:
        return (0.0, 1.0) if C <= 0.0 else None
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = (-B - sq) / (2.0 * A)
    hi = (-B + sq) / (2.0 * A)
    lo = max(lo, 0.0)
    hi = min(hi, 1.0)
    if lo > hi:
        return None
    return (lo, hi)


def segment_segment_projection_interval(seg_f, seg_g, eps, tol=DEFAULT_TOL):
    """{s in [0,1] : dist(seg_f(s), seg_g) <= eps}, one interval by convexity."""
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
            w = vsub(a, q)
            dv = vsub(b, a)
            A = vdot(dv, dv)
            B = 2.0 * vdot(w, dv)
            C = vdot(w, w) - eps * eps
        else:
            # interior projection: squared distance is the perp component
            dv = vsub(b, a)
            w = vsub(a, c)
            un = tuple(x / math.sqrt(uu) for x in u)
            dvu = vdot(dv, un)
            wu = vdot(w, un)
            A = vdot(dv, dv) - dvu * dvu
            B = 2.0 * (vdot(w, dv) - wu * dvu)
            C = vdot(w, w) - wu * wu - eps * eps
        if A <= 1e-15:
            if B == 0.0:
                if C <= 0.0:
                    pieces.append((sa, sb))
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
            pieces.append((lo, hi))
    if not pieces:
        return None
    return (min(p[0] for p in pieces), max(p[1] for p in pieces))


class CurveFreeSpace:
    """Free-space diagram of two polygonal curves at a fixed eps.

    L[i][j] is the free interval on the left boundary of cell (i, j) (the
    segment {f-vertex i} x {g-segment j}); B[i][j] the bottom boundary
    ({f-segment i} x {g-vertex j}).  Indices run to n and m inclusive so the
    right/top boundaries are L[n][.] and B[.][m].
    """

    def __init__(self, f, g, eps, tol=DEFAULT_TOL):
        self.f = f
        self.g = g
        self.eps = eps
        self.tol = tol
        n = f.n_segments
        m = g.n_segments
        self.n = n
        self.m = m
        self.L = [[None] * m for _ in range(n + 1)]
        self.B = [[None] * (m + 1) for _ in range(n)]
        for i in range(n + 1):
            p = f.vertices[i]
            for j in range(m):
                self.L[i][j] = point_segment_free_interval(p, g.segment(j), eps)
        for i in range(n):
            seg = f.segment(i)
            for j in range(m + 1):
                self.B[i][j] = point_segment_free_interval(g.vertices[j], seg, eps)

    def cell_nonempty(self, i, j):
        d, _, _ = closest_segment_segment(*self.f.segment(i), *self.g.segment(j))
        return d <= self.eps


def curve_decide_frechet(f, g, eps, tol=DEFAULT_TOL):
    """True iff a monotone path crosses the free space corner to corner."""
    if vdist(f.vertices[0], g.vertices[0]) > eps or \
       vdist(f.vertices[-1], g.vertices[-1]) > eps:
        return False
    fs = CurveFreeSpace(f, g, eps, tol)
    n, m = fs.n, fs.m
    # reachable sub-intervals of the left/bottom boundaries
    RL = [[None] * m for _ in range(n + 1)]
    RB = [[None] * (m + 1) for _ in range(n)]
    # left edge of the diagram: climbable only while contiguous from (0,0)
    for j in range(m):
        iv = fs.L[0][j]
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
        iv = fs.B[i][0]
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
            free_r = fs.L[i + 1][j]
            if free_r is not None:
                if bottom is not None:
                    RL[i + 1][j] = free_r
                elif left is not None:
                    lo = max(free_r[0], left[0])
                    RL[i + 1][j] = (lo, free_r[1]) if lo <= free_r[1] else None
            # top boundary: B[i][j+1]
            free_t = fs.B[i][j + 1]
            if free_t is not None:
                if left is not None:
                    RB[i][j + 1] = free_t
                elif bottom is not None:
                    lo = max(free_t[0], bottom[0])
                    RB[i][j + 1] = (lo, free_t[1]) if lo <= free_t[1] else None

    top = RB[n - 1][m]
    right = RL[n][m - 1]
    return (top is not None and top[1] >= 1.0) or (right is not None and right[1] >= 1.0)


def curve_decide_weak(f, g, eps, tol=DEFAULT_TOL):
    """True iff some connected free-space component projects onto both curves."""
    fs = CurveFreeSpace(f, g, eps, tol)
    n, m = fs.n, fs.m
    cells = []
    for i in range(n):
        for j in range(m):
            if fs.cell_nonempty(i, j):
                cells.append((i, j))
    cellset = set(cells)
    uf = UnionFind(cells)
    for (i, j) in cells:
        if (i + 1, j) in cellset and fs.L[i + 1][j] is not None:
            uf.union((i, j), (i + 1, j))
        if (i, j + 1) in cellset and fs.B[i][j + 1] is not None:
            uf.union((i, j), (i, j + 1))

    comps = {}
    for c in cells:
        comps.setdefault(uf.find(c), []).append(c)

    for comp in comps.values():
        if _curve_component_extensive(comp, f, g, eps, n, m, tol):
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


def _curve_component_extensive(comp, f, g, eps, n, m, tol):
    by_row = {}
    by_col = {}
    for (i, j) in comp:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    if len(by_row) < n or len(by_col) < m:
        return False
    for i, js in by_row.items():
        ivs = [segment_segment_projection_interval(f.segment(i), g.segment(j), eps, tol)
               for j in js]
        if not _merge_cover(ivs):
            return False
    for j, is_ in by_col.items():
        ivs = [segment_segment_projection_interval(g.segment(j), f.segment(i), eps, tol)
               for i in is_]
        if not _merge_cover(ivs):
            return False
    return True


VARIANT_FRECHET = "frechet"
VARIANT_WEAK = "weak"


def curve_compute(f, g, variant=VARIANT_FRECHET, tol=DEFAULT_TOL):
    """Min eps with the chosen decision true, located by bisection."""
    if variant == VARIANT_FRECHET:
        dec = curve_decide_frechet
    elif variant == VARIANT_WEAK:
        dec = curve_decide_weak
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if dec(f, g, 0.0, tol):
        return 0.0
    hi = max(vdist(p, q) for p in f.vertices for q in g.vertices) + tol.abs
    if not dec(f, g, hi, tol):
        raise ArithmeticError("curve decision failed at the diameter bound")
    lo = 0.0
    while hi - lo > max(tol.abs, tol.rel * max(hi, 1.0)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if dec(f, g, mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


def discrete_frechet(f, g):
    """Discrete Fréchet distance of the vertex sequences (O(nm) DP)."""
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


def curve_freespace_svg(f, g, eps, path, shade_res=14, tol=DEFAULT_TOL):
    """Shade the free-space diagram of two curves: one n x m grid of cells,
    sub-sampled shade_res^2 per cell, free samples drawn white on grey."""
    n = f.n_segments
    m = g.n_segments
    cell = 64
    w = n * cell
    h = m * cell
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 2}" height="{h + 2}">',
             f'<rect x="0" y="0" width="{w}" height="{h}" fill="#888"/>']
    sub = cell / shade_res
    for i in range(n):
        a, b = f.segment(i)
        for j in range(m):
            c, d = g.segment(j)
            for si in range(shade_res):
                s = (si + 0.5) / shade_res
                p = vlerp(a, b, s)
                for sj in range(shade_res):
                    t = (sj + 0.5) / shade_res
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
