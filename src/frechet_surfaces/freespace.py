"""Combinatorial free-space graph of a surface pair at a given eps.

Vertices are the nonempty cells (pairs of triangles whose images come within
eps); edges join neighboring cells whose shared boundary cell (a parameter
edge of one triangulation times a triangle of the other) is nonempty.  Cells
meeting only at a parameter vertex are not adjacent.

Which cells and boundary cells are nonempty depends only on fixed image
distances, which PairGeometry holds once per pair; a graph at one eps is
those distances thresholded at eps, plus union-find.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scalar import DEFAULT_TOL, within_mask
from .batched import (point_triangle_table, segment_triangle_table,
                      triangle_triangle_table)


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller key wins
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class FreeSpaceGraph:
    eps: float
    vertices: list                      # sorted list of (k, l) cells
    edges: list                         # sorted list of ((k,l), (k,l)) pairs
    component_of: dict = field(default_factory=dict)

    def components(self):
        """Connected components as sorted lists of cells, deterministic order:
        larger components first, ties by smallest cell."""
        groups = {}
        for cell in self.vertices:
            groups.setdefault(self.component_of[cell], []).append(cell)
        comps = [sorted(cells) for cells in groups.values()]
        comps.sort(key=lambda cs: (-len(cs), cs[0]))
        return comps

    def adjacency_text(self):
        adj = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        lines = [f"eps {self.eps!r}",
                 f"vertices {len(self.vertices)} edges {len(self.edges)}"]
        for v in self.vertices:
            nb = " ".join(f"{k},{l}" for k, l in sorted(adj[v]))
            lines.append(f"{v[0]},{v[1]}: {nb}")
        return "\n".join(lines) + "\n"


def _interior_edges(param, edges):
    """(edge id, t1, t2), t1 < t2, for every parameter edge shared by two
    triangles, as an (I, 3) int array; an id indexes `edges`, the sorted
    edges of param."""
    tris = param.edge_map()
    return np.array([(e, *sorted(tris[edge])) for e, edge in enumerate(edges)
                     if len(tris[edge]) == 2], dtype=int).reshape(-1, 3)


class PairGeometry:
    """The eps-independent distances of a surface pair, computed at most once.

    Five float64 tables, each filled whole by one batched computation the
    first time it is read:

        cell_dist[k, l]      image triangle k of f to image triangle l of g
        f_edge_dist[e, l]    f's image edge f_edges[e] to g's image triangle l (T1)
        g_edge_dist[e, k]    g's image edge g_edges[e] to f's image triangle k
        f_vertex_dist[v, l]  f's image vertex v to g's image triangle l (T2a)
        g_vertex_dist[v, k]  g's image vertex v to f's image triangle k

    An edge id indexes f_edges (g_edges), the sorted parameter edges (vertex
    index pairs) of f (g).  Each entry equals the scalar geometry routine's
    value bit for bit.  A graph without two adjacent nonempty cells reads no
    edge table, and C1 without parallel triangles no cell table.  The
    interior parameter edges of both surfaces are kept too, as (I, 3) int
    arrays of rows (edge id, t1, t2) with t1 < t2.  One geometry serves every
    eps of one computation and lives no longer than it.
    """

    def __init__(self, f, g, tol=DEFAULT_TOL):
        self.f, self.g, self.tol = f, g, tol
        self.f_tris = f.image_triangles()
        self.g_tris = g.image_triangles()
        self.f_edges = f.param.edges()
        self.g_edges = g.param.edges()
        self.f_interior = _interior_edges(f.param, self.f_edges)
        self.g_interior = _interior_edges(g.param, self.g_edges)

    @classmethod
    def of(cls, f, g, tol, geometry=None):
        """`geometry` after checking that it was built for (f, g, tol), or a
        new geometry of the pair when it is None."""
        if geometry is None:
            return cls(f, g, tol)
        if geometry.f is not f or geometry.g is not g or geometry.tol != tol:
            raise ValueError("geometry was built for another surface pair or tolerance")
        return geometry

    @cached_property
    def cell_dist(self):
        return triangle_triangle_table(self.f_tris, self.g_tris, self.tol)

    @cached_property
    def f_edge_dist(self):
        return segment_triangle_table(
            [self.f.image_segment(e) for e in self.f_edges], self.g_tris, self.tol)

    @cached_property
    def g_edge_dist(self):
        return segment_triangle_table(
            [self.g.image_segment(e) for e in self.g_edges], self.f_tris, self.tol)

    @cached_property
    def f_vertex_dist(self):
        return point_triangle_table(self.f.image, self.g_tris, self.tol)

    @cached_property
    def g_vertex_dist(self):
        return point_triangle_table(self.g.image, self.f_tris, self.tol)


def build_graph(f, g, eps, tol=DEFAULT_TOL, geometry=None):
    """Free-space graph at eps: nonempty cells, adjacency through nonempty
    boundary cells, and union-find component labels.  `geometry` is the
    pair's PairGeometry, shared across calls at different eps; a fresh one
    is built when it is omitted."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    free = within_mask(geometry.cell_dist, eps, tol)
    vertices = [tuple(cell) for cell in np.argwhere(free).tolist()]
    uf = UnionFind(vertices)
    edges = []
    # an interior edge (e, t1, t2) of one surface joins its cells (t1, o) and
    # (t2, o), (k, l) after `flip`, for each triangle o of the other when both
    # are nonempty in `side` and the boundary cell (e, o) is within eps; no
    # edge table is read without two such cells
    for interior, side, edge_dist, flip in (
            (geometry.f_interior, free, lambda: geometry.f_edge_dist, 1),
            (geometry.g_interior, free.T, lambda: geometry.g_edge_dist, -1)):
        e, t1, t2 = interior.T
        i, o = np.nonzero(side[t1] & side[t2])
        if len(i):
            keep = within_mask(edge_dist()[e[i], o], eps, tol)
            for a, b, c in zip(t1[i[keep]].tolist(), t2[i[keep]].tolist(),
                               o[keep].tolist()):
                edges.append(((a, c)[::flip], (b, c)[::flip]))
                uf.union(*edges[-1])
    component_of = {v: uf.find(v) for v in vertices}
    return FreeSpaceGraph(eps=eps, vertices=vertices, edges=sorted(edges),
                          component_of=component_of)
