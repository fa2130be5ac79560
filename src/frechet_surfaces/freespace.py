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

import numpy as np

from .scalar import DEFAULT_TOL, within_mask
from .batched import (point_triangle_table, segment_crosses_table,
                      segment_segment_table)


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


def _triangle_edges(param, edges):
    """The edge ids of every parameter triangle (i, j, k), of its edges (i, j),
    (j, k) and (k, i) in that order, as a (T, 3) int array."""
    ids = {edge: e for e, edge in enumerate(edges)}
    return np.array([[ids[min(a, b), max(a, b)] for a, b in ((i, j), (j, k), (k, i))]
                     for i, j, k in param.triangles], dtype=int).reshape(-1, 3)


def _edge_table(vertex_dist, edges, segs, others, tri_edges, tris):
    """The distance of every image edge segs[e] (rows) to every image triangle
    tris[l] of the other surface (columns): 0 where they cross, else the least
    of vertex_dist at the edge's ends and its distance to others[tri_edges[l]]."""
    out = segment_segment_table(segs, others, tri_edges)
    for end in np.array(edges, dtype=int).reshape(-1, 2).T:
        _min_rows(out, vertex_dist, end)
    out[segment_crosses_table(segs, tris)] = 0.0
    return out


def _min_rows(out, table, index):
    """out[i] = min(out[i], table[index[i]]) for every row i, 64 rows at a time:
    glibc keeps later arrays on the heap once a block as large as out is freed."""
    for r in range(0, len(out), 64):
        np.minimum(out[r:r + 64], table[index[r:r + 64]], out=out[r:r + 64])


class PairGeometry:
    """The eps-independent distances of a surface pair, computed once.

    Five float64 tables:

        cell_dist[k, l]      image triangle k of f to image triangle l of g
        f_edge_dist[e, l]    f's image edge f_edges[e] to g's image triangle l (T1)
        g_edge_dist[e, k]    g's image edge g_edges[e] to f's image triangle k
        f_vertex_dist[v, l]  f's image vertex v to g's image triangle l (T2a)
        g_vertex_dist[v, k]  g's image vertex v to f's image triangle k

    An edge id indexes f_edges (g_edges), the sorted parameter edges (vertex
    index pairs) of f (g), and an image edge runs from its lower vertex index
    to its higher one.  The vertex tables equal dist_point_triangle bit for
    bit, _edge_table builds the edge tables from them, and a cell entry is the
    least edge entry of its triangles' six edges.  So negating a coordinate
    of both images leaves every table bit-identical, and the geometry of
    (g, f) holds these tables transposed and swapped.  The
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
        self.f_vertex_dist = point_triangle_table(f.image, self.g_tris, tol)
        self.g_vertex_dist = point_triangle_table(g.image, self.f_tris, tol)
        f_segs = [f.image_segment(e) for e in self.f_edges]
        g_segs = [g.image_segment(e) for e in self.g_edges]
        f_tri_edges = _triangle_edges(f.param, self.f_edges)
        g_tri_edges = _triangle_edges(g.param, self.g_edges)
        self.f_edge_dist = _edge_table(self.f_vertex_dist, self.f_edges, f_segs, g_segs,
                                       g_tri_edges, self.g_tris)
        self.g_edge_dist = _edge_table(self.g_vertex_dist, self.g_edges, g_segs, f_segs,
                                       f_tri_edges, self.f_tris)
        self.cell_dist = np.full((len(self.f_tris), len(self.g_tris)), np.inf)
        for j in range(3):
            _min_rows(self.cell_dist, self.f_edge_dist, f_tri_edges[:, j])
            _min_rows(self.cell_dist.T, self.g_edge_dist, g_tri_edges[:, j])

    @classmethod
    def of(cls, f, g, tol, geometry=None):
        """`geometry` after checking that it was built for (f, g, tol), or a
        new geometry of the pair when it is None."""
        if geometry is None:
            return cls(f, g, tol)
        if geometry.f is not f or geometry.g is not g or geometry.tol != tol:
            raise ValueError("geometry was built for another surface pair or tolerance")
        return geometry


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
    # are nonempty in `side` and the boundary cell (e, o) is within eps
    for interior, side, edge_dist, flip in (
            (geometry.f_interior, free, geometry.f_edge_dist, 1),
            (geometry.g_interior, free.T, geometry.g_edge_dist, -1)):
        e, t1, t2 = interior.T
        i, o = np.nonzero(side[t1] & side[t2])
        if len(i):
            keep = within_mask(edge_dist[e[i], o], eps, tol)
            for a, b, c in zip(t1[i[keep]].tolist(), t2[i[keep]].tolist(),
                               o[keep].tolist()):
                edges.append(((a, c)[::flip], (b, c)[::flip]))
                uf.union(*edges[-1])
    component_of = {v: uf.find(v) for v in vertices}
    return FreeSpaceGraph(eps=eps, vertices=vertices, edges=sorted(edges),
                          component_of=component_of)
