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

from .scalar import DEFAULT_TOL, within
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


def _interior_edges(param):
    """(edge, t1, t2) for every parameter edge shared by two triangles."""
    out = []
    for edge, tris in sorted(param.edge_map().items()):
        if len(tris) == 2:
            t1, t2 = sorted(tris)
            out.append((edge, t1, t2))
    return out


class PairGeometry:
    """The eps-independent distances of a surface pair, computed at most once.

    Five tables, each filled whole by one batched computation the first time
    it is read:

        cell_dist[k][l]      image triangle k of f to image triangle l of g
        f_edge_dist[e][l]    f's image edge e (a vertex-index pair) to g's
                             image triangle l (boundary cells, T1)
        g_edge_dist[e][k]    g's image edge e to f's image triangle k
        f_vertex_dist[v][l]  f's image vertex v to g's image triangle l (T2a)
        g_vertex_dist[v][k]  g's image vertex v to f's image triangle k

    Each entry equals the scalar geometry routine's value bit for bit.  A
    graph without two adjacent nonempty cells reads no edge table, and C1
    without parallel triangles no cell table.  The interior parameter edges
    of both surfaces are kept too, as (edge, t1, t2) with t1 < t2.  One
    geometry serves every eps of one computation and lives no longer than
    it.
    """

    def __init__(self, f, g, tol=DEFAULT_TOL):
        self.f, self.g, self.tol = f, g, tol
        self.f_tris = f.image_triangles()
        self.g_tris = g.image_triangles()
        self.f_interior = _interior_edges(f.param)
        self.g_interior = _interior_edges(g.param)

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
        return _edge_table(self.f, self.g_tris, self.tol)

    @cached_property
    def g_edge_dist(self):
        return _edge_table(self.g, self.f_tris, self.tol)

    @cached_property
    def f_vertex_dist(self):
        return point_triangle_table(self.f.image, self.g_tris, self.tol)

    @cached_property
    def g_vertex_dist(self):
        return point_triangle_table(self.g.image, self.f_tris, self.tol)


def _edge_table(s, tris, tol):
    """{edge of s: its image edge's distance to each of tris}."""
    edges = s.param.edges()
    rows = segment_triangle_table([s.image_segment(e) for e in edges], tris, tol)
    return dict(zip(edges, rows))


def build_graph(f, g, eps, tol=DEFAULT_TOL, geometry=None):
    """Free-space graph at eps: nonempty cells, adjacency through nonempty
    boundary cells, and union-find component labels.  `geometry` is the
    pair's PairGeometry, shared across calls at different eps; a fresh one
    is built when it is omitted."""
    geometry = PairGeometry.of(f, g, tol, geometry)
    m = f.n_triangles
    n = g.n_triangles

    cells = {(k, l) for k, row in enumerate(geometry.cell_dist)
             for l, d in enumerate(row) if within(d, eps, tol)}
    vertices = sorted(cells)
    uf = UnionFind(vertices)
    edges = []

    for edge, k1, k2 in geometry.f_interior:
        for l in range(n):
            if ((k1, l) in cells and (k2, l) in cells
                    and within(geometry.f_edge_dist[edge][l], eps, tol)):
                edges.append(((k1, l), (k2, l)))
                uf.union((k1, l), (k2, l))

    for edge, l1, l2 in geometry.g_interior:
        for k in range(m):
            if ((k, l1) in cells and (k, l2) in cells
                    and within(geometry.g_edge_dist[edge][k], eps, tol)):
                edges.append(((k, l1), (k, l2)))
                uf.union((k, l1), (k, l2))

    component_of = {v: uf.find(v) for v in vertices}
    return FreeSpaceGraph(eps=eps, vertices=vertices, edges=sorted(edges),
                          component_of=component_of)
