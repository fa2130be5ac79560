import pytest

from frechet_surfaces import PairGeometry, build_graph, dist_point_triangle
from .conftest import flat_surface, random_surface_pair, translate_surface
from .oracles import (bfs_components, composed_dist_segment_triangle,
                      composed_dist_triangle_triangle, dist_segment_triangle,
                      dist_triangle_triangle, oriented_triangle_edges)


def test_identical_surfaces_large_eps():
    f = flat_surface()
    g = flat_surface()
    graph = build_graph(f, g, 10.0)
    assert len(graph.vertices) == 4  # all 2x2 cells
    assert len(graph.components()) == 1


def test_eps_below_min_distance_is_empty():
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 1.0))
    graph = build_graph(f, g, 0.5)
    assert graph.vertices == []
    assert graph.components() == []


def test_diagonal_cells_at_zero():
    f = flat_surface()
    graph = build_graph(f, f, 0.0)
    assert (0, 0) in graph.vertices
    assert (1, 1) in graph.vertices
    # f's parameter edge (0, 2) against g's triangle 0: cells (0, 0) and
    # (1, 0) are adjacent through it
    assert ((0, 0), (1, 0)) in graph.edges
    assert len(graph.components()) == 1


def test_subgraph_monotonicity(rng):
    for _ in range(8):
        f, g = random_surface_pair(rng, tri_range=(4, 6))
        eps1 = float(rng.uniform(0.05, 0.6))
        eps2 = eps1 + float(rng.uniform(0.05, 0.6))
        g1 = build_graph(f, g, eps1)
        g2 = build_graph(f, g, eps2)
        assert set(g1.vertices) <= set(g2.vertices)
        assert set(map(tuple, g1.edges)) <= set(map(tuple, g2.edges))


def test_transposition_symmetry(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 6))
    eps = 0.4
    ab = build_graph(f, g, eps)
    ba = build_graph(g, f, eps)
    assert set(ba.vertices) == {(l, k) for (k, l) in ab.vertices}
    assert set(map(tuple, ba.edges)) == \
        {tuple(sorted(((b, a), (d, c)))) for ((a, b), (c, d)) in ab.edges}


def test_edge_implies_endpoints(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 7))
    graph = build_graph(f, g, 0.5)
    vs = set(graph.vertices)
    for a, b in graph.edges:
        assert a in vs and b in vs


def test_components_match_bfs_oracle(rng):
    for _ in range(6):
        f, g = random_surface_pair(rng, tri_range=(4, 7))
        eps = float(rng.uniform(0.1, 0.8))
        graph = build_graph(f, g, eps)
        mine = sorted(tuple(c) for c in graph.components())
        oracle = sorted(tuple(c) for c in bfs_components(graph.vertices, graph.edges))
        assert mine == oracle


def test_cell_nonempty_vs_distance_oracle(rng):
    from .oracles import sampled_triangle_triangle
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    eps = 0.4
    cells = set(build_graph(f, g, eps).vertices)
    for k in range(f.n_triangles):
        for l in range(g.n_triangles):
            d = sampled_triangle_triangle(f.image_triangle(k), g.image_triangle(l))
            mine = (k, l) in cells
            if abs(d - eps) > 1e-3:
                assert mine == (d <= eps)


def test_vertex_count_bound(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 8))
    graph = build_graph(f, g, 1e9)
    assert len(graph.vertices) == f.n_triangles * g.n_triangles


def test_adjacency_text_deterministic(rng):
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    a = build_graph(f, g, 0.5).adjacency_text()
    b = build_graph(f, g, 0.5).adjacency_text()
    assert a == b
    assert "vertices" in a


def _near(x, y):
    return abs(x - y) <= 1e-15 * max(1.0, y)


def test_pair_geometry_matches_direct_distances(rng):
    # each entry equals the scalar composition of the same primitives bit for
    # bit, and the direct scalar distance within rounding
    for _ in range(3):
        f, g = random_surface_pair(rng, tri_range=(4, 7))
        geo = PairGeometry(f, g)
        f_edges = [oriented_triangle_edges(f, k) for k in range(f.n_triangles)]
        g_edges = [oriented_triangle_edges(g, l) for l in range(g.n_triangles)]
        for k, tk in enumerate(geo.f_tris):
            for l, tl in enumerate(geo.g_tris):
                d = geo.cell_dist[k, l]
                assert d == composed_dist_triangle_triangle(tk, f_edges[k],
                                                            tl, g_edges[l])
                assert _near(d, dist_triangle_triangle(tk, tl)), (k, l)
        assert geo.f_edges == f.param.edges() and geo.g_edges == g.param.edges()
        for s, t, edges, table, tri_edges in (
                (f, g, geo.f_edges, geo.f_edge_dist, g_edges),
                (g, f, geo.g_edges, geo.g_edge_dist, f_edges)):
            for i, e in enumerate(edges):
                seg = s.image_segment(e)
                for l, tri in enumerate(t.image_triangles()):
                    assert table[i, l] == composed_dist_segment_triangle(
                        seg, tri, tri_edges[l])
                    assert _near(table[i, l], dist_segment_triangle(seg, tri))
        for v, p in enumerate(f.image):
            for l in range(g.n_triangles):
                assert geo.f_vertex_dist[v][l] == dist_point_triangle(
                    p, g.image_triangle(l))
        for v, p in enumerate(g.image):
            for k in range(f.n_triangles):
                assert geo.g_vertex_dist[v][k] == dist_point_triangle(
                    p, f.image_triangle(k))


def test_shared_geometry_graph_equals_fresh(rng):
    for _ in range(3):
        f, g = random_surface_pair(rng, tri_range=(4, 7))
        geo = PairGeometry(f, g)
        for eps in (1.0, 0.05, 0.3, 0.6, 0.15, 2.0):
            shared = build_graph(f, g, eps, geometry=geo)
            fresh = build_graph(f, g, eps)
            assert shared.vertices == fresh.vertices
            assert shared.edges == fresh.edges
            assert shared.components() == fresh.components()
            assert shared.adjacency_text() == fresh.adjacency_text()


def test_build_graph_rejects_foreign_geometry(rng):
    from frechet_surfaces import Tolerance
    f, g = random_surface_pair(rng, tri_range=(4, 5))
    geo = PairGeometry(f, g)
    with pytest.raises(ValueError):
        build_graph(g, f, 0.5, geometry=geo)
    with pytest.raises(ValueError):
        build_graph(f, g, 0.5, Tolerance(rel=1e-6), geometry=geo)
