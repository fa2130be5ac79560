import itertools
import math

import pytest

from frechet_surfaces import (Budget, Topology, compute, enumerate_candidates,
                              evaluate_delta, face_regions, is_valid_mesh_homeo,
                              lipschitz_constant, mesh_size, semi_compute_stream,
                              semifrechet, subdivide_times)
from frechet_surfaces.semifrechet import (InvalidCandidateError,
                                          MeshHomeoCandidate,
                                          identity_candidate, pair_sequence)
from .conftest import (flat_surface, grid_triangulation, random_surface,
                       translate_surface)


def topo_of(surface):
    return Topology(surface.param)


# ---------------------------------------------------------------------------
# pair enumeration order
# ---------------------------------------------------------------------------

def test_pair_sequence_order():
    b = Budget(max_pairs=7)
    assert list(pair_sequence(b)) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                      (2, 0), (0, 3)]


def test_pair_sequence_m_2m():
    b = Budget(max_pairs=3, pairs_m_2m=True)
    assert list(pair_sequence(b)) == [(0, 0), (1, 2), (2, 4)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_identity_yielded_first():
    f = flat_surface()
    t = topo_of(f)
    budget = Budget(max_candidates_per_pair=5, max_chain_len=2)
    cands = list(enumerate_candidates(t, t, budget))
    assert cands
    first = cands[0]
    assert all(first.chains[e] == (e[0], e[1]) for e in t.edges)
    assert first.index == 0


def test_zero_budget_empty_stream():
    f = flat_surface()
    t = topo_of(f)
    assert list(enumerate_candidates(t, t, Budget(max_candidates_per_pair=0))) == []
    assert list(semi_compute_stream(f, f, Budget(max_pairs=0))) == []


def brute_force_candidates(topo_k, topo_l, max_chain_len):
    """Independent exhaustive enumeration: unconstrained per-edge chain lists
    (simple paths within the cap; boundary edges stay on the boundary), full
    assignments filtered by endpoint consistency and pairwise disjointness."""
    def all_paths():
        paths = []
        verts = range(len(topo_l.vertices))

        def extend(path):
            if len(path) >= 2:
                paths.append(tuple(path))
            if len(path) - 1 >= max_chain_len:
                return
            for nxt in topo_l.adj.get(path[-1], ()):
                if nxt not in path:
                    extend(path + [nxt])

        for v in verts:
            extend([v])
        return paths

    paths = all_paths()
    per_edge = []
    for e in topo_k.edges:
        opts = []
        for p in paths:
            if e in topo_k.boundary_edges:
                if any(((a, b) if a < b else (b, a)) not in topo_l.boundary_edges
                       for a, b in zip(p, p[1:])):
                    continue
            opts.append(p)
        per_edge.append(opts)

    valid = []
    for combo in itertools.product(*per_edge):
        h = {}
        ok = True
        for e, path in zip(topo_k.edges, combo):
            for vk, vl in ((e[0], path[0]), (e[1], path[-1])):
                if h.setdefault(vk, vl) != vl:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if len(set(h.values())) != len(h):
            continue
        # pairwise disjointness outside prescribed shared endpoints
        for (e1, p1), (e2, p2) in itertools.combinations(
                zip(topo_k.edges, combo), 2):
            allowed = {h[x] for x in set(e1) & set(e2)}
            if (set(p1) & set(p2)) - allowed:
                ok = False
                break
        if ok:
            valid.append(tuple(combo))
    return valid


def test_enumeration_matches_bruteforce():
    f = flat_surface()
    t = topo_of(f)
    budget = Budget(max_candidates_per_pair=10 ** 9, max_chain_len=1,
                    max_steps_per_pair=10 ** 9)
    mine = [tuple(c.chains[e] for e in t.edges)
            for c in enumerate_candidates(t, t, budget)]
    brute = brute_force_candidates(t, t, max_chain_len=1)
    assert sorted(mine) == sorted(brute)
    assert len(mine) == len(set(mine))


def test_enumeration_matches_bruteforce_chain2():
    f = flat_surface()
    t = topo_of(f)
    budget = Budget(max_candidates_per_pair=10 ** 9, max_chain_len=2,
                    max_steps_per_pair=10 ** 9)
    mine = [tuple(c.chains[e] for e in t.edges)
            for c in enumerate_candidates(t, t, budget)]
    brute = brute_force_candidates(t, t, max_chain_len=2)
    assert sorted(mine) == sorted(brute)


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def test_identity_is_valid():
    f = flat_surface()
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    assert is_valid_mesh_homeo(cand, t, t)


def test_crossing_chains_invalid():
    # map the square's diagonal edge to the wrong diagonal path: chains cross
    f = flat_surface()
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    # vertices: 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1); diagonal edge is (0,2);
    # reroute it through vertex 3, which other chains use as an endpoint
    chains = dict(cand.chains)
    chains[(0, 2)] = (0, 3, 2)
    bad = MeshHomeoCandidate(0, 0, cand.edges, chains, cand.vertex_map)
    assert not is_valid_mesh_homeo(bad, t, t)


def test_orientation_reversal_invalid():
    # reflect the square across the diagonal: orientation reversing
    f = flat_surface()
    t = topo_of(f)
    # reflection swaps vertices 1 and 3, fixes 0 and 2
    perm = {0: 0, 1: 3, 2: 2, 3: 1}
    chains = {}
    for (a, b) in t.edges:
        ia, ib = perm[a], perm[b]
        chains[(a, b)] = (ia, ib)
    cand = MeshHomeoCandidate(0, 0, tuple(t.edges), chains, perm)
    assert not is_valid_mesh_homeo(cand, t, t)


def test_validity_matches_embedding_checker(rng):
    f = flat_surface()
    f1 = subdivide_times(f, 1)
    tk = topo_of(f)
    tl = topo_of(f1)
    budget = Budget(max_candidates_per_pair=300, max_chain_len=3,
                    max_steps_per_pair=10 ** 8)
    agree = 0
    valids = 0
    for cand in enumerate_candidates(tk, tl, budget, identity_first=False):
        mine = is_valid_mesh_homeo(cand, tk, tl)
        orac = embedding_checker(cand, tk, tl)
        assert mine == orac, cand.chains
        agree += 1
        valids += mine
    assert agree >= 100
    # same-complex candidates as well (automorphism-sized sample)
    t = topo_of(f)
    for cand in enumerate_candidates(t, t, Budget(max_candidates_per_pair=50,
                                                  max_chain_len=2)):
        assert is_valid_mesh_homeo(cand, t, t) == embedding_checker(cand, t, t)


def test_face_regions_raises_exactly_on_invalid_candidates(rng):
    f = flat_surface()
    g = random_surface(rng, tri_range=(4, 6))
    pairs = [(f, f), (f, subdivide_times(f, 1)), (g, g)]
    budget = Budget(max_candidates_per_pair=200, max_chain_len=2,
                    max_steps_per_pair=10 ** 6)
    seen = {True: 0, False: 0}
    for a, b in pairs:
        tk, tl = topo_of(a), topo_of(b)
        for cand in enumerate_candidates(tk, tl, budget, identity_first=False):
            valid = is_valid_mesh_homeo(cand, tk, tl)
            seen[valid] += 1
            if valid:
                face_regions(cand, tk, tl)
            else:
                with pytest.raises(InvalidCandidateError):
                    face_regions(cand, tk, tl)
    assert seen[True] and seen[False]


def embedding_checker(cand, topo_k, topo_l):
    """Independent validity oracle: build the image graph explicitly, check it
    is an embedded copy of K^m with matching rotation systems (cyclic orders
    of incident edges by geometric angle), and that chains cover the boundary
    exactly once with consistent direction."""
    import math as _m

    h = cand.vertex_map
    if len(set(h.values())) != len(h):
        return False
    # image graph: nodes = all chain vertices; edges = chain steps
    deg = {}
    for e, path in cand.chains.items():
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            if key not in topo_l.edge_set:
                return False
            deg[key] = deg.get(key, 0) + 1
    if any(c > 1 for c in deg.values()):
        return False
    # interior vertices of chains must have graph degree 2 (no branching)
    usage = {}
    for e, path in cand.chains.items():
        for v in path[1:-1]:
            usage[v] = usage.get(v, 0) + 1
        for v in (path[0], path[-1]):
            usage[v] = usage.get(v, 0)
    for v, interior_count in usage.items():
        if v in h.values():
            if interior_count > 0:
                return False
        elif interior_count > 1:
            return False

    # rotation system at each mapped vertex: cyclic CCW order of first chain
    # steps must match the cyclic CCW order of parameter edges
    def angle(p, q):
        return _m.atan2(q[1] - p[1], q[0] - p[0])

    hinv = {v: k for k, v in h.items()}
    incident = {}
    for e in topo_k.edges:
        path = cand.chains[e]
        incident.setdefault(e[0], []).append((e, path[1], False))
        incident.setdefault(e[1], []).append((e, path[-2], True))
    for vk, items in incident.items():
        if len(items) < 3:
            continue  # cyclic order of <= 2 edges carries no information
        # parameter-side CCW order
        param_sorted = sorted(
            items,
            key=lambda it: angle(topo_k.vertices[vk],
                                 topo_k.vertices[it[0][1] if not it[2] else it[0][0]]))
        image_sorted = sorted(
            items,
            key=lambda it: angle(topo_l.vertices[h[vk]],
                                 topo_l.vertices[it[1]]))
        ids_param = [id(it) for it in param_sorted]
        ids_image = [id(it) for it in image_sorted]
        # same cyclic order?
        k = len(ids_param)
        start = ids_image.index(ids_param[0])
        if [ids_image[(start + i) % k] for i in range(k)] != ids_param:
            return False

    # boundary: walk K's boundary cycle; concatenated chains must walk L's
    # boundary CCW covering each directed edge once
    seen = set()
    for (a, b) in topo_k.boundary_cycle_edges():
        path = cand.oriented_chain(a, b)
        for p, q in zip(path, path[1:]):
            if topo_l.boundary_succ.get(p) != q or (p, q) in seen:
                return False
            seen.add((p, q))
    if len(seen) != topo_l.n_boundary_edges:
        return False

    # interior chains must not use boundary edges (they would overlap the
    # boundary image) -- implied by edge multiplicity check above plus
    # boundary coverage; finally require the face partition to work out
    v_count = len(set(x for path in cand.chains.values() for x in path))
    e_count = sum(len(path) - 1 for path in cand.chains.values())
    # Euler: faces of the embedded graph inside the disk = 1 + E - V
    if 1 + e_count - v_count != len(topo_k.triangles):
        return False
    return True


# ---------------------------------------------------------------------------
# face regions and evaluation
# ---------------------------------------------------------------------------

def test_face_regions_identity():
    f = flat_surface()
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    regions = face_regions(cand, t, t)
    assert regions == {0: [0], 1: [1]}


def test_face_regions_refined_target():
    f = flat_surface()
    f1 = subdivide_times(f, 1)
    tk = topo_of(f)
    tl = topo_of(f1)
    # natural inclusion: vertex i of K is vertex i of L^1 (subdivision appends
    # new vertices); each K-edge maps to its two half-edges via the midpoint
    coords = {v: idx for idx, v in enumerate(f1.param.vertices)}
    chains = {}
    for (a, b) in tk.edges:
        pa = f.param.vertices[a]
        pb = f.param.vertices[b]
        m = ((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2)
        chains[(a, b)] = (a, coords[m], b)
    cand = MeshHomeoCandidate(0, 1, tuple(tk.edges), chains,
                              {v: v for v in range(4)})
    assert is_valid_mesh_homeo(cand, tk, tl)
    regions = face_regions(cand, tk, tl)
    assert sorted(len(v) for v in regions.values()) == [6, 6]
    total = sorted(x for v in regions.values() for x in v)
    assert total == list(range(12))


def test_face_regions_invalid_raises():
    f = flat_surface()
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    chains = dict(cand.chains)
    chains[(0, 2)] = (0, 3, 2)
    bad = MeshHomeoCandidate(0, 0, cand.edges, chains, cand.vertex_map)
    with pytest.raises(InvalidCandidateError):
        face_regions(bad, t, t)


def test_evaluate_delta_identity_bound(rng):
    f = random_surface(rng, tri_range=(4, 6))
    for m in range(2):
        fs = subdivide_times(f, m)
        t = topo_of(fs)
        cand = identity_candidate(t, m, m)
        val = evaluate_delta(cand, fs, fs)
        assert val <= lipschitz_constant(f) * mesh_size(fs.param) + 1e-12


def test_evaluate_delta_translate_pythagoras():
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.3))
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    val = evaluate_delta(cand, f, g)
    D = math.sqrt(2.0)  # max same-triangle planar vertex distance
    assert abs(val - math.sqrt(0.3 ** 2 + D ** 2)) < 1e-12


def test_evaluate_delta_matches_bruteforce(rng):
    f = random_surface(rng, tri_range=(4, 6))
    # identity candidate needs matching parameter complexes
    g2 = translate_surface(f, (0.2, -0.1, 0.4))
    t = topo_of(f)
    cand = identity_candidate(t, 0, 0)
    regions = face_regions(cand, t, t)
    val = evaluate_delta(cand, f, g2)
    brute = 0.0
    for ti, (i, j, k) in enumerate(f.param.triangles):
        for vi in (i, j, k):
            for lt in regions[ti]:
                for wi in f.param.triangles[lt]:
                    d = math.dist(f.image[vi], g2.image[wi])
                    brute = max(brute, d)
    assert abs(val - brute) < 1e-12


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def test_stream_identity_levels():
    f = flat_surface()
    budget = Budget(max_pairs=12, max_candidates_per_pair=1, max_chain_len=1)
    out = list(semi_compute_stream(f, f, budget))
    assert out
    values = [v for (v, m, n, i) in values_mnk(out)]
    assert values == sorted(values, reverse=True)
    for (v, m, n, idx) in values_mnk(out):
        assert m == n  # only identity-style candidates can emit here
        assert v <= lipschitz_constant(f) * mesh_size(
            subdivide_times(f, m).param) + 1e-12
        assert v >= -1e-12


def test_stream_of_a_surface_against_itself_subdivides_each_level_once(
        monkeypatch):
    f = flat_surface()
    calls = []
    orig = semifrechet.subdivide_times

    def counting(surface, m):
        calls.append((len(surface.param.triangles), m))
        return orig(surface, m)

    monkeypatch.setattr(semifrechet, "subdivide_times", counting)
    budget = Budget(max_pairs=25, max_candidates_per_pair=1, max_chain_len=1)
    assert max(max(m, n) for m, n in pair_sequence(budget)) == 6
    list(semi_compute_stream(f, f, budget))
    # levels 1, 2 and 3, each from the level below (2, 12, 72 triangles); with
    # chains of one edge only the pairs (m, m) can yield, so no level above 3
    # is built
    assert calls == [(2, 1), (12, 1), (72, 1)]


def test_boundary_edge_count_doubles_per_level(rng):
    for f in (flat_surface(), flat_surface(grid_triangulation(1, 2)),
              random_surface(rng, tri_range=(4, 6))):
        nb = Topology(f.param).n_boundary_edges
        sub = f
        for m in range(1, 4):
            sub = subdivide_times(sub, 1)
            assert Topology(sub.param).n_boundary_edges == nb * 2 ** m


def test_stream_skips_only_pairs_without_valid_candidates(monkeypatch):
    """Every (m, n) pair that the stream does not search has no valid
    candidate under the same budget."""
    f = flat_surface()                              # 4 boundary edges
    g = flat_surface(grid_triangulation(1, 2))      # 6 boundary edges
    orig = semifrechet.enumerate_candidates
    n_searched = 0
    for chain_len in (1, 2):
        budget = Budget(max_pairs=6, max_candidates_per_pair=64,
                        max_chain_len=chain_len, max_steps_per_pair=2000)
        searched = []

        def recording(topo_k, topo_l, budget, m=0, n=0, **kwargs):
            searched.append((m, n))
            return orig(topo_k, topo_l, budget, m=m, n=n, **kwargs)

        monkeypatch.setattr(semifrechet, "enumerate_candidates", recording)
        list(semi_compute_stream(f, g, budget))
        monkeypatch.undo()
        skipped = [pair for pair in pair_sequence(budget) if pair not in searched]
        assert skipped
        n_searched += len(searched)
        for m, n in skipped:
            topo_k = topo_of(subdivide_times(f, m))
            topo_l = topo_of(subdivide_times(g, n))
            for cand in enumerate_candidates(topo_k, topo_l, budget, m=m, n=n):
                assert not is_valid_mesh_homeo(cand, topo_k, topo_l)
    assert n_searched > 0


def values_mnk(stream_list):
    return [(v, m, n, i) for (v, m, n, i) in stream_list]


def test_stream_strictly_decreasing(rng):
    f = random_surface(rng, tri_range=(4, 6))
    budget = Budget(max_pairs=6, max_candidates_per_pair=8, max_chain_len=2,
                    max_steps_per_pair=4000)
    vals = [v for (v, m, n, i) in semi_compute_stream(f, f, budget)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_stream_dominates_weak_frechet(rng):
    for _ in range(4):
        f = random_surface(rng, tri_range=(4, 5))
        g = translate_surface(f, tuple(float(x) for x in rng.uniform(-0.3, 0.3, 3)))
        dist = compute(f, g, mode="bisect").distance
        budget = Budget(max_pairs=3, max_candidates_per_pair=6, max_chain_len=2,
                        max_steps_per_pair=3000)
        for (v, m, n, i) in semi_compute_stream(f, g, budget):
            assert v >= dist - 1e-9
