"""Budgeted stream of upper bounds on the (strong) Fréchet distance.

Candidates assign every edge of a subdivided parameter complex K^m to a simple
edge chain of L^n; valid assignments are piecewise-linear homeomorphism
skeletons (boundary mapped onto the boundary orientation-preservingly, chains
meeting only at prescribed shared endpoints).  Each valid candidate yields the
max distance between vertex images over matched face regions, and the running
minimum of those values is a monotone decreasing upper-bound stream.

The enumeration is exhaustive only under the configured caps; the budget
replaces an unbounded search, never the validity rules.
"""

import math
import time
from dataclasses import dataclass

from .scalar import DEFAULT_TOL
from .geometry import vdist
from .freespace import UnionFind
from .surface import subdivide_times


class InvalidCandidateError(ValueError):
    pass


@dataclass(frozen=True)
class Budget:
    """Caps for the candidate search; all positive (0 pairs/candidates = no work)."""

    max_pairs: int = 4
    max_candidates_per_pair: int = 64
    max_chain_len: int = 3
    max_steps_per_pair: int = 20000
    wall_clock_s: float = None
    pairs_m_2m: bool = False

    def __post_init__(self):
        if self.max_pairs < 0 or self.max_candidates_per_pair < 0:
            raise ValueError("budget counts must be nonnegative")
        if self.max_chain_len < 1 or self.max_steps_per_pair < 1:
            raise ValueError("chain length and step caps must be positive")
        if self.wall_clock_s is not None and self.wall_clock_s < 0:
            raise ValueError("the wall-clock budget must be nonnegative")


def pair_sequence(budget):
    """Deterministic (m, n) subdivision pair order: by m+n, then m; or the
    (m, 2m) diagonal when the reduced enumeration mode is on."""
    count = 0
    if budget.pairs_m_2m:
        m = 0
        while count < budget.max_pairs:
            yield (m, 2 * m)
            m += 1
            count += 1
        return
    s = 0
    while count < budget.max_pairs:
        for m in range(s + 1):
            if count >= budget.max_pairs:
                return
            yield (m, s - m)
            count += 1
        s += 1


class Topology:
    """Edge/boundary/orientation structure of a parameter triangulation."""

    def __init__(self, param):
        self.vertices = param.vertices
        self.triangles = param.triangles
        em = param.edge_map()
        self.edges = sorted(em.keys())
        self.edge_set = set(self.edges)
        self.adj = {}
        for (a, b) in self.edges:
            self.adj.setdefault(a, []).append(b)
            self.adj.setdefault(b, []).append(a)
        for v in self.adj:
            self.adj[v].sort()
        self.boundary_edges = set(e for e, ts in em.items() if len(ts) == 1)
        # directed edge -> incident triangle on its left (CCW triangles)
        self.left_tri = {}
        for ti, (i, j, k) in enumerate(self.triangles):
            for (a, b) in ((i, j), (j, k), (k, i)):
                self.left_tri[(a, b)] = ti
        # CCW boundary successor map: boundary edges directed with the domain
        # on their left are exactly the directed boundary edges in left_tri.
        self.boundary_succ = {}
        for (a, b) in self.boundary_edges:
            if (a, b) in self.left_tri:
                self.boundary_succ[a] = b
            if (b, a) in self.left_tri:
                self.boundary_succ[b] = a
        self.n_boundary_edges = len(self.boundary_edges)

    def boundary_cycle_edges(self):
        """Directed CCW boundary edges in traversal order (deterministic start)."""
        start = min(self.boundary_succ.keys())
        out = []
        a = start
        while True:
            b = self.boundary_succ[a]
            out.append((a, b))
            a = b
            if a == start:
                break
        return out

    def same_complex(self, other, tol=DEFAULT_TOL):
        if len(self.vertices) != len(other.vertices):
            return False
        if self.triangles != other.triangles:
            return False
        return all(vdist(p, q) <= tol.gap(1.0)
                   for p, q in zip(self.vertices, other.vertices))


@dataclass
class MeshHomeoCandidate:
    """Per-edge chain assignment between two subdivided complexes.

    chains[e] is a vertex path in L^n oriented from e[0] to e[1], where e is an
    undirected K^m edge stored as (min, max)."""

    m: int
    n: int
    edges: tuple            # ordered K^m edges, as assigned
    chains: dict            # edge -> tuple of L^n vertex indices
    vertex_map: dict        # K^m vertex -> L^n vertex
    index: int = 0

    def oriented_chain(self, a, b):
        e = (a, b) if a < b else (b, a)
        path = self.chains[e]
        return path if a <= b else tuple(reversed(path))


def identity_candidate(topo_k, m, n, index=0):
    chains = {e: (e[0], e[1]) for e in topo_k.edges}
    vmap = {v: v for v in range(len(topo_k.vertices))}
    return MeshHomeoCandidate(m=m, n=n, edges=tuple(topo_k.edges),
                              chains=chains, vertex_map=vmap, index=index)


def _chain_options(topo_l, start, target, used, max_len, boundary_only, steps):
    """Simple paths from `start` (to `target` when fixed, else to any fresh
    vertex), avoiding used vertices except the designated endpoints.  Sorted by
    (length, vertex sequence).  `steps` is a mutable work counter [remaining]."""
    out = []
    adj = topo_l.adj
    bset = topo_l.boundary_edges

    def extend(path, visited):
        if steps[0] <= 0:
            return
        steps[0] -= 1
        last = path[-1]
        for nxt in adj.get(last, ()):
            if nxt in visited:
                continue
            e = (last, nxt) if last < nxt else (nxt, last)
            if boundary_only and e not in bset:
                continue
            if target is not None:
                if nxt == target:
                    out.append(tuple(path) + (nxt,))
                    continue
                if nxt in used:
                    continue
            else:
                if nxt in used:
                    continue
                out.append(tuple(path) + (nxt,))
            if len(path) < max_len:
                extend(path + [nxt], visited | {nxt})

    extend([start], {start})
    out.sort(key=lambda p: (len(p), p))
    return out


def enumerate_candidates(topo_k, topo_l, budget, m=0, n=0,
                         identity_first=None, tol=DEFAULT_TOL):
    """Deterministic stream of chain assignments between two Topologies.

    Candidates satisfy the structural rules (simple chains within the length
    cap, boundary edges staying on the boundary, endpoint consistency, chains
    disjoint except prescribed shared endpoints); full validity is
    is_valid_mesh_homeo's job.  When both complexes agree and identity_first
    is not disabled, the identity assignment is yielded first.
    """
    if budget.max_candidates_per_pair <= 0:
        return

    if identity_first is None:
        identity_first = topo_k.same_complex(topo_l, tol)

    count = 0
    ident = None
    if identity_first:
        ident = identity_candidate(topo_k, m, n, index=0)
        yield ident
        count += 1
        if count >= budget.max_candidates_per_pair:
            return

    edges = list(topo_k.edges)
    k_boundary = topo_k.boundary_edges
    steps = [budget.max_steps_per_pair]

    h = {}
    used = set()
    chains = {}

    def assign(depth):
        if count >= budget.max_candidates_per_pair or steps[0] <= 0:
            return
        if depth == len(edges):
            cand = MeshHomeoCandidate(
                m=m, n=n, edges=tuple(edges), chains=dict(chains),
                vertex_map=dict(h), index=count)
            if ident is not None and cand.chains == ident.chains:
                return  # already yielded first
            yield cand
            return
        e = edges[depth]
        u, v = e
        boundary_only = e in k_boundary
        hu = h.get(u)
        hv = h.get(v)
        if hu is None and hv is None:
            starts = sorted(x for x in range(len(topo_l.vertices)) if x not in used)
        else:
            starts = [hu if hu is not None else hv]
        swap = hu is None and hv is not None
        for s in starts:
            tgt = hv if (hu is not None and hv is not None) else None
            opts = _chain_options(topo_l, s, tgt, used, budget.max_chain_len,
                                  boundary_only, steps)
            for path in opts:
                if steps[0] <= 0 or count >= budget.max_candidates_per_pair:
                    return
                # chains are stored oriented from e[0] to e[1]
                oriented = tuple(reversed(path)) if swap else path
                new_vertices = [x for x in path if x not in used]
                set_u = hu is None
                set_v = hv is None
                if set_u:
                    h[u] = oriented[0]
                if set_v:
                    h[v] = oriented[-1]
                chains[e] = oriented
                used.update(new_vertices)
                yield from assign(depth + 1)
                del chains[e]
                for x in new_vertices:
                    used.discard(x)
                if set_u:
                    del h[u]
                if set_v:
                    del h[v]

    for cand in assign(0):
        yield cand
        count += 1


def _structural_ok(cand, topo_k, topo_l):
    """Endpoint consistency, simplicity, boundary containment, disjointness."""
    h = {}
    for e in topo_k.edges:
        path = cand.chains.get(e)
        if path is None or len(path) < 2:
            return False
        if len(set(path)) != len(path):
            return False  # not simple
        for (a, b) in zip(path, path[1:]):
            key = (a, b) if a < b else (b, a)
            if key not in topo_l.edge_set:
                return False
            if e in topo_k.boundary_edges and key not in topo_l.boundary_edges:
                return False
        for vk, vl in ((e[0], path[0]), (e[1], path[-1])):
            if h.setdefault(vk, vl) != vl:
                return False
    # h injective
    if len(set(h.values())) != len(h):
        return False
    # chains share only prescribed endpoints: a chain vertex that is some
    # h(x) must belong to an edge incident to x; any other vertex belongs to
    # exactly one chain
    hinv = {v: k for k, v in h.items()}
    owners = {}
    for e in topo_k.edges:
        for w in cand.chains[e]:
            owners.setdefault(w, []).append(e)
    for w, es in owners.items():
        x = hinv.get(w)
        if x is None:
            if len(es) > 1:
                return False
        else:
            if any(x not in e for e in es):
                return False
    return True


def _boundary_ok(cand, topo_k, topo_l):
    """Boundary of K^m maps onto the boundary of L^n preserving orientation:
    the concatenated boundary chains traverse every CCW boundary edge of L^n
    exactly once."""
    seen = set()
    for (a, b) in topo_k.boundary_cycle_edges():
        path = cand.oriented_chain(a, b)
        for (p, q) in zip(path, path[1:]):
            if topo_l.boundary_succ.get(p) != q:
                return False  # not a CCW boundary step
            if (p, q) in seen:
                return False
            seen.add((p, q))
    return len(seen) == topo_l.n_boundary_edges


def _valid_regions(cand, topo_k, topo_l):
    """Regions of L^n triangles bounded by the chain image graph, mapped from
    K^m triangles, for a valid candidate: one that passes the structural
    rules, then the boundary rule, then forms a consistent face partition.
    None when any of the three fails."""
    if not _structural_ok(cand, topo_k, topo_l) or \
            not _boundary_ok(cand, topo_k, topo_l):
        return None
    blocked = set()
    for path in cand.chains.values():
        for (a, b) in zip(path, path[1:]):
            blocked.add((a, b) if a < b else (b, a))

    n_tris = len(topo_l.triangles)
    uf = UnionFind(range(n_tris))
    # an interior edge (a, b) of a CCW triangulation has one triangle on each
    # side: left_tri[(a, b)] and left_tri[(b, a)]
    for (a, b) in topo_l.edges:
        if (a, b) not in topo_l.boundary_edges and (a, b) not in blocked:
            uf.union(topo_l.left_tri[(a, b)], topo_l.left_tri[(b, a)])

    regions = {}
    used_roots = {}
    for ti, (i, j, k) in enumerate(topo_k.triangles):
        root = None
        for (a, b) in ((i, j), (j, k), (k, i)):
            path = cand.oriented_chain(a, b)
            for (p, q) in zip(path, path[1:]):
                t = topo_l.left_tri.get((p, q))
                if t is None:
                    return None
                r = uf.find(t)
                if root is None:
                    root = r
                elif root != r:
                    return None
        if root is None:
            return None
        if root in used_roots:
            return None
        used_roots[root] = ti
        regions[ti] = root

    groups = {}
    for t in range(n_tris):
        groups.setdefault(uf.find(t), []).append(t)
    if len(groups) != len(topo_k.triangles):
        return None
    if sum(len(g) for g in groups.values()) != n_tris:
        return None
    return {ti: sorted(groups[root]) for ti, root in regions.items()}


def is_valid_mesh_homeo(cand, topo_k, topo_l):
    """Full validity of a candidate between two Topologies."""
    return _valid_regions(cand, topo_k, topo_l) is not None


def face_regions(cand, topo_k, topo_l):
    """Map each K^m triangle to its region of L^n triangles; raises on invalid
    candidates."""
    regions = _valid_regions(cand, topo_k, topo_l)
    if regions is None:
        raise InvalidCandidateError("candidate is not a valid mesh homeomorphism")
    return regions


def evaluate_delta(cand, f_sub, g_sub, regions=None):
    """Max distance between f-vertex images of each K^m triangle and g-vertex
    images inside its matched region."""
    if regions is None:
        regions = face_regions(cand, Topology(f_sub.param), Topology(g_sub.param))
    g_tris = g_sub.param.triangles
    best = 0.0
    for ti, (i, j, k) in enumerate(f_sub.param.triangles):
        f_pts = [f_sub.image[i], f_sub.image[j], f_sub.image[k]]
        w_idx = set()
        for lt in regions[ti]:
            w_idx.update(g_tris[lt])
        for fp in f_pts:
            for wi in w_idx:
                d = vdist(fp, g_sub.image[wi])
                if d > best:
                    best = d
    return best


def semi_compute_stream(f, g, budget, tol=DEFAULT_TOL):
    """Monotone decreasing stream of Fréchet upper bounds.

    Yields (value, m, n, candidate_index) whenever a valid candidate strictly
    lowers the running minimum.  A pair (m, n) is skipped before any work
    when the boundary edge counts rule out every valid candidate: the chains
    of K^m's nb_k boundary edges, 1 to max_chain_len edges each, cover L^n's
    nb_l boundary edges once, so nb_k <= nb_l <= max_chain_len * nb_k; and
    each subdivision level doubles a surface's boundary edge count."""
    t_start = time.monotonic()
    best = math.inf
    nb_f = Topology(f.param).n_boundary_edges
    nb_g = Topology(g.param).n_boundary_edges
    # (input surface, level) -> subdivision; f and g share entries when equal
    subs = {}

    def sub(surface, level):
        key = (surface, level)
        if key not in subs:
            subs[key] = surface if level == 0 else \
                subdivide_times(sub(surface, level - 1), 1)
        return subs[key]

    def out_of_time():
        return budget.wall_clock_s is not None and \
            time.monotonic() - t_start > budget.wall_clock_s

    for (m, n) in pair_sequence(budget):
        if out_of_time():
            return
        nb_k = nb_f * 2 ** m
        if not nb_k <= nb_g * 2 ** n <= budget.max_chain_len * nb_k:
            continue
        fs = sub(f, m)
        gs = sub(g, n)
        topo_k = Topology(fs.param)
        topo_l = Topology(gs.param)
        for cand in enumerate_candidates(topo_k, topo_l, budget, m=m, n=n, tol=tol):
            if out_of_time():
                return
            regions = _valid_regions(cand, topo_k, topo_l)
            if regions is None:
                continue
            val = evaluate_delta(cand, fs, gs, regions)
            if val < best:
                best = val
                yield (val, m, n, cand.index)
