"""Weak Fréchet decision and distance computation for surface pairs.

decide() answers "is the weak Fréchet distance <= eps" by looking for a
connected component of the free-space graph whose projections cover both
parameter spaces.  compute() locates the distance by a staged binary search
over the enumerated critical values, refining the final bracket either with
type-2c candidates ("exact" mode) or by plain bisection ("bisect" mode).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .scalar import DEFAULT_TOL, bisect_threshold
from .batched import batch_dist_point_triangle
from .coverage import CoverageRecord, component_extensive
from .criticals import (critical_values_2c, dedup_critical_values,
                        t2b_critical_values, table_critical_values)
from .freespace import PairGeometry, build_graph
from .surface import (image_diameter_bound, require_valid, sample_image_points)


@dataclass
class WeakFrechetResult:
    distance: float
    witness_eps: float
    witness_component: list
    mode: str
    probes: list = field(default_factory=list)  # (eps, verdict) in probe order

    def as_dict(self):
        return {
            "distance": self.distance,
            "mode": self.mode,
            "witness_eps": self.witness_eps,
            "witness_component": [list(c) for c in self.witness_component],
            "probes": [[e, ok] for (e, ok) in self.probes],
        }


def decide(f, g, eps, tol=DEFAULT_TOL, validated=False, *, geometry=None,
           record=None):
    """Weak Fréchet decision at eps.  Returns (verdict, witness_component);
    the witness is the extensive component (list of cells) or None.
    `geometry` and `record` are the pair's PairGeometry and CoverageRecord
    when several decisions share them."""
    if eps < 0.0:
        return False, None
    if not validated:
        require_valid(f, tol)
        require_valid(g, tol)
    if record is None:
        record = CoverageRecord()
    graph = build_graph(f, g, eps, tol, geometry)
    for comp in graph.components():
        if component_extensive(comp, f, g, eps, tol, record=record):
            return True, comp
    return False, None


MODE_EXACT = "exact"
MODE_BISECT = "bisect"


def _first_true(cands, test):
    """Smallest index whose candidate passes test, by binary search; test
    must be monotone along cands and true at the last one."""
    lo_i, hi_i = 0, len(cands) - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if test(cands[mid]):
            hi_i = mid
        else:
            lo_i = mid + 1
    return hi_i


def _merged_values(candidates, lo, hi, tol):
    """The values of sorted candidates more than their dedup radius (10x the
    tolerance gap) inside (lo, hi), each more than that radius above the last
    one kept."""
    out = []
    for cv in candidates:
        gapv = 10.0 * tol.gap(cv.value)
        if lo + gapv < cv.value < hi - gapv:
            if not out or abs(cv.value - out[-1]) > gapv:
                out.append(cv.value)
    return out


def compute(f, g, mode=MODE_EXACT, tol=DEFAULT_TOL):
    """Weak Fréchet distance: min eps with decide(f, g, eps) true.

    One bracket search in stages, each narrowing (lo, hi] to the first of its
    sorted, merged candidates that probes true: the families read from the
    pair's tables (types 1/2a/2d), then every type-1/2a/2b/2d value inside
    that bracket (T2b enumerated only there), then the type-2c values inside
    the last bracket if a probe just below its top is true ("exact" mode) or
    bisection of it to tolerance ("bisect" mode).  All probes and candidate
    families share one PairGeometry of the pair, all probes one CoverageRecord.
    """
    if mode not in (MODE_EXACT, MODE_BISECT):
        raise ValueError(f"unknown mode {mode!r}")
    require_valid(f, tol)
    require_valid(g, tol)
    geometry = PairGeometry(f, g, tol)
    record = CoverageRecord()

    probes = []
    witnesses = {}

    def probe(eps):
        ok, wit = decide(f, g, eps, tol, validated=True, geometry=geometry,
                         record=record)
        probes.append((eps, ok))
        if ok:
            witnesses[eps] = wit
        return ok

    def probe_candidate(v):
        # enumerated candidates carry up to ~10x-tolerance numerical error;
        # probing with the dedup radius keeps the search from skipping the
        # true flip when a candidate lands marginally below it
        return probe(v + 10.0 * tol.gap(v))

    def narrow(cands, lo):
        """(lo, hi] around the first of cands that probes true; the last one
        is known to."""
        i = _first_true(cands, probe_candidate)
        return (cands[i - 1] if i else lo), cands[i]

    if probe(0.0):
        return WeakFrechetResult(0.0, 0.0, witnesses[0.0], mode, probes)
    eps_max = image_diameter_bound(f, g) * (1.0 + 1e-9) + tol.abs + 1e-12
    if not math.isfinite(eps_max):
        raise ArithmeticError("image diameter bound overflows")

    # lo = -inf keeps tolerance-zero candidates: probe(0.0) is false, yet a
    # distance below 10 gaps may still merge into one of them
    table = table_critical_values(f, g, tol, geometry)
    vals = _merged_values(table, -math.inf, math.inf, tol)
    if not vals or vals[-1] < eps_max:
        vals.append(eps_max)
    if not probe_candidate(vals[-1]):
        # the diameter bound guarantees this never happens for valid surfaces
        raise ArithmeticError("decision failed at the diameter upper bound")
    lo, hi = narrow(vals, 0.0)

    t2b = t2b_critical_values(f, g, tol, geometry, lo, hi)
    c1 = dedup_critical_values(table + t2b, tol)  # critical_values_C1, unfiltered
    lo, hi = narrow(_merged_values(c1, lo, hi, tol) + [hi], lo)

    if mode == MODE_EXACT:
        # a 2c value v merges only below hi - 10 gap(hi) and wins only if
        # v + 10 gap(v) probes true, so a false probe there settles on hi
        below = hi - 10.0 * tol.gap(hi)
        if below <= lo or not probe(below):
            distance = hi
        else:
            c2 = critical_values_2c(f, g, lo, hi, tol, geometry=geometry)
            distance = narrow(_merged_values(c2, lo, hi, tol) + [hi], lo)[1]
    else:
        # the candidate search probed with slack, so the flip may sit just
        # above hi; widen by the slack and bisect with exact probes
        distance = bisect_threshold(probe, lo, hi + 10.0 * tol.gap(hi), tol)

    # every search ends on a value whose probe was true: a candidate probed
    # at v + 10 gap(v), or a true bisection mid, or the widened top, which
    # is the probe point of the last bracket's top
    witness_eps = distance + 10.0 * tol.gap(distance) if mode == MODE_EXACT \
        else distance
    return WeakFrechetResult(distance, witness_eps, witnesses[witness_eps],
                             mode, probes)


def hausdorff_sampled(f, g, density, tol=DEFAULT_TOL):
    """Sampled bracket (lower, upper) of the Hausdorff distance of the images.

    Samples each image at covering radius <= density and measures exact
    point-to-mesh distances, so `lower` never exceeds the true value and the
    1-Lipschitz distance field bounds the excess by the covering radius.
    """
    if density <= 0.0:
        raise ValueError("density must be positive")
    require_valid(f, tol)
    require_valid(g, tol)
    lower = max(_farthest_sample(f, g, density), _farthest_sample(g, f, density))
    return lower, lower + density


def _farthest_sample(f, g, density):
    """Largest distance from a sample of f's image to g's image."""
    coords = tuple(sample_image_points(f, density).T)
    best = None
    for tri in g.image_triangles():
        d = batch_dist_point_triangle(coords, tri)
        best = d if best is None else np.minimum(best, d)
    return float(best.max())
