"""Weak Fréchet distance between piecewise-linear triangulated surfaces.

Core entry points:
    decide / compute            weak Fréchet decision and distance
    critical_values_C1 / _2c    candidate critical values
    build_graph / PairGeometry  free-space cell graph, eps-independent distances
    curve_decide_* / curve_compute   polygonal-curve analogues
    CurvePairGeometry           a curve pair's eps-independent tables
    semi_compute_stream         decreasing Fréchet upper bounds
"""

from .scalar import Tolerance, DEFAULT_TOL, Ordering, cmp, real_roots
from .geometry import (ConicArc, GeometryError, Plane2Frame,
                       arc_pair_intersections, dist_point_triangle,
                       eps_neighborhood_plane_boundary, frame_of_triangle)
from .surface import (ParamTriangulation, Surface, ValidationError,
                      barycentric_subdivide, eval_surface, lipschitz_constant,
                      mesh_size, subdivide_times, validate)
from .freespace import FreeSpaceGraph, PairGeometry, build_graph
from .coverage import component_extensive, triangle_covered
from .criticals import CriticalValue, critical_values_C1, critical_values_2c
from .decision import (WeakFrechetResult, compute, decide, hausdorff_sampled,
                       MODE_BISECT, MODE_EXACT)
from .curves import (CurvePairGeometry, PolyCurve, curve_compute,
                     curve_decide_frechet, curve_decide_weak, discrete_frechet)
from .semifrechet import (Budget, MeshHomeoCandidate, Topology,
                          enumerate_candidates, evaluate_delta, face_regions,
                          is_valid_mesh_homeo, semi_compute_stream)
from .formats import load_curve, load_surface, save_surface, surface_from_dict

__version__ = "0.1.0"

__all__ = [
    "Tolerance", "DEFAULT_TOL", "Ordering", "cmp", "real_roots",
    "ConicArc", "GeometryError", "Plane2Frame", "arc_pair_intersections",
    "dist_point_triangle",
    "eps_neighborhood_plane_boundary", "frame_of_triangle",
    "ParamTriangulation", "Surface", "ValidationError",
    "barycentric_subdivide", "eval_surface", "lipschitz_constant",
    "mesh_size", "subdivide_times", "validate",
    "FreeSpaceGraph", "PairGeometry", "build_graph",
    "component_extensive", "triangle_covered",
    "CriticalValue", "critical_values_C1", "critical_values_2c",
    "WeakFrechetResult", "compute", "decide", "hausdorff_sampled",
    "MODE_BISECT", "MODE_EXACT",
    "CurvePairGeometry", "PolyCurve", "curve_compute", "curve_decide_frechet",
    "curve_decide_weak", "discrete_frechet",
    "Budget", "MeshHomeoCandidate", "Topology", "enumerate_candidates",
    "evaluate_delta", "face_regions", "is_valid_mesh_homeo",
    "semi_compute_stream",
    "load_curve", "load_surface", "save_surface", "surface_from_dict",
]
