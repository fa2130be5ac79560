"""JSON file formats for surfaces and curves, plus the run configuration.

Surface files:
    {"dimension": 2|3,
     "param_vertices": [[x, y], ...],     # numbers or "p/q" rational strings
     "triangles": [[i, j, k], ...],
     "image_vertices": [[c0, ..., cd-1], ...]}

Curve files:
    {"dimension": 2|3, "vertices": [[c0, ..., cd-1], ...]}
"""

import json
from dataclasses import dataclass, field

from .scalar import Tolerance, DEFAULT_TOL
from .surface import ParamTriangulation, Surface, parse_coordinate
from .curves import PolyCurve


class FormatError(ValueError):
    pass


def _coordinate(value, where):
    # a JSON true/false would pass float() as 1.0/0.0
    if isinstance(value, bool):
        raise FormatError(f"{where}: bad coordinate {value!r}")
    try:
        return parse_coordinate(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad coordinate {value!r}") from exc


def _integer(value, where):
    """A JSON integer; int() would truncate 2.5 and parse "2"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise FormatError(f"{where} must be a list, got {value!r}")
    return value


def _object(doc, what):
    # indexing a list or a string by a field name would raise TypeError
    if not isinstance(doc, dict):
        raise FormatError(
            f"a {what} document must be a JSON object, got {type(doc).__name__}")


def _dimension(doc):
    dim = _integer(doc["dimension"], "dimension")
    if dim not in (2, 3):
        raise FormatError(f"dimension must be 2 or 3, got {dim}")
    return dim


def surface_from_dict(doc):
    _object(doc, "surface")
    try:
        dim = _dimension(doc)
        raw_pv = _list(doc["param_vertices"], "param_vertices")
        raw_tris = _list(doc["triangles"], "triangles")
        raw_iv = _list(doc["image_vertices"], "image_vertices")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"surface document missing field: {exc}") from exc
    if not raw_pv:
        raise FormatError("param_vertices must not be empty")
    verts = []
    texts = []
    for i, v in enumerate(raw_pv):
        if len(_list(v, f"param_vertices[{i}]")) != 2:
            raise FormatError(f"param_vertices[{i}] must have 2 coordinates")
        xy = []
        txt = []
        for c in v:
            val, raw = _coordinate(c, f"param_vertices[{i}]")
            xy.append(val)
            txt.append(raw)
        verts.append(tuple(xy))
        texts.append(tuple(txt) if any(t is not None for t in txt) else None)
    tris = []
    for i, t in enumerate(raw_tris):
        if len(_list(t, f"triangles[{i}]")) != 3:
            raise FormatError(f"triangles[{i}] must have 3 indices")
        tris.append(tuple(_integer(x, f"triangles[{i}]") for x in t))
    imgs = []
    for i, p in enumerate(raw_iv):
        if len(_list(p, f"image_vertices[{i}]")) != dim:
            raise FormatError(f"image_vertices[{i}] must have {dim} coordinates")
        imgs.append(tuple(_coordinate(c, f"image_vertices[{i}]")[0] for c in p))
    if len(imgs) != len(verts):
        raise FormatError(
            f"image_vertices count {len(imgs)} != param_vertices count {len(verts)}")
    param = ParamTriangulation(tuple(verts), tuple(tris), tuple(texts))
    return Surface(param, tuple(imgs))


def surface_to_dict(surface):
    return {
        "dimension": surface.dim,
        "param_vertices": [list(v) for v in surface.param.vertices],
        "triangles": [list(t) for t in surface.param.triangles],
        "image_vertices": [list(p) for p in surface.image],
    }


def load_surface(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return surface_from_dict(doc)


def save_surface(surface, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(surface), fh, sort_keys=True)
        fh.write("\n")


def curve_from_dict(doc):
    _object(doc, "curve")
    try:
        dim = _dimension(doc)
        raw = _list(doc["vertices"], "vertices")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"curve document missing field: {exc}") from exc
    verts = []
    for i, v in enumerate(raw):
        if len(_list(v, f"vertices[{i}]")) != dim:
            raise FormatError(f"vertices[{i}] must have {dim} coordinates")
        verts.append(tuple(_coordinate(c, f"vertices[{i}]")[0] for c in v))
    try:
        return PolyCurve.create(verts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_curve(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return curve_from_dict(doc)


@dataclass
class RunConfig:
    """Effective run configuration, echoed verbatim in every command header."""

    tolerance: Tolerance = DEFAULT_TOL
    mode: str = "exact"
    svg: str = None
    budget_pairs: int = 4
    budget_candidates: int = 64
    budget_chainlen: int = 3
    pairs_m_2m: bool = False

    def as_dict(self):
        return {
            "tolerance": {"rel": self.tolerance.rel, "abs": self.tolerance.abs},
            "mode": self.mode,
            "svg": self.svg,
            "budget": {"pairs": self.budget_pairs,
                       "candidates": self.budget_candidates,
                       "chainlen": self.budget_chainlen,
                       "pairs_m_2m": self.pairs_m_2m},
        }

    def header_json(self):
        return json.dumps({"config": self.as_dict()}, sort_keys=True)


def parse_tolerance(text):
    """Parse 'rel' or 'rel,abs' into a Tolerance."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return Tolerance(rel=float(parts[0]))
        if len(parts) == 2:
            return Tolerance(rel=float(parts[0]), abs=float(parts[1]))
    except ValueError as exc:
        raise FormatError(f"bad tolerance {text!r}") from exc
    raise FormatError(f"bad tolerance {text!r} (want rel[,abs])")
