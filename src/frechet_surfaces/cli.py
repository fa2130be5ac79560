"""Command line interface.

Exit codes: 0 success (or decision "true"), 1 decision "false" / invalid
surface, 2 input or usage error, 3 internal numeric failure.  Every command
prints a JSON header line echoing the effective configuration; outputs are
byte-stable for identical inputs and configuration.
"""

import argparse
import json
import math
import sys

from .scalar import DEFAULT_TOL
from . import decision, curves
from .coverage import arrangement_svg
from .criticals import critical_values_C1, critical_values_2c
from .formats import (FormatError, RunConfig, load_curve, load_surface,
                      parse_tolerance)
from .freespace import PairGeometry, build_graph
from .geometry import GeometryError
from .semifrechet import Budget, semi_compute_stream
from .surface import ValidationError, require_valid, validate


def _finite_float(text):
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return val


def build_parser():
    p = argparse.ArgumentParser(
        prog="frechet-surf",
        description="Weak Fréchet distance between triangulated surfaces, "
                    "plus curve tools and Fréchet upper-bound streams.")
    p.add_argument("--tolerance", default=None, metavar="REL[,ABS]",
                   help="comparison tolerance (default 1e-9,1e-12)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a surface file")
    sp.add_argument("file")

    sp = sub.add_parser("decide", help="decide weak Fréchet distance <= eps")
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--witness", action="store_true",
                    help="also print the witness component JSON")
    sp.add_argument("--dump-graph", metavar="PATH",
                    help="write the free-space graph adjacency list")

    sp = sub.add_parser("compute", help="compute the weak Fréchet distance")
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--mode", choices=["exact", "bisect"], default="exact")

    sp = sub.add_parser("criticals", help="enumerate critical values")
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--with-2c", nargs=2, type=_finite_float, metavar=("LO", "HI"),
                    default=None, help="also enumerate type-2c values in [LO, HI]")

    sp = sub.add_parser("semi", help="stream decreasing Fréchet upper bounds")
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--budget-pairs", type=int, default=4)
    sp.add_argument("--budget-candidates", type=int, default=64)
    sp.add_argument("--budget-chainlen", type=int, default=3)
    sp.add_argument("--budget-seconds", type=_finite_float, default=None)
    sp.add_argument("--pairs-m-2m", action="store_true",
                    help="enumerate only subdivision pairs (m, 2m)")

    sp = sub.add_parser("curve", help="polygonal curve decisions and distances")
    sp.add_argument("action", choices=["decide", "compute"])
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--variant", choices=["frechet", "weak"], default="frechet")
    sp.add_argument("--eps", type=_finite_float, default=None)

    sp = sub.add_parser("dump-svg", help="write debugging SVGs")
    sp.add_argument("what", choices=["curve-freespace", "arrangement"])
    sp.add_argument("fileA")
    sp.add_argument("fileB")
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--k-tri", type=int, default=0,
                    help="triangle index of surface A (arrangement mode)")
    sp.add_argument("--svg", required=True, metavar="PATH")
    return p


def _load_two_surfaces(args, tol):
    f = load_surface(args.fileA)
    g = load_surface(args.fileB)
    require_valid(f, tol)
    require_valid(g, tol)
    return f, g


def _load_two_curves(args):
    f = load_curve(args.fileA)
    g = load_curve(args.fileB)
    try:
        curves.require_same_dimension(f, g)
    except ValueError as exc:
        raise FormatError(f"{args.fileA}, {args.fileB}: {exc}") from exc
    return f, g


def run(argv=None):
    args = build_parser().parse_args(argv)
    tol = parse_tolerance(args.tolerance) if args.tolerance else DEFAULT_TOL
    cfg = RunConfig(tolerance=tol)

    if args.command == "validate":
        print(cfg.header_json())
        surf = load_surface(args.file)
        report = validate(surf, tol)
        print(json.dumps({"valid": not report, "violations": report}, sort_keys=True))
        return 0 if not report else 1

    if args.command == "decide":
        print(cfg.header_json())
        f, g = _load_two_surfaces(args, tol)
        geometry = PairGeometry(f, g, tol)
        ok, witness = decision.decide(f, g, args.eps, tol, validated=True,
                                      geometry=geometry)
        if args.dump_graph:
            graph = build_graph(f, g, args.eps, tol, geometry)
            with open(args.dump_graph, "w", encoding="utf-8") as fh:
                fh.write(graph.adjacency_text())
        print("true" if ok else "false")
        if args.witness:
            print(json.dumps(
                {"witness_component": [list(c) for c in (witness or [])]},
                sort_keys=True))
        return 0 if ok else 1

    if args.command == "compute":
        cfg.mode = args.mode
        print(cfg.header_json())
        f, g = _load_two_surfaces(args, tol)
        res = decision.compute(f, g, mode=args.mode, tol=tol)
        print(json.dumps(res.as_dict(), sort_keys=True))
        return 0

    if args.command == "criticals":
        if args.with_2c is not None and args.with_2c[0] > args.with_2c[1]:
            raise FormatError("--with-2c needs LO <= HI")
        print(cfg.header_json())
        f, g = _load_two_surfaces(args, tol)
        geometry = PairGeometry(f, g, tol)
        vals = critical_values_C1(f, g, tol, geometry=geometry)
        if args.with_2c is not None:
            lo, hi = args.with_2c
            vals = sorted(vals + critical_values_2c(f, g, lo, hi, tol,
                                                    geometry=geometry),
                          key=lambda c: (c.value, c.kind))
        print(json.dumps({"criticals": [cv.as_dict() for cv in vals]},
                         sort_keys=True))
        return 0

    if args.command == "semi":
        cfg.budget_pairs = args.budget_pairs
        cfg.budget_candidates = args.budget_candidates
        cfg.budget_chainlen = args.budget_chainlen
        cfg.pairs_m_2m = args.pairs_m_2m
        print(cfg.header_json())
        f, g = _load_two_surfaces(args, tol)
        try:
            budget = Budget(max_pairs=args.budget_pairs,
                            max_candidates_per_pair=args.budget_candidates,
                            max_chain_len=args.budget_chainlen,
                            wall_clock_s=args.budget_seconds,
                            pairs_m_2m=args.pairs_m_2m)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        for (val, m, n, idx) in semi_compute_stream(f, g, budget, tol):
            print(json.dumps({"value": val, "m": m, "n": n, "candidate": idx},
                             sort_keys=True))
            sys.stdout.flush()
        return 0

    if args.command == "curve":
        print(cfg.header_json())
        f, g = _load_two_curves(args)
        if args.action == "decide":
            if args.eps is None:
                raise FormatError("curve decide needs --eps")
            dec = (curves.curve_decide_frechet if args.variant == "frechet"
                   else curves.curve_decide_weak)
            ok = dec(f, g, args.eps, tol)
            print("true" if ok else "false")
            return 0 if ok else 1
        val = curves.curve_compute(f, g, args.variant, tol)
        print(json.dumps({"distance": val, "variant": args.variant}, sort_keys=True))
        return 0

    if args.command == "dump-svg":
        cfg.svg = args.svg
        print(cfg.header_json())
        if args.what == "curve-freespace":
            f, g = _load_two_curves(args)
            curves.curve_freespace_svg(f, g, args.eps, args.svg)
        else:
            f, g = _load_two_surfaces(args, tol)
            if not (0 <= args.k_tri < f.n_triangles):
                raise FormatError(f"--k-tri {args.k_tri} out of range")
            partners = list(range(g.n_triangles))
            arrangement_svg(f, g, args.k_tri, partners, args.eps, args.svg, tol)
        print(json.dumps({"written": args.svg}, sort_keys=True))
        return 0

    raise FormatError(f"unknown command {args.command!r}")


def main(argv=None):
    try:
        code = run(argv)
    except (FormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ArithmeticError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
