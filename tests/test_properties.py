"""Property tests of the file readers and the command line.

Hypothesis generates surface and curve documents, most of them valid ones
with a few fields broken, and option strings for every command.  Each run
of `cli.main` happens in-process and must end in a documented exit code
(0, 1, 2 or 3) without a traceback; a run that succeeds must print what the
library gives for the same input.  The examples are derandomized and their
number is fixed, so the suite stays deterministic.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from frechet_surfaces import (Budget, compute, critical_values_C1, curve_compute,
                              curve_decide_frechet, curve_decide_weak, decide,
                              load_curve, load_surface, semi_compute_stream,
                              validate)
from frechet_surfaces.cli import main
from frechet_surfaces.formats import parse_tolerance
from frechet_surfaces.scalar import DEFAULT_TOL

EXIT_CODES = {0, 1, 2, 3}


def examples(n):
    return settings(derandomize=True, max_examples=n, deadline=None,
                    database=None)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from(["", "x", "1/2", "0/0", "1/0", "nan", "-3"]),
                 st.lists(st.integers(-1, 4), max_size=4), st.just({}))


def _grid_doc(rows, cols, dim, coords):
    """A grid triangulation of the square, its image the identity lifted by
    the drawn offsets."""
    param = [[i / cols, j / rows] for j in range(rows + 1) for i in range(cols + 1)]
    tris = []
    for j in range(rows):
        for i in range(cols):
            a = j * (cols + 1) + i
            tris += [[a, a + 1, a + cols + 2], [a, a + cols + 2, a + cols + 1]]
    image = [[x + coords[3 * n], y + coords[3 * n + 1]] + [coords[3 * n + 2]] * (dim - 2)
             for n, (x, y) in enumerate(param)]
    return {"dimension": dim, "param_vertices": param, "triangles": tris,
            "image_vertices": image}


def _mutate(draw, doc):
    """Break one part of a document: a field, an entry or a coordinate."""
    key = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(["field", "drop", "entry", "coordinate", "append"]))
    value = doc[key]
    if kind == "field":
        doc[key] = draw(JUNK)
    elif kind == "drop":
        del doc[key]
    elif isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        if kind == "entry":
            value[i] = draw(JUNK)
        elif kind == "append":
            value.append(draw(JUNK))
        elif isinstance(value[i], list) and value[i]:
            value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(JUNK)


@st.composite
def surface_documents(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = (rows + 1) * (cols + 1)
    coords = draw(st.lists(st.floats(-0.2, 0.2), min_size=3 * n, max_size=3 * n))
    doc = _grid_doc(rows, cols, draw(st.sampled_from([2, 3])), coords)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _mutate(draw, doc)
    return doc


@st.composite
def curve_documents(draw):
    dim = draw(st.sampled_from([2, 3]))
    verts = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim),
                          min_size=1, max_size=5))
    doc = {"dimension": dim, "vertices": verts}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _mutate(draw, doc)
    return doc


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; argparse usage
    errors end in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue().splitlines(), err.getvalue()


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

@examples(80)
@given(doc=surface_documents(), eps=st.floats(0.0, 1.0))
def test_surface_documents_validate_and_decide(doc, eps):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "s.json", doc)
        code, out, _ = run_main(["validate", path])
        if code in (0, 1) and len(out) == 2:
            report = validate(load_surface(path))
            assert json.loads(out[1]) == {"valid": not report, "violations": report}
            assert code == (0 if not report else 1)
        code, out, _ = run_main(["decide", path, path, "--eps", repr(eps)])
        if code in (0, 1):
            f = load_surface(path)
            assert out[1] == ("true" if decide(f, f, eps)[0] else "false")
            assert code == (0 if out[1] == "true" else 1)


@examples(100)
@given(a=curve_documents(), b=curve_documents(), eps=st.floats(0.0, 3.0),
       variant=st.sampled_from(["frechet", "weak"]))
def test_curve_documents_decide_and_compute(a, b, eps, variant):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = _write(tmp, "a.json", a), _write(tmp, "b.json", b)
        code, out, _ = run_main(["curve", "decide", pa, pb, "--eps", repr(eps),
                                 "--variant", variant])
        if code in (0, 1):
            dec = curve_decide_frechet if variant == "frechet" else curve_decide_weak
            assert out[1] == ("true" if dec(load_curve(pa), load_curve(pb), eps)
                              else "false")
        code, out, _ = run_main(["curve", "compute", pa, pb, "--variant", variant])
        if code == 0:
            val = curve_compute(load_curve(pa), load_curve(pb), variant)
            assert json.loads(out[1]) == {"distance": val, "variant": variant}


# ---------------------------------------------------------------------------
# option strings
# ---------------------------------------------------------------------------

NUMBER_TEXT = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.integers(-3, 8).map(str),
                        st.sampled_from(["", "x", "1e400", "-0", "0.3"]))
TOLERANCE_TEXT = st.sampled_from(["1e-9", "1e-6,1e-9", "1e-12", "a,b", "1,2,3",
                                  "0.5", "nan", "-1"])
OPTIONS = {
    "decide": ["--eps", "--witness"],
    "compute": ["--mode"],
    "criticals": ["--with-2c"],
    "semi": ["--budget-pairs", "--budget-candidates", "--budget-chainlen",
             "--budget-seconds", "--pairs-m-2m"],
    "dump-svg": ["--eps", "--k-tri"],
}
FLAGS = {"--witness", "--pairs-m-2m"}
VALUE_TEXT = {"--mode": st.sampled_from(["exact", "bisect", "fast"]),
              "--budget-pairs": st.sampled_from(["0", "1", "2", "-1", "x"]),
              "--budget-candidates": st.sampled_from(["0", "1", "4", "-2"]),
              "--budget-chainlen": st.sampled_from(["0", "1", "2", "9"]),
              "--k-tri": st.sampled_from(["0", "1", "7", "-1", "x"])}

# two small surfaces a weak distance of about 0.22 apart: a flat square and
# the same square lifted and shifted
SQUARE = _grid_doc(1, 1, 3, [0.0] * 12)
LIFTED = _grid_doc(1, 1, 3, [0.1, 0.0, 0.2] * 4)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = []
    if draw(st.booleans()):
        argv += ["--tolerance", draw(TOLERANCE_TEXT)]
    argv += [command] + (["arrangement"] if command == "dump-svg" else [])
    argv += ["A", "B"]
    for option in draw(st.lists(st.sampled_from(OPTIONS[command]), unique=True)):
        argv.append(option)
        if option == "--with-2c":
            argv += [draw(NUMBER_TEXT), draw(NUMBER_TEXT)]
        elif option not in FLAGS:
            argv.append(draw(VALUE_TEXT.get(option, NUMBER_TEXT)))
    return argv


def _library_lines(argv, f, g):
    """The result lines the library gives for a command line the CLI ran
    successfully (after its header), or None where no cheap check exists."""
    opts = dict(zip(argv, argv[1:]))
    tol = parse_tolerance(opts["--tolerance"]) if "--tolerance" in opts else DEFAULT_TOL
    if "decide" in argv:
        ok, witness = decide(f, g, float(opts["--eps"]), tol)
        lines = ["true" if ok else "false"]
        if "--witness" in argv:
            lines.append(json.dumps(
                {"witness_component": [list(c) for c in (witness or [])]},
                sort_keys=True))
        return lines
    if "compute" in argv:
        res = compute(f, g, mode=opts.get("--mode", "exact"), tol=tol)
        return [json.dumps(res.as_dict(), sort_keys=True)]
    if "criticals" in argv and "--with-2c" not in argv:
        vals = critical_values_C1(f, g, tol)
        return [json.dumps({"criticals": [cv.as_dict() for cv in vals]},
                           sort_keys=True)]
    if "semi" in argv:
        budget = Budget(max_pairs=int(opts.get("--budget-pairs", 4)),
                        max_candidates_per_pair=int(opts.get("--budget-candidates", 64)),
                        max_chain_len=int(opts.get("--budget-chainlen", 3)),
                        wall_clock_s=None, pairs_m_2m="--pairs-m-2m" in argv)
        return [json.dumps({"value": v, "m": m, "n": n, "candidate": i}, sort_keys=True)
                for v, m, n, i in semi_compute_stream(f, g, budget, tol)]
    return None


@examples(100)
@given(argv=command_lines())
def test_option_strings(argv):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = _write(tmp, "a.json", SQUARE), _write(tmp, "b.json", LIFTED)
        argv = [pa if a == "A" else pb if a == "B" else a for a in argv]
        if "dump-svg" in argv:
            argv += ["--svg", os.path.join(tmp, "out.svg")]
        code, out, _ = run_main(argv)
        if code == 0 and "--budget-seconds" not in argv:
            expected = _library_lines(argv, load_surface(pa), load_surface(pb))
            if expected is not None:
                assert out[1:] == expected, argv
        if code == 0 and "dump-svg" in argv:
            assert os.path.getsize(argv[-1]) > 0
        if code == 1:
            assert "decide" in argv and out[1] == "false"
