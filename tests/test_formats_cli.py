import json
import os
import subprocess
import sys

import pytest

import frechet_surfaces
from frechet_surfaces import Surface
from frechet_surfaces.cli import main
from frechet_surfaces.formats import (FormatError, curve_from_dict, load_surface,
                                      save_surface, parse_tolerance,
                                      surface_from_dict)
from .conftest import flat_surface, random_surface, translate_surface


def write_surface(path, surface):
    save_surface(surface, str(path))
    return str(path)


def write_curve(path, vertices, dim=2):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": dim, "vertices": vertices}, fh)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------

def test_surface_roundtrip(tmp_path, rng):
    s = random_surface(rng)
    p = write_surface(tmp_path / "s.json", s)
    s2 = load_surface(p)
    assert s2.param.triangles == s.param.triangles
    assert all(abs(a - b) < 1e-15
               for va, vb in zip(s2.image, s.image) for a, b in zip(va, vb))


def test_missing_field_rejected():
    with pytest.raises(FormatError):
        surface_from_dict({"dimension": 3, "param_vertices": []})


def test_bad_rational_rejected():
    def surface(pv0, iv0):
        return {"dimension": 2,
                "param_vertices": [pv0, [1, 0], [1, 1]],
                "triangles": [[0, 1, 2]],
                "image_vertices": [iv0, [1, 0], [1, 1]]}
    for doc in (surface(["0/0", "0"], [0, 0]),
                surface([0, 0], ["nan", 0]),
                surface([0, 0], [0, "abc"]),
                surface([0, 0], [None, 0])):
        with pytest.raises(FormatError):
            surface_from_dict(doc)
    for bad in ("nan", "abc", "1/0", None):
        with pytest.raises(FormatError):
            curve_from_dict({"dimension": 2, "vertices": [[0, 0], [bad, 1]]})


_SQUARE = {"dimension": 3,
           "param_vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "triangles": [[0, 1, 2], [0, 2, 3]],
           "image_vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}
_LINE = {"dimension": 2, "vertices": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("command, base, change", [
    ("validate", _SQUARE, {"dimension": "x"}),
    ("validate", _SQUARE, {"param_vertices": 5}),
    ("validate", _SQUARE, {"param_vertices": [None, [1, 0], [1, 1], [0, 1]]}),
    ("validate", _SQUARE, {"image_vertices": [None, [1, 0, 0], [1, 1, 0], [0, 1, 0]]}),
    ("validate", _SQUARE, {"triangles": None}),
    ("validate", _SQUARE, {"triangles": [["a", 1, 2], [0, 2, 3]]}),
    ("validate", _SQUARE, {"triangles": [[0, 1, 2.5], [0, 2, 3]]}),
    ("validate", _SQUARE, {"param_vertices": [], "image_vertices": []}),
    ("curve", _LINE, {"dimension": "x"}),
    ("curve", _LINE, {"dimension": 2.0}),
    ("curve", _LINE, {"vertices": 5}),
    ("curve", _LINE, {"vertices": [[0, 0], None]}),
    # a change that is not an object replaces the whole document
    ("validate", _SQUARE, [1, 2]),
    ("curve", _LINE, [1, 2]),
])
def test_malformed_document_exit_2(tmp_path, capsys, command, base, change):
    path = tmp_path / "doc.json"
    doc = {**base, **change} if isinstance(change, dict) else change
    path.write_text(json.dumps(doc))
    args = ["validate", str(path)] if command == "validate" else \
        ["curve", "compute", str(path), str(path)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    if not isinstance(change, dict):
        kind = "surface" if command == "validate" else "curve"
        assert f"a {kind} document must be a JSON object, got list" in err


def test_parse_tolerance():
    t = parse_tolerance("1e-8")
    assert t.rel == 1e-8
    t = parse_tolerance("1e-8,1e-10")
    assert t.abs == 1e-10
    with pytest.raises(FormatError):
        parse_tolerance("a,b")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_validate_ok_and_exit_codes(tmp_path, capsys):
    p = write_surface(tmp_path / "s.json", flat_surface())
    code, out, _ = run_cli(["validate", p], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["config"]["tolerance"]["rel"] == 1e-9
    assert json.loads(lines[1])["valid"] is True


@pytest.mark.parametrize("scale", [1e-100, 1e154])
def test_extreme_scale_reported_by_magnitude(tmp_path, capsys, scale):
    # the degeneracy test under- or overflows; the triangles are not degenerate
    p = write_surface(tmp_path / "s.json", flat_surface(scale=scale))
    code, out, _ = run_cli(["validate", p], capsys)
    assert code == 1
    violations = json.loads(out.strip().splitlines()[1])["violations"]
    assert violations == [
        f"image triangle {ti} spans {scale:.3g}, outside the range where its "
        f"degeneracy test can be evaluated in double precision" for ti in (0, 1)]
    code, _, err = run_cli(["decide", p, p, "--eps", "0"], capsys)
    assert code == 2
    assert violations[0] in err and "degenerate image" not in err


@pytest.mark.parametrize("scale", [1e-80, 1e150])
def test_large_and_small_scales_stay_valid(tmp_path, capsys, scale):
    p = write_surface(tmp_path / "s.json", flat_surface(scale=scale))
    code, out, _ = run_cli(["validate", p], capsys)
    assert code == 0
    assert json.loads(out.strip().splitlines()[1])["valid"] is True


def test_degenerate_tiny_triangle_still_degenerate(tmp_path, capsys):
    # a collinear image at 1e-100 is degenerate, not out of range
    param = flat_surface().param
    s = Surface.create(param, [(0.0, 0.0, 0.0), (1e-100, 0.0, 0.0),
                               (2e-100, 0.0, 0.0), (0.0, 1e-100, 0.0)])
    p = write_surface(tmp_path / "s.json", s)
    code, out, _ = run_cli(["validate", p], capsys)
    assert code == 1
    assert "degenerate image triangle at index 0" in out


@pytest.mark.parametrize("image", [
    # twice the area is 1.5 rel times the longest edge squared: the area
    # itself is below rel times it, as the numerics test it
    [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.5e-9, 0.0), (0.0, 1.0, 0.0)],
    # a needle at 1e150, whose raw cross product overflows
    [(0.0, 0.0, 0.0), (1e150, 0.0, 0.0), (1e150, 1e138, 0.0), (0.0, 1e150, 0.0)],
])
def test_validate_and_numerics_share_the_degeneracy_test(tmp_path, capsys, image):
    p = write_surface(tmp_path / "s.json", Surface.create(flat_surface().param, image))
    code, out, _ = run_cli(["validate", p], capsys)
    assert code == 1
    assert json.loads(out.strip().splitlines()[1])["violations"] == [
        "degenerate image triangle at index 0"]
    code, _, err = run_cli(["decide", p, p, "--eps", "0"], capsys)
    assert code == 2
    assert "degenerate image triangle at index 0" in err


def test_validate_invalid_exit_1(tmp_path, capsys):
    s = flat_surface()
    doc = {
        "dimension": 3,
        "param_vertices": [list(v) for v in s.param.vertices],
        "triangles": [[0, 1, 2]],  # half the square missing
        "image_vertices": [list(p) for p in s.image],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["validate", str(p)], capsys)
    assert code == 1
    assert json.loads(out.strip().splitlines()[1])["violations"]


def test_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run_cli(["validate", str(p)], capsys)
    assert code == 2
    assert "error" in err


def test_non_finite_eps_exit_2(tmp_path, capsys):
    pa = write_surface(tmp_path / "a.json", flat_surface())
    pc = write_curve(tmp_path / "c.json", [[0, 0], [1, 0]])
    svg = str(tmp_path / "out.svg")
    for args in (["decide", pa, pa], ["curve", "decide", pc, pc],
                 ["dump-svg", "arrangement", pa, pa, "--svg", svg]):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as exc:
                main(args + [f"--eps={bad}"])
            assert exc.value.code == 2
            assert "--eps" in capsys.readouterr().err


def test_non_finite_option_values_exit_2(tmp_path, capsys):
    pa = write_surface(tmp_path / "a.json", flat_surface())
    for args, option in ((["criticals", pa, pa, "--with-2c", "nan", "1"], "--with-2c"),
                         (["criticals", pa, pa, "--with-2c", "0", "inf"], "--with-2c"),
                         (["semi", pa, pa, "--budget-seconds", "nan"], "--budget-seconds"),
                         (["semi", pa, pa, "--budget-seconds", "inf"], "--budget-seconds")):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


@pytest.mark.parametrize("options", [["--budget-chainlen", "0"],
                                     ["--budget-pairs", "-1"],
                                     ["--budget-seconds", "-1"]])
def test_bad_semi_budget_exit_2(tmp_path, capsys, options):
    pa = write_surface(tmp_path / "a.json", flat_surface())
    code, out, err = run_cli(["semi", pa, pa] + options, capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(out.strip().splitlines()) == 1  # the header, no stream


def test_overflowing_distances_exit_3(tmp_path, capsys):
    f = flat_surface()
    pa = write_surface(tmp_path / "a.json", f)
    pb = write_surface(tmp_path / "b.json", translate_surface(f, (0.0, 0.0, 1e200)))
    for mode in ("exact", "bisect"):
        code, out, err = run_cli(["compute", pa, pb, "--mode", mode], capsys)
        assert code == 3, (mode, out)
        assert "numeric failure" in err


def test_decide_true_false(tmp_path, capsys):
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.5))
    pa = write_surface(tmp_path / "a.json", f)
    pb = write_surface(tmp_path / "b.json", g)
    code, out, _ = run_cli(["decide", pa, pa, "--eps", "0.0"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1] == "true"
    code, out, _ = run_cli(["decide", pa, pb, "--eps", "0.45"], capsys)
    assert code == 1
    assert out.strip().splitlines()[1] == "false"


def test_decide_witness_and_graph_dump(tmp_path, capsys):
    f = flat_surface()
    pa = write_surface(tmp_path / "a.json", f)
    gpath = tmp_path / "graph.txt"
    code, out, _ = run_cli(["decide", pa, pa, "--eps", "0.1", "--witness",
                            "--dump-graph", str(gpath)], capsys)
    assert code == 0
    w = json.loads(out.strip().splitlines()[2])
    assert w["witness_component"]
    text = gpath.read_text()
    assert "vertices" in text and "eps" in text


def test_unwritable_output_path_exit_2(tmp_path, capsys):
    # writing to a directory is an input error, not a "false" verdict
    pa = write_surface(tmp_path / "a.json", flat_surface())
    for args in (["decide", pa, pa, "--eps", "3", "--dump-graph", str(tmp_path)],
                 ["dump-svg", "arrangement", pa, pa, "--eps", "3",
                  "--svg", str(tmp_path)]):
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert err.startswith("error: "), err


def test_compute_json_and_byte_stability(tmp_path, capsys):
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.25))
    pa = write_surface(tmp_path / "a.json", f)
    pb = write_surface(tmp_path / "b.json", g)
    code, out1, _ = run_cli(["compute", pa, pb, "--mode", "exact"], capsys)
    assert code == 0
    res = json.loads(out1.strip().splitlines()[1])
    assert abs(res["distance"] - 0.25) < 1e-9
    assert res["mode"] == "exact"
    assert res["witness_component"]
    code, out2, _ = run_cli(["compute", pa, pb, "--mode", "exact"], capsys)
    assert out1 == out2  # determinism contract
    code, out3, _ = run_cli(["compute", pa, pb, "--mode", "bisect"], capsys)
    res3 = json.loads(out3.strip().splitlines()[1])
    assert abs(res3["distance"] - 0.25) < 1e-9


def test_criticals_output(tmp_path, capsys):
    f = flat_surface()
    g = translate_surface(f, (0.0, 0.0, 0.4))
    pa = write_surface(tmp_path / "a.json", f)
    pb = write_surface(tmp_path / "b.json", g)
    code, out, _ = run_cli(["criticals", pa, pb], capsys)
    assert code == 0
    doc = json.loads(out.strip().splitlines()[1])
    vals = doc["criticals"]
    assert vals == sorted(vals, key=lambda c: (c["value"], c["kind"]))
    kinds_at_h = {c["kind"] for c in vals if abs(c["value"] - 0.4) < 1e-9}
    assert {"T2a", "T2d"} <= kinds_at_h
    code, out, _ = run_cli(["criticals", pa, pa], capsys)
    doc = json.loads(out.strip().splitlines()[1])
    assert any(c["kind"] == "T1" and c["value"] <= 1e-12 for c in doc["criticals"])


def test_criticals_with_2c(tmp_path, capsys):
    from .test_criticals import make_symmetric_2c_instance
    fq, g = make_symmetric_2c_instance()
    pa = write_surface(tmp_path / "a.json", fq)
    pb = write_surface(tmp_path / "b.json", g)
    code, out, _ = run_cli(["criticals", pa, pb, "--with-2c", "0", "3"], capsys)
    assert code == 0
    doc = json.loads(out.strip().splitlines()[1])
    assert any(c["kind"] == "T2c" for c in doc["criticals"])


def test_criticals_with_2c_rejects_empty_range(tmp_path, capsys):
    pa = write_surface(tmp_path / "a.json", flat_surface())
    code, out, err = run_cli(["criticals", pa, pa, "--with-2c", "3", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "LO <= HI" in err


def test_semi_stream(tmp_path, capsys):
    f = flat_surface()
    pa = write_surface(tmp_path / "a.json", f)
    code, out, _ = run_cli(["semi", pa, pa, "--budget-pairs", "5",
                            "--budget-candidates", "1",
                            "--budget-chainlen", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines
    vals = [json.loads(l) for l in lines]
    vs = [v["value"] for v in vals]
    assert vs == sorted(vs, reverse=True)
    assert all(set(v) == {"value", "m", "n", "candidate"} for v in vals)


def test_curve_commands(tmp_path, capsys):
    pa = write_curve(tmp_path / "c1.json", [[0, 0], [1, 0]])
    pb = write_curve(tmp_path / "c2.json", [[0, 1], [1, 1]])
    code, out, _ = run_cli(["curve", "compute", pa, pb], capsys)
    assert code == 0
    doc = json.loads(out.strip().splitlines()[1])
    assert abs(doc["distance"] - 1.0) < 1e-9
    code, out, _ = run_cli(["curve", "compute", pa, pa, "--variant", "weak"],
                           capsys)
    doc = json.loads(out.strip().splitlines()[1])
    assert doc["distance"] <= 1e-12
    code, _, _ = run_cli(["curve", "decide", pa, pb, "--eps", "0.5"], capsys)
    assert code == 1
    code, _, _ = run_cli(["curve", "decide", pa, pb, "--eps", "1.0"], capsys)
    assert code == 0


def test_curve_commands_reject_mixed_dimension(tmp_path, capsys):
    pa = write_curve(tmp_path / "c2.json", [[0, 0], [1, 0]])
    pb = write_curve(tmp_path / "c3.json", [[0, 0, 5], [1, 0, 5]], dim=3)
    out_svg = tmp_path / "fs.svg"
    for args in (["curve", "compute", pa, pb],
                 ["curve", "compute", pb, pa, "--variant", "weak"],
                 ["curve", "decide", pa, pb, "--eps", "0.1"],
                 ["dump-svg", "curve-freespace", pa, pb, "--eps", "0.1",
                  "--svg", str(out_svg)]):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert err.startswith("error:") and "dimension" in err, err
        assert "distance" not in out and "true" not in out
    assert not out_svg.exists()


def test_dump_svg_curve(tmp_path, capsys):
    import xml.etree.ElementTree as ET
    pa = write_curve(tmp_path / "c1.json", [[0, 0], [1, 0], [2, 1]])
    pb = write_curve(tmp_path / "c2.json", [[0, 0.5], [2, 0.5]])
    out_svg = tmp_path / "fs.svg"
    code, _, _ = run_cli(["dump-svg", "curve-freespace", pa, pb,
                          "--eps", "0.7", "--svg", str(out_svg)], capsys)
    assert code == 0
    root = ET.parse(out_svg).getroot()
    assert root.tag.endswith("svg")
    # one shaded cell grid: n*m cells exist as grid lines; free samples drawn
    frees = [el for el in root.iter() if el.get("class") == "free"]
    assert frees


def test_dump_svg_arrangement_face_count(tmp_path, capsys):
    import xml.etree.ElementTree as ET
    f = flat_surface()
    g = translate_surface(f, (0.3, 0.1, 0.2))
    pa = write_surface(tmp_path / "a.json", f)
    pb = write_surface(tmp_path / "b.json", g)
    out_svg = tmp_path / "arr.svg"
    code, _, _ = run_cli(["dump-svg", "arrangement", pa, pb, "--eps", "0.4",
                          "--k-tri", "0", "--svg", str(out_svg)], capsys)
    assert code == 0
    root = ET.parse(out_svg).getroot()
    dots = [el.get("fill") for el in root.iter() if el.get("class") == "face"]
    # the dump draws every face of the arrangement, coloured by its verdict
    from frechet_surfaces.coverage import arrangement, triangle_covered
    partners = list(range(g.n_triangles))
    _, _, faces = arrangement(f.image_triangle(0),
                              [g.image_triangle(l) for l in partners], 0.4)
    assert len(dots) == len(list(faces))
    assert dots
    assert ("#c22" not in dots) == triangle_covered(f, g, 0, partners, 0.4)


def test_decide_matches_library_on_random_pairs(tmp_path, capsys, rng):
    from frechet_surfaces import decide
    for i in range(3):
        f = random_surface(rng, tri_range=(4, 6))
        g = random_surface(rng, tri_range=(4, 6))
        pa = write_surface(tmp_path / f"ra{i}.json", f)
        pb = write_surface(tmp_path / f"rb{i}.json", g)
        eps = float(rng.uniform(0.1, 1.5))
        code, out, _ = run_cli(["decide", pa, pb, "--eps", str(eps)], capsys)
        verdict = out.strip().splitlines()[1] == "true"
        assert verdict == decide(f, g, eps)[0]
        assert code == (0 if verdict else 1)


def test_tolerance_flag_effective(tmp_path, capsys):
    f = flat_surface()
    pa = write_surface(tmp_path / "a.json", f)
    code, out, _ = run_cli(["--tolerance", "1e-6,1e-9", "validate", pa], capsys)
    assert code == 0
    cfg = json.loads(out.strip().splitlines()[0])["config"]
    assert sorted(cfg) == ["budget", "mode", "svg", "tolerance"]
    assert cfg["tolerance"]["rel"] == 1e-6
    assert cfg["tolerance"]["abs"] == 1e-9


def test_console_entry_point(tmp_path):
    s = flat_surface()
    p = tmp_path / "s.json"
    save_surface(s, str(p))
    # the child finds the package where this process imported it from
    package_parent = os.path.dirname(os.path.dirname(frechet_surfaces.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_parent + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "frechet_surfaces.cli",
                           "validate", str(p)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "true" in proc.stdout.lower() or "valid" in proc.stdout
