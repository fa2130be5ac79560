"""Rewrite the golden CLI corpus under tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

Saves two surface pairs as surface JSON: the criterion-11 grid pair at
T = 8 and the first sandwich pair of the benchmark at seed 0.  For each
pair it records the exit code and standard output of `decide --witness
--dump-graph` at 0.9, 1.0 and 1.1 times the exact distance (with the graph
file), `compute` in both modes and `criticals`, by running the CLI
in-process.  tests/test_golden.py replays every case and compares bytes, so
rerun this script only when an output is meant to change.  No case solves
type-2c rows, whose companion-matrix eigenvalues come from LAPACK and may
differ in the last bits between CPUs.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = GOLDEN / "cases.json"


def run_case(argv, graph_path):
    """(exit code, stdout) of the CLI on `argv`, with `{golden}` standing for
    the corpus directory and `{graph}` for the path of the dumped graph."""
    from frechet_surfaces.cli import main
    argv = [a.replace("{golden}", str(GOLDEN)).replace("{graph}", str(graph_path))
            for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _pairs():
    """name -> (f, g) of the corpus inputs."""
    sys.path.append(str(GOLDEN.parent.parent / "bench"))
    from conftest import bumped_grid_surface
    import workloads
    return {"grid8": (bumped_grid_surface(2, 2, 0.25, (0.0, 0.0, 0.0)),
                      bumped_grid_surface(2, 2, 0.20, (0.05, -0.04, 0.3))),
            "sandwich": workloads.sandwich_pairs(0)[0]}


def main():
    from frechet_surfaces import MODE_EXACT, compute
    from frechet_surfaces.formats import save_surface
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    cases = []
    for name, (f, g) in _pairs().items():
        save_surface(f, str(GOLDEN / f"{name}_f.json"))
        save_surface(g, str(GOLDEN / f"{name}_g.json"))
        files = [f"{{golden}}/{name}_f.json", f"{{golden}}/{name}_g.json"]
        distance = compute(f, g, MODE_EXACT).distance
        for tag, scale in (("below", 0.9), ("at", 1.0), ("above", 1.1)):
            cases.append({"name": f"{name}.decide_{tag}",
                          "argv": ["decide", *files, "--eps", repr(scale * distance),
                                   "--witness", "--dump-graph", "{graph}"]})
        for mode in ("exact", "bisect"):
            cases.append({"name": f"{name}.compute_{mode}",
                          "argv": ["compute", *files, "--mode", mode]})
        cases.append({"name": f"{name}.criticals", "argv": ["criticals", *files]})
    for case in cases:
        graph = GOLDEN / f"{case['name']}.graph"
        case["code"], stdout = run_case(case["argv"], graph)
        (GOLDEN / f"{case['name']}.stdout").write_text(stdout, encoding="utf-8")
    CASES.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
