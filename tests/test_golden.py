"""The CLI's bytes on the golden corpus of tests/golden/ (see make_golden.py):
every case gives the recorded exit code, standard output and graph file."""

import json

import pytest

from .make_golden import CASES, GOLDEN, run_case

_CASES = json.loads(CASES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_cli_output_matches_golden_bytes(case, tmp_path):
    graph = tmp_path / "graph.txt"
    code, stdout = run_case(case["argv"], graph)
    assert code == case["code"]
    assert stdout == (GOLDEN / f"{case['name']}.stdout").read_text(encoding="utf-8")
    expected_graph = GOLDEN / f"{case['name']}.graph"
    if expected_graph.exists():
        assert graph.read_bytes() == expected_graph.read_bytes()
    else:
        assert not graph.exists()
