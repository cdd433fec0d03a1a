"""The fingerprinted solves of ``tools/fingerprint.py`` against the baseline
committed beside it: equal decisions (tag, Newton iterations, certificate
reason and, per log entry, phase, gauge, lgmres convergence and fallback
reason), and each headline float within 1e-12 of the baseline.  A change
that moves a solve's results on purpose regenerates the baseline with
``python3 tools/fingerprint.py --solve-baseline tools/solve_baseline.json``
in the same commit."""

import importlib.util
import json
from pathlib import Path

import pytest

import twistbench as tb

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOLS / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)
BASELINE = json.loads((TOOLS / "solve_baseline.json").read_text())


@pytest.fixture(scope="module")
def runs():
    return fingerprint.solve_runs(tb)


def test_every_fingerprinted_solve_has_a_baseline(runs):
    assert sorted(runs) == sorted(BASELINE)


@pytest.mark.parametrize("name", list(BASELINE))
def test_solve_matches_the_baseline(runs, name):
    model, start, options = runs[name]
    outcome = fingerprint.run_solve(tb, model, start, options)
    want = BASELINE[name]
    # JSON holds the log entries as lists
    assert json.loads(json.dumps(fingerprint.decisions(outcome))) == want["decisions"]
    assert fingerprint.headlines(tb, model, outcome) == pytest.approx(
        want["floats"], rel=0.0, abs=1e-12
    )
