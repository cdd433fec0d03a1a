"""The fingerprinted solves and model checks of ``tools/fingerprint.py``
against the baseline committed beside it.  A solve must reach equal
decisions (tag, Newton iterations, certificate reason and, per log entry,
phase, gauge, lgmres convergence and fallback reason), a model the same
``classify`` tag, and each headline float must lie within 1e-12 of the
baseline.  A change that moves these results on purpose regenerates the
baseline with
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
    assert sorted(runs) == sorted(BASELINE["solves"])


@pytest.mark.parametrize("name", list(BASELINE["solves"]))
def test_solve_matches_the_baseline(runs, name):
    model, start, options = runs[name]
    outcome = fingerprint.run_solve(tb, model, start, options)
    want = BASELINE["solves"][name]
    # JSON holds the log entries as lists
    assert json.loads(json.dumps(fingerprint.decisions(outcome))) == want["decisions"]
    assert fingerprint.headlines(tb, model, outcome) == pytest.approx(
        want["floats"], rel=0.0, abs=1e-12
    )


@pytest.fixture(scope="module")
def models():
    return fingerprint.baseline_models(tb)


def test_every_default_model_has_a_baseline(models):
    assert sorted(models) == sorted(BASELINE["models"])


@pytest.mark.parametrize("name", list(BASELINE["models"]))
def test_model_checks_match_the_baseline(models, name):
    got = fingerprint.model_checks(tb, models[name])
    want = BASELINE["models"][name]
    assert got["tag"] == want["tag"]
    assert got["floats"] == pytest.approx(want["floats"], rel=0.0, abs=1e-12)
