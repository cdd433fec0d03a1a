"""The schema's accept/reject verdict on a fixed corpus of config mutations.

The corpus is regenerated from a few desk configs that together cover every
task, twist family, time-profile kind, initializer kind and metric family:
at every path a value is set (to a fixed pool of values, and to each name of
the matching tag), deleted, or a key or item is added.  Each verdict is
compared with the committed string in ``config_verdicts.txt``, one character
per mutation (``1`` accepted, ``0`` refused), so a change to how the schema
is written cannot change what it accepts.  Every accepted config is also
resolved, and its resolved dict must resolve to itself, as it is and after
a trip through JSON.  After a deliberate change to what configs are valid,
rewrite the file with

    PYTHONPATH=src python tests/test_config_corpus.py > tests/config_verdicts.txt
"""

import copy
import json
import sys
from pathlib import Path

from twistbench import ConfigError
from twistbench import config as config_mod

VERDICTS = Path(__file__).with_name("config_verdicts.txt")

_S1 = {"modes": [{"coeff": 1.0, "wavevec": [1]}]}


def _config(task, dim, twist, block=None, metric=None):
    fiber = {"dim": dim, "periods": [1.0] * dim, "resolution": [{1: 128, 2: 64, 3: 16}[dim]] * dim}
    if metric is not None:
        fiber["metric"] = metric
    cfg = {
        "task": task,
        "seed": 3,
        "spacetime": {"interval": [-1.5, 1.5], "fiber": fiber, "twist": twist},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    if block is not None:
        cfg[task] = block
    return cfg


DESK_CONFIGS = [
    _config(
        "geometry", 1,
        {"family": "separable", "g": {"kind": "gauss"}, "eps": 0.1, "s": _S1},
        {"initializer": {"kind": "constant", "value": 0.1}},
        metric={"family": "flat"},
    ),
    _config(
        "solve", 1,
        {"family": "separable", "g": {"kind": "exp", "params": {"rate": 1.0}}, "eps": 0.1, "s": _S1},
        {
            "initializer": {"kind": "random_trig", "seed": 7, "center": 0.3, "amplitude": 0.1,
                            "max_mode": 2, "n_modes": 3, "rescale": True},
            "target": 0.0,
            "residual_tol": 1e-10,
            "check_certificate": False,
            "drift_window": 20,
        },
    ),
    _config(
        "solve", 2,
        {
            "family": "additive",
            "g": {"kind": "cosh"},
            "eps": 0.1,
            "s": {"modes": [{"coeff": 1.0, "wavevec": [1, 0]},
                            {"coeff": 0.5, "wavevec": [1, 2], "phase": 0.3}]},
            "q": {"kind": "linear", "params": {"a": 2.0, "b": 0.25}},
        },
        {"initializer": {"kind": "random_trig", "amplitude": 0.1}, "target": "generalized"},
        metric={"family": "diag_trig",
                "axes": [{"offset": 1.0, "modes": [{"coeff": 0.2, "wavevec": [1, 0]}]}, None]},
    ),
    _config(
        "verify", 3,
        {"family": "pure_time", "g": {"kind": "constant", "params": {"c": 1.0}}},
        {"corpus_count": 5, "amplitude": 0.05, "identities": ["det_two_path", "static_main"],
         "thresholds": {"static_main": 0.3}},
    ),
    _config(
        "convergence", 1,
        {"family": "traveling", "amp": 0.3, "period": 1.0},
        {"quantities": ["laplacian_tau_two_path"], "corpus_count": 3, "amplitude": 0.05,
         "factors": [1, 2, 4], "min_order": 1.9},
    ),
]

# what a value is set to: each JSON type, and the integers and reals either
# side of the schema's bounds; an object or array only to other types
_VALUES = [None, True, 0, 1, 2, 8, -1, 0.5, "x"]
_CONTAINER_VALUES = [None, [], {}]

# the names a tag or an enum may take, by the key that holds them
_NAMES = {
    "task": ["geometry", "solve", "verify", "convergence"],
    "family": ["pure_time", "separable", "additive", "traveling", "flat", "diag_trig"],
    "kind": ["constant", "linear", "exp", "cosh", "sech", "gauss", "random_trig"],
}

# the keys added to every object, each with a value it could take somewhere
_ADDED = {
    "surprise": 1,
    "value": 0.2,
    "params": {},
    "q": {"kind": "exp"},
    "c": 0.5,
    "amplitud": 0.1,
    "margin_cap": 0.1,
    "axes": [None],
}


def _nodes(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _edit(base, path, edit):
    doc = json.loads(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return doc


def _setter(value):
    def edit(parent, key):
        parent[key] = copy.deepcopy(value)
    return edit


def _inserter(value):
    def edit(parent, key):
        parent.insert(key, copy.deepcopy(value))
    return edit


def _delete(parent, key):
    del parent[key]


def mutations():
    """(label, config) for every mutation of every desk config, in a fixed order."""
    for n, raw in enumerate(DESK_CONFIGS):
        base = json.dumps(raw)
        for path, node in _nodes(raw):
            where = f"{n}:" + "/".join(map(str, path))
            if path:
                values = _CONTAINER_VALUES if isinstance(node, (dict, list)) else _VALUES
                values = values + _NAMES.get(path[-1], [])
                for value in values:
                    yield f"set {where}={value!r}", _edit(base, path, _setter(value))
                yield f"delete {where}", _edit(base, path, _delete)
            if isinstance(node, dict):
                for key, value in _ADDED.items():
                    if key not in node:
                        yield f"add {where}/{key}", _edit(base, path + (key,), _setter(value))
            elif isinstance(node, list) and path:
                for value in (copy.deepcopy(node[-1]) if node else 1, None):
                    yield f"append {where}={value!r}", _edit(base, path + (len(node),), _inserter(value))


def verdicts(cases):
    """One character per case: 1 where ``validate`` accepts its config, 0
    where it raises ConfigError."""
    marks = []
    for _, raw in cases:
        try:
            config_mod.validate(raw)
        except ConfigError:
            marks.append("0")
        else:
            marks.append("1")
    return "".join(marks)


def _committed():
    return "".join(VERDICTS.read_text().split())


class TestMutationCorpus:
    def test_desk_configs_are_valid_and_cover_every_tag(self):
        for raw in DESK_CONFIGS:
            config_mod.validate(copy.deepcopy(raw))
        tags = {(key, node.get(key)) for raw in DESK_CONFIGS for _, node in _nodes(raw)
                if isinstance(node, dict) for key in ("task", "family", "kind") if key in node}
        assert {("task", name) for name in _NAMES["task"]} <= tags
        assert {("family", name) for name in _NAMES["family"]} <= tags
        assert {("kind", "constant"), ("kind", "random_trig")} <= tags

    def test_every_verdict_matches_the_committed_string(self):
        cases = list(mutations())
        got, want = verdicts(cases), _committed()
        assert len(cases) >= 2000
        assert len(got) == len(want) == len(cases)
        changed = [f"{cases[i][0]}: {want[i]} -> {got[i]}" for i in range(len(got)) if got[i] != want[i]]
        assert not changed, "\n".join(changed[:20])

    def test_resolve_round_trips_every_accepted_config(self):
        # the resolved dict "can be fed back to reproduce the run": resolving
        # it again, as it is or after a trip through JSON, changes nothing
        accepted = [(label, raw) for (label, raw), mark in zip(mutations(), _committed()) if mark == "1"]
        assert len(accepted) >= 500
        moved = []
        for label, raw in accepted:
            resolved = config_mod.resolve(raw)
            if config_mod.resolve(resolved) != resolved:
                moved.append(f"{label}: resolve(resolve(raw)) differs")
            if config_mod.resolve(json.loads(json.dumps(resolved))) != resolved:
                moved.append(f"{label}: resolving its JSON differs")
        assert not moved, "\n".join(moved[:20])


if __name__ == "__main__":
    marks = verdicts(mutations())
    sys.stdout.write("".join(marks[i:i + 100] + "\n" for i in range(0, len(marks), 100)))
