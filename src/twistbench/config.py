"""Experiment configuration: JSON schema, validation, object builders.

Configs are strict UTF-8 JSON documents: unknown keys are rejected at every
level so archived experiment files stay unambiguous.  ``resolve`` fills in
all defaults and returns the exact dictionary that reports embed, which can
be fed back to reproduce the run.
"""

import copy
import functools
import json

import jsonschema

from .errors import ConfigError
from .fiber_grid import FiberGrid
from .profiles import TimeProfile, TrigPolynomial
from .spacetime import SpacetimeModel, TwistedFunction

__all__ = ["SCHEMA", "load_config", "resolve", "build_model"]

_TIME_PROFILE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["constant", "linear", "exp", "cosh", "sech", "gauss"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "c": {"type": "number"},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "rate": {"type": "number"},
            },
        },
    },
}

_TRIG_MODES = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "additionalProperties": False,
        "required": ["coeff", "wavevec"],
        "properties": {
            "coeff": {"type": "number"},
            "wavevec": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 3},
            "phase": {"type": "number"},
        },
    },
}

_TRIG_POLY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["modes"],
    "properties": {"modes": _TRIG_MODES},
}

_TWIST = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "g"],
            "properties": {"family": {"const": "pure_time"}, "g": _TIME_PROFILE},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "g", "eps", "s"],
            "properties": {
                "family": {"const": "separable"},
                "g": _TIME_PROFILE,
                "eps": {"type": "number"},
                "s": _TRIG_POLY,
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "g", "eps", "s", "q"],
            "properties": {
                "family": {"const": "additive"},
                "g": _TIME_PROFILE,
                "eps": {"type": "number"},
                "s": _TRIG_POLY,
                "q": _TIME_PROFILE,
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "amp", "period"],
            "properties": {
                "family": {"const": "traveling"},
                "amp": {"type": "number"},
                "period": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    ]
}

_METRIC_AXIS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"offset": {"type": "number"}, "modes": _TRIG_MODES},
}

_METRIC = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {"family": {"const": "flat"}},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "axes"],
            "properties": {
                "family": {"const": "diag_trig"},
                "axes": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {"oneOf": [{"type": "null"}, _METRIC_AXIS]},
                },
            },
        },
    ]
}

_INITIALIZER = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "value"],
            "properties": {"kind": {"const": "constant"}, "value": {"type": "number"}},
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "random_trig"},
                "seed": {"type": "integer", "minimum": 0},
                "center": {"type": "number"},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "max_mode": {"type": "integer", "minimum": 1},
                "n_modes": {"type": "integer", "minimum": 1},
                "rescale": {"type": "boolean"},
            },
        },
    ]
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "spacetime", "output"],
    "properties": {
        "task": {"enum": ["geometry", "solve", "verify", "convergence"]},
        "seed": {"type": "integer", "minimum": 0},
        "spacetime": {
            "type": "object",
            "additionalProperties": False,
            "required": ["interval", "fiber", "twist"],
            "properties": {
                "interval": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "fiber": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["dim", "periods", "resolution"],
                    "properties": {
                        "dim": {"enum": [1, 2, 3]},
                        "periods": {
                            "type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1,
                            "maxItems": 3,
                        },
                        "resolution": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 8},
                            "minItems": 1,
                            "maxItems": 3,
                        },
                        "metric": _METRIC,
                    },
                },
                "twist": _TWIST,
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["initializer"],
            "properties": {"initializer": _INITIALIZER},
        },
        "solve": {
            "type": "object",
            "additionalProperties": False,
            "required": ["initializer"],
            "properties": {
                "target": {
                    "oneOf": [{"type": "number"}, {"const": "generalized"}]
                },
                "initializer": _INITIALIZER,
                "residual_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_newton_iters": {"type": "integer", "minimum": 1},
                "krylov_rtol": {"type": "number", "exclusiveMinimum": 0},
                "krylov_maxiter": {"type": "integer", "minimum": 1},
                "spacelike_cap": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "interval_margin": {"type": "number", "exclusiveMinimum": 0},
                "check_certificate": {"type": "boolean"},
                "certificate_samples": {"type": "integer", "minimum": 16},
                "fallback_chunk": {"type": "integer", "minimum": 1},
                "fallback_max_sweeps": {"type": "integer", "minimum": 1},
                "drift_window": {"type": "integer", "minimum": 2},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "corpus_count": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "identities": {"type": "array", "items": {"type": "string"}},
                "thresholds": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
            },
        },
        "convergence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "quantities": {"type": "array", "items": {"type": "string"}},
                "corpus_count": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "factors": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                },
                "min_order": {"type": "number"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "required": ["directory"],
            "properties": {
                "directory": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json", "binary", "gnuplot-data"]},
                },
            },
        },
    },
}

_TASK_DEFAULTS = {
    "verify": {"corpus_count": 5, "amplitude": 0.05},
    "convergence": {
        "corpus_count": 3,
        "amplitude": 0.05,
        "factors": [1, 2, 4],
        "min_order": 1.9,
    },
}


def load_config(path):
    """Read, parse, and schema-validate a config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate(raw)


@functools.cache
def _validator():
    """The SCHEMA validator, with the schema itself checked once per process."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def validate(raw):
    # the same error jsonschema.validate would raise, without re-checking SCHEMA
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if exc is not None:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {location}: {exc.message}") from exc
    task = raw["task"]
    if task in ("geometry", "solve") and task not in raw:
        raise ConfigError(f"task {task!r} needs a {task!r} block")
    return raw


def resolve(raw, seed=None, out_dir=None):
    """Fill defaults and apply CLI overrides; result is itself schema-valid."""
    cfg = copy.deepcopy(raw)
    cfg.setdefault("seed", 0)
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["output"]["directory"] = str(out_dir)
    cfg["output"].setdefault("formats", ["csv", "json"])
    cfg["spacetime"]["fiber"].setdefault("metric", {"family": "flat"})
    task = cfg["task"]
    if task in _TASK_DEFAULTS:
        block = cfg.setdefault(task, {})
        for key, value in _TASK_DEFAULTS[task].items():
            block.setdefault(key, value)
    if task == "solve":
        cfg["solve"].setdefault("target", 0.0)
    return validate(cfg)


def _build_metric_coeffs(metric_cfg, dim, periods):
    if metric_cfg["family"] == "flat":
        return None
    axes = metric_cfg["axes"]
    if len(axes) != dim:
        raise ConfigError("metric axes must have one entry per fiber dimension")
    coeffs = []
    for spec in axes:
        if spec is None:
            coeffs.append(None)
            continue
        offset = float(spec.get("offset", 1.0))
        poly = TrigPolynomial.from_specs(spec.get("modes", []), periods)

        def G(*coords, _offset=offset, _poly=poly):
            return _offset + _poly.value(*coords)

        coeffs.append(G)
    return coeffs


def _build_twist(cfg, periods):
    # the schema's oneOf already fixes which keys each family carries
    args = dict(cfg)
    for key in ("g", "q"):
        if key in args:
            args[key] = TimeProfile(args[key]["kind"], dict(args[key].get("params", {})))
    if "s" in args:
        args["s"] = TrigPolynomial.from_specs(args["s"]["modes"], periods)
    return TwistedFunction(**args)


def build_model(cfg):
    """Instantiate the spacetime model described by a resolved config."""
    space = cfg["spacetime"]
    fiber_cfg = space["fiber"]
    dim = fiber_cfg["dim"]
    periods = [float(L) for L in fiber_cfg["periods"]]
    if len(periods) == 1 and dim > 1:
        periods = periods * dim
    resolution = [int(m) for m in fiber_cfg["resolution"]]
    if len(resolution) == 1 and dim > 1:
        resolution = resolution * dim
    try:
        fiber = FiberGrid(
            dim,
            periods,
            resolution,
            metric_coeffs=_build_metric_coeffs(
                fiber_cfg.get("metric", {"family": "flat"}), dim, periods
            ),
        )
        twist = _build_twist(space["twist"], periods)
        return SpacetimeModel(tuple(space["interval"]), fiber, twist)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid spacetime configuration: {exc}") from exc
