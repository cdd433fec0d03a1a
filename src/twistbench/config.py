"""Experiment configuration: solver options, JSON schema, validation, builders.

Configs are strict UTF-8 JSON documents: unknown keys are rejected at every
level so archived experiment files stay unambiguous.  ``resolve`` fills in
the seed, the output formats, the flat fiber metric, every ``SolveConfig``
option of a solve block and the verify and convergence defaults, and returns
the exact dictionary that reports embed, which can be fed back to reproduce
the run; initializer defaults stay with ``random_trig_graph``.  Each piece
is read from its single declaration: the solve options from ``SolveConfig``,
the twist families from ``TWIST_FAMILIES``, the time-profile kinds and
their params from ``TIME_KINDS``, the initializer kinds and their keys from
``INITIALIZER_KINDS``, and each verify and convergence key, with its
default per task, from ``TASK_KEYS``.

The twist, the time profile, the fiber metric and the initializer are each
one ``_tagged`` block: the tag (``family`` or ``kind``) selects one branch,
and the spec is checked against that branch only, so a schema error names
the innermost spec at fault and the key that breaks it.
"""

import copy
import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import jsonschema

from .errors import ConfigError
from .fiber_grid import FiberGrid
from .identities import CONVERGENCE_DEFAULTS, TASK_KEYS, VERIFY_DEFAULTS
from .initializers import INITIALIZER_KINDS
from .profiles import TIME_KINDS, TimeProfile, TrigPolynomial
from .spacetime import TWIST_FAMILIES, SpacetimeModel, TwistedFunction

__all__ = ["SCHEMA", "SolveConfig", "load_config", "resolve", "build_model"]


def _option(default, **schema):
    """A solve option: its default, and its JSON-schema entry as metadata."""
    return field(default=default, metadata={"schema": schema})


# the Python types of the schema's type names, with the article of each
_TYPES = {
    "boolean": (bool, "a boolean"),
    "integer": (numbers.Integral, "an integer"),
    "number": (numbers.Real, "a number"),
}


def _check_bounds(name, value, schema):
    """Raise ValueError where ``value`` breaks the type or a bound of its
    schema entry.

    Types are read as jsonschema reads them: a bool is neither an integer
    nor a number, and a float with no fractional part is an integer.
    """
    if "type" in schema:
        cls, what = _TYPES[schema["type"]]
        integral = cls is numbers.Integral and isinstance(value, float) and value.is_integer()
        if (isinstance(value, bool) != (cls is bool)
                or not (isinstance(value, cls) or integral)):
            raise ValueError(f"{name} must be {what}")
    lo, hi = schema.get("exclusiveMinimum"), schema.get("exclusiveMaximum")
    if hi is not None and not lo < value < hi:
        raise ValueError(f"{name} must lie in ({lo}, {hi})")
    if lo is not None and not value > lo:
        raise ValueError(f"{name} must be positive")  # every exclusiveMinimum is 0
    if "minimum" in schema and not value >= schema["minimum"]:
        raise ValueError(f"{name} must be at least {schema['minimum']}")


@dataclass
class SolveConfig:
    """Solver parameters; every safeguard is tunable but defaults are sane.

    Every option but ``initial`` is a key of a config's solve block too.

    target:
        a float H0 for constant mean curvature, or the string
        "generalized" for the residual H - g(N, grad log f).
    initial:
        a GraphField, or an initializer spec such as
        {"kind": "constant", "value": 0.3} or
        {"kind": "random_trig", "seed": 7, "amplitude": 0.1}.
    """

    target: object = _option(0.0, oneOf=[{"type": "number"}, {"const": "generalized"}])
    initial: object = None
    residual_tol: float = _option(1e-10, type="number", exclusiveMinimum=0)
    max_newton_iters: int = _option(50, type="integer", minimum=1)
    krylov_rtol: float = _option(1e-8, type="number", exclusiveMinimum=0)
    krylov_maxiter: int = _option(500, type="integer", minimum=1)  # total inner-iteration budget
    spacelike_cap: float = _option(0.99, type="number", exclusiveMinimum=0, exclusiveMaximum=1)
    interval_margin: float = _option(1e-6, type="number", exclusiveMinimum=0)
    check_certificate: bool = _option(True, type="boolean")
    certificate_samples: int = _option(256, type="integer", minimum=16)
    fallback_chunk: int = _option(60, type="integer", minimum=1)
    fallback_max_sweeps: int = _option(600, type="integer", minimum=1)
    drift_window: int = _option(20, type="integer", minimum=2)

    def __post_init__(self):
        target = self.target
        if not (isinstance(target, str) and target == "generalized"):
            # what the schema takes: a bool is no number, and a NaN or
            # infinite target is no curvature to solve for
            if (isinstance(target, bool) or not isinstance(target, numbers.Real)
                    or not math.isfinite(target)):
                raise ValueError(f"target must be 'generalized' or a finite number, got {target!r}")
            self.target = float(target)
        for option in _SOLVE_OPTIONS:
            schema = option.metadata["schema"]
            _check_bounds(option.name, getattr(self, option.name), schema)
            if schema.get("type") == "integer":
                # a JSON integer may arrive as 20.0; counts and slices need an int
                setattr(self, option.name, int(getattr(self, option.name)))


# the options a solve block may set: every SolveConfig field but ``initial``
_SOLVE_OPTIONS = [option for option in fields(SolveConfig) if option.metadata]


def _tagged(tag, branches):
    """The schema of an object whose ``tag`` selects its branch.

    ``branches`` maps each tag value to its keys' schema entries and the keys
    it requires.  The tag must be one of them, and the object is checked
    against the branch its tag selects only, taking exactly that branch's
    keys, so an error names the innermost spec at fault.
    """
    return {
        "type": "object",
        "required": [tag],
        "properties": {tag: {"enum": list(branches)}},
        "allOf": [
            {
                "if": {"required": [tag], "properties": {tag: {"const": value}}},
                "then": {
                    "additionalProperties": False,
                    "required": required,
                    "properties": {tag: True, **properties},
                },
            }
            for value, (properties, required) in branches.items()
        ],
    }


# one branch per time-profile kind, each taking exactly its declared params
_TIME_PROFILE = _tagged("kind", {
    kind: ({"params": {
        "type": "object",
        "additionalProperties": False,
        "properties": {name: {"type": "number"} for name in defaults},
    }}, [])
    for kind, (defaults, _, _) in TIME_KINDS.items()
})

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

# the schema entry of each twist constructor argument; the time and fiber
# profiles, like the initializer, refer to one definition each, so checking
# the schema walks each of them once
_TWIST_ARGUMENT = {
    "g": {"$ref": "#/$defs/time_profile"},
    "q": {"$ref": "#/$defs/time_profile"},
    "s": {"$ref": "#/$defs/trig_poly"},
    "eps": {"type": "number"},
    "amp": {"type": "number"},
    "period": {"type": "number", "exclusiveMinimum": 0},
}

_TWIST = _tagged("family", {
    family: ({name: _TWIST_ARGUMENT[name] for name in arguments}, list(arguments))
    for family, arguments in TWIST_FAMILIES.items()
})

_METRIC_AXIS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"offset": {"type": "number"}, "modes": _TRIG_MODES},
}

_METRIC = _tagged("family", {
    "flat": ({}, []),
    "diag_trig": ({"axes": {
        "type": "array",
        "minItems": 1,
        "maxItems": 3,
        "items": {"oneOf": [{"type": "null"}, _METRIC_AXIS]},
    }}, ["axes"]),
})

_INITIALIZER = _tagged("kind", INITIALIZER_KINDS)


def _task_block(task):
    """The schema of a verify or convergence block: the task's ``TASK_KEYS``."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {key: entry for key, (entry, defaults) in TASK_KEYS.items() if task in defaults},
    }


SCHEMA = {
    "$defs": {"time_profile": _TIME_PROFILE, "trig_poly": _TRIG_POLY, "initializer": _INITIALIZER},
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
            "properties": {"initializer": {"$ref": "#/$defs/initializer"}},
        },
        "solve": {
            "type": "object",
            "additionalProperties": False,
            "required": ["initializer"],
            "properties": {
                "initializer": {"$ref": "#/$defs/initializer"},
                **{option.name: option.metadata["schema"] for option in _SOLVE_OPTIONS},
            },
        },
        "verify": _task_block("verify"),
        "convergence": _task_block("convergence"),
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
    "solve": {option.name: option.default for option in _SOLVE_OPTIONS},
    "verify": VERIFY_DEFAULTS,
    "convergence": CONVERGENCE_DEFAULTS,
}


def load_config(path):
    """Read, parse, and schema-validate a config file.

    NaN, Infinity and -Infinity, and float literals that overflow to one of
    them, are refused: the schema's bounds cannot reject a NaN.
    """
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"config {path} holds {text}; numbers must be finite")
        return value

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate(raw)


@functools.cache
def _validator():
    """The SCHEMA validator.  SCHEMA is a constant, so its own validity
    under the 2020-12 metaschema is checked by the test suite
    (``tests/test_config.py``), not in every process that loads a config."""
    return jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def validate(raw):
    # the same error jsonschema.validate would raise; the schema's own
    # validity is checked by the test suite, not here
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
            block.setdefault(key, copy.deepcopy(value))
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
    # the schema's branch for the family already fixes which keys it carries
    args = dict(cfg)
    for key in ("g", "q"):
        if key in args:
            args[key] = TimeProfile(**args[key])
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
