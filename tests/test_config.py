import copy
import inspect
import json
import math

import jsonschema
import numpy as np
import pytest

from twistbench import (
    ConfigError,
    SolveConfig,
    TimeProfile,
    TrigPolynomial,
    TwistedFunction,
    default_model,
    random_trig_graph,
    solve,
)
from twistbench import config as config_mod
from twistbench import identities, initializers, verify
from twistbench.profiles import TIME_KINDS


def valid_config():
    return {
        "task": "geometry",
        "seed": 3,
        "spacetime": {
            "interval": [-1.5, 1.5],
            "fiber": {"dim": 1, "periods": [1.0], "resolution": [128]},
            "twist": {
                "family": "separable",
                "g": {"kind": "gauss"},
                "eps": 0.1,
                "s": {"modes": [{"coeff": 1.0, "wavevec": [1]}]},
            },
        },
        "output": {"directory": "out", "formats": ["csv", "json"]},
        "geometry": {"initializer": {"kind": "constant", "value": 0.1}},
    }


def broken_configs():
    unknown_key = valid_config()
    unknown_key["surprise"] = 1
    wrong_type = valid_config()
    wrong_type["spacetime"]["fiber"]["dim"] = "two"
    missing = valid_config()
    del missing["spacetime"]["twist"]["g"]
    bad_mode = valid_config()
    bad_mode["spacetime"]["twist"]["s"]["modes"][0]["wavevec"] = []
    bad_family = valid_config()
    bad_family["spacetime"]["twist"]["family"] = "spiral"
    bad_kind = valid_config()
    bad_kind["spacetime"]["twist"]["g"]["kind"] = "sinh"
    return [unknown_key, wrong_type, missing, bad_mode, bad_family, bad_kind]


_TWIST_SCHEMA = config_mod.SCHEMA["properties"]["spacetime"]["properties"]["twist"]


def _branches(block, tag):
    """A tagged block's branch for each tag value, in the order of its enum."""
    branches = {branch["if"]["properties"][tag]["const"]: branch["then"] for branch in block["allOf"]}
    assert list(branches) == block["properties"][tag]["enum"]
    return branches


class TestValidate:
    def test_schema_is_valid_under_its_metaschema(self):
        # validation never runs check_schema, so this is where SCHEMA is held to it
        cls = jsonschema.validators.validator_for(config_mod.SCHEMA)
        cls.check_schema(config_mod.SCHEMA)
        broken = copy.deepcopy(config_mod.SCHEMA)
        twist = broken["properties"]["spacetime"]["properties"]["twist"]
        _branches(twist, "family")["separable"]["additionalProperties"] = "no"
        with pytest.raises(jsonschema.SchemaError):
            cls.check_schema(broken)

    def test_validation_never_checks_the_schema(self, monkeypatch, tmp_path):
        def outcomes():
            """What load_config, validate and resolve give on each config:
            the resolved dict, or each ConfigError's message."""
            got = []
            for n, raw in enumerate([valid_config(), *broken_configs()]):
                path = tmp_path / f"config{n}.json"
                path.write_text(json.dumps(raw))
                for run in (config_mod.load_config, config_mod.validate, config_mod.resolve):
                    try:
                        got.append(run(path if run is config_mod.load_config else copy.deepcopy(raw)))
                    except ConfigError as exc:
                        got.append(str(exc))
            return got

        def refuse(klass, schema, *args, **kwargs):
            raise AssertionError("check_schema called while validating a config")

        cls = jsonschema.validators.validator_for(config_mod.SCHEMA)
        expected = outcomes()
        monkeypatch.setattr(cls, "check_schema", classmethod(refuse))
        with pytest.raises(AssertionError):
            cls.check_schema(config_mod.SCHEMA)
        config_mod._validator.cache_clear()   # rebuilt under the patch
        assert outcomes() == expected
        assert expected[:3] == [valid_config(), valid_config(), config_mod.resolve(valid_config())]
        assert all(message.startswith("config schema violation at ") for message in expected[3:])
        assert len(set(expected[3:])) == len(broken_configs())

    def test_errors_match_jsonschema_validate(self):
        for raw in broken_configs():
            with pytest.raises(jsonschema.ValidationError) as expected:
                jsonschema.validate(raw, config_mod.SCHEMA)
            exc = expected.value
            location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            with pytest.raises(ConfigError) as got:
                config_mod.validate(copy.deepcopy(raw))
            assert str(got.value) == (
                f"config schema violation at {location}: {exc.message}"
            )


_G = {"kind": "exp", "params": {"rate": 0.5}}
_Q = {"kind": "linear", "params": {"a": 2.0, "b": 0.25}}
_S = {"modes": [{"coeff": 1.0, "wavevec": [1, 0]}, {"coeff": 0.5, "wavevec": [1, 2], "phase": 0.3}]}


def _direct_twist(family, periods):
    g = TimeProfile("exp", {"rate": 0.5})
    if family == "pure_time":
        return TwistedFunction("pure_time", g=g)
    if family == "traveling":
        return TwistedFunction("traveling", amp=0.3, period=0.5)
    s = TrigPolynomial.from_specs(_S["modes"], periods)
    if family == "separable":
        return TwistedFunction("separable", g=g, eps=0.1, s=s)
    q = TimeProfile("linear", {"a": 2.0, "b": 0.25})
    return TwistedFunction("additive", g=g, eps=0.1, s=s, q=q)


class TestBuildModel:
    @pytest.mark.parametrize(
        "twist",
        [
            {"family": "pure_time", "g": _G},
            {"family": "separable", "g": _G, "eps": 0.1, "s": _S},
            {"family": "additive", "g": _G, "eps": 0.1, "s": _S, "q": _Q},
            {"family": "traveling", "amp": 0.3, "period": 0.5},
        ],
        ids=lambda twist: twist["family"],
    )
    def test_config_twist_equals_direct_twist(self, twist):
        raw = valid_config()
        raw["spacetime"]["twist"] = copy.deepcopy(twist)
        if twist["family"] != "traveling":
            raw["spacetime"]["fiber"] = {"dim": 2, "periods": [1.0, 2.0], "resolution": [16, 12]}
        cfg = config_mod.resolve(raw)
        model = config_mod.build_model(cfg)
        assert cfg["spacetime"]["twist"] == twist
        grid = model.fiber
        direct = _direct_twist(twist["family"], grid.periods)
        t_nodes = np.linspace(-1.0, 1.0, grid.coords[0].size).reshape(grid.shape)
        for t in (0.4, t_nodes):
            for method in ("value", "dt", "fiber_partials"):
                got = getattr(model.twist, method)(t, grid)
                assert np.array_equal(got, getattr(direct, method)(t, grid)), method


def solve_config(**options):
    raw = valid_config()
    raw["task"] = "solve"
    del raw["geometry"]
    raw["solve"] = {"initializer": {"kind": "constant", "value": 0.1}, **options}
    return raw


def _bound_cases():
    """(option, value, inside) at each bound of the schema's solve options:
    the boundary value, and the first value past it."""
    cases = []
    for name, entry in config_mod.SCHEMA["properties"]["solve"]["properties"].items():
        if "minimum" in entry:
            cases += [(name, entry["minimum"], True), (name, entry["minimum"] - 1, False)]
        if "exclusiveMinimum" in entry:
            lo = entry["exclusiveMinimum"]
            cases += [(name, lo, False), (name, math.nextafter(lo, math.inf), True)]
        if "exclusiveMaximum" in entry:
            hi = entry["exclusiveMaximum"]
            cases += [(name, hi, False), (name, math.nextafter(hi, -math.inf), True)]
    return cases


_BOUND_CASES = _bound_cases()

# (option, value, accepted): each schema type against values of other types
_TYPE_CASES = [
    ("drift_window", 2.5, False),
    ("drift_window", 20.0, True),   # a JSON integer
    ("drift_window", True, False),  # a bool is not an integer
    ("drift_window", "20", False),
    ("fallback_chunk", None, False),
    ("check_certificate", "no", False),
    ("check_certificate", 0, False),
    ("check_certificate", False, True),
    ("residual_tol", True, False),
    ("residual_tol", "1e-9", False),
    ("residual_tol", 1, True),
    ("spacelike_cap", [0.5], False),
]


def _accepts(build, error):
    try:
        build()
    except error:
        return False
    return True


class TestSolveOptions:
    def test_every_bound_is_covered(self):
        # 6 minimums, 4 exclusive minimums, and spacelike_cap's exclusive maximum
        assert len(_BOUND_CASES) == 2 * 11
        assert len({name for name, _, _ in _BOUND_CASES}) == 10

    @pytest.mark.parametrize(
        "name, value, inside", _BOUND_CASES, ids=[f"{n}={v!r}" for n, v, _ in _BOUND_CASES]
    )
    def test_api_and_schema_agree_on_each_bound(self, name, value, inside):
        by_schema = _accepts(lambda: config_mod.validate(solve_config(**{name: value})), ConfigError)
        by_api = _accepts(lambda: SolveConfig(**{name: value}), ValueError)
        assert by_schema == by_api == inside

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("spacelike_cap", 1.0, "spacelike_cap must lie in (0, 1)"),
            ("residual_tol", 0.0, "residual_tol must be positive"),
            ("krylov_rtol", -1.0, "krylov_rtol must be positive"),
            ("interval_margin", 0.0, "interval_margin must be positive"),
            ("certificate_samples", 15, "certificate_samples must be at least 16"),
            ("max_newton_iters", 0, "max_newton_iters must be at least 1"),
            ("drift_window", 1, "drift_window must be at least 2"),
        ],
    )
    def test_api_bound_messages(self, name, value, message):
        with pytest.raises(ValueError) as exc:
            SolveConfig(**{name: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "name, value, inside", _TYPE_CASES, ids=[f"{n}={v!r}" for n, v, _ in _TYPE_CASES]
    )
    def test_api_and_schema_agree_on_each_type(self, name, value, inside):
        by_schema = _accepts(lambda: config_mod.validate(solve_config(**{name: value})), ConfigError)
        by_api = _accepts(lambda: SolveConfig(**{name: value}), ValueError)
        assert by_schema == by_api == inside

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("drift_window", 2.5, "drift_window must be an integer"),
            ("certificate_samples", True, "certificate_samples must be an integer"),
            ("check_certificate", "no", "check_certificate must be a boolean"),
            ("residual_tol", False, "residual_tol must be a number"),
        ],
    )
    def test_api_type_messages(self, name, value, message):
        with pytest.raises(ValueError) as exc:
            SolveConfig(**{name: value})
        assert str(exc.value) == message

    def test_numpy_integers_and_integral_floats_are_integers(self):
        cfg = SolveConfig(drift_window=np.int64(5), certificate_samples=np.int32(32),
                          max_newton_iters=20.0, residual_tol=np.float64(1e-9))
        assert (cfg.drift_window, cfg.certificate_samples, cfg.max_newton_iters) == (5, 32, 20)
        assert type(cfg.max_newton_iters) is int

    def test_fractional_drift_window_is_refused_before_the_solve(self):
        # used to run until the drift detector sliced with it (TypeError)
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        graph = random_trig_graph(model, seed=3, amplitude=0.1)
        with pytest.raises(ValueError, match="drift_window must be an integer"):
            solve(
                model,
                SolveConfig(target=0.0, initial=graph, check_certificate=False, drift_window=2.5),
            )

    @pytest.mark.parametrize("window", [0, 1])
    def test_short_drift_window_is_refused_on_the_refuse_model(self, window):
        # these used to return a drift certificate after `window` sweeps
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        graph = random_trig_graph(model, seed=3, amplitude=0.1)
        with pytest.raises(ValueError, match="drift_window must be at least 2"):
            solve(
                model,
                SolveConfig(target=0.0, initial=graph, check_certificate=False, drift_window=window),
            )

    def test_resolve_fills_every_solve_default(self):
        cfg = config_mod.resolve(solve_config())
        assert cfg["solve"] == {
            "initializer": {"kind": "constant", "value": 0.1},
            "target": 0.0,
            "residual_tol": 1e-10,
            "max_newton_iters": 50,
            "krylov_rtol": 1e-8,
            "krylov_maxiter": 500,
            "spacelike_cap": 0.99,
            "interval_margin": 1e-6,
            "check_certificate": True,
            "certificate_samples": 256,
            "fallback_chunk": 60,
            "fallback_max_sweeps": 600,
            "drift_window": 20,
        }
        defaults = SolveConfig()
        for key, value in cfg["solve"].items():
            if key != "initializer":
                assert getattr(defaults, key) == value, key


# (target, accepted): SolveConfig takes what the schema takes, and no
# non-finite number
_TARGET_CASES = [
    (0, True), (-1.5, True), (np.float64(0.25), True), (np.int64(2), True),
    ("generalized", True),
    (True, False), (False, False), ("0.5", False), ("Generalized", False), (None, False),
    ([0.5], False), (math.nan, False), (math.inf, False), (-math.inf, False),
]


class TestTarget:
    @pytest.mark.parametrize("target, accepted", _TARGET_CASES, ids=repr)
    def test_api_accepts_only_generalized_or_a_finite_number(self, target, accepted):
        if accepted:
            got = SolveConfig(target=target).target
            assert got == target and type(got) is (str if target == "generalized" else float)
            return
        with pytest.raises(ValueError) as exc:
            SolveConfig(target=target)
        expected = f"target must be 'generalized' or a finite number, got {target!r}"
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "target, accepted", [case for case in _TARGET_CASES if not isinstance(case[0], float)
                             or math.isfinite(case[0])], ids=repr
    )
    def test_api_and_schema_agree(self, target, accepted):
        raw = solve_config(target=target)
        assert _accepts(lambda: config_mod.validate(raw), ConfigError) == accepted

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_is_refused_before_the_solve(self, target):
        # NaN used to end in scipy's "RHS must contain only finite numbers";
        # +inf returned a bound certificate that serialized as Infinity
        model = default_model(1, twist="separable_exp", interval=(-1.0, 1.0))
        with pytest.raises(ValueError, match="^target must be"):
            solve(model, SolveConfig(target=target, initial={"kind": "constant", "value": 0.1}))


class TestCatalogSchema:
    def test_identity_names_come_from_the_registry(self):
        from twistbench import verify
        from twistbench.identities import IDENTITY_KINDS

        names = list(IDENTITY_KINDS)
        # the suite runs one check per declared name
        assert verify.IDENTITY_KINDS is IDENTITY_KINDS
        assert list(verify._REGISTRY) == names
        verify = config_mod.SCHEMA["properties"]["verify"]["properties"]
        convergence = config_mod.SCHEMA["properties"]["convergence"]["properties"]
        assert verify["identities"]["items"]["enum"] == names
        assert convergence["quantities"]["items"]["enum"] == names
        assert list(verify["thresholds"]["properties"]) == names
        assert verify["thresholds"]["additionalProperties"] is False

    def test_twist_schema_lists_each_family_and_its_arguments(self):
        from twistbench.spacetime import TWIST_FAMILIES

        branches = _branches(_TWIST_SCHEMA, "family")
        got = {family: branch["required"] for family, branch in branches.items()}
        assert got == {family: list(args) for family, args in TWIST_FAMILIES.items()}
        assert all(list(branch["properties"])[1:] == branch["required"]
                   for branch in branches.values())

    @pytest.mark.parametrize("kind", ["constant", "linear", "exp", "cosh", "sech", "gauss"])
    def test_every_time_profile_kind_builds(self, kind):
        raw = valid_config()
        raw["spacetime"]["twist"]["g"] = {"kind": kind}
        model = config_mod.build_model(config_mod.resolve(raw))
        assert model.twist.g.kind == kind

    def test_time_profile_schema_has_one_branch_per_kind(self):
        refs = [branch["properties"][key] for branch in _branches(_TWIST_SCHEMA, "family").values()
                for key in ("g", "q") if key in branch["properties"]]
        assert refs == [{"$ref": "#/$defs/time_profile"}] * 4
        branches = _branches(config_mod.SCHEMA["$defs"]["time_profile"], "kind")
        got = {kind: list(branch["properties"]["params"]["properties"])
               for kind, branch in branches.items()}
        assert got == {kind: list(defaults) for kind, (defaults, _, _) in TIME_KINDS.items()}

    @pytest.mark.parametrize("kind", list(TIME_KINDS))
    @pytest.mark.parametrize("param", ["c", "a", "b", "rate"])
    def test_each_kind_takes_exactly_its_params(self, kind, param):
        # exp with c used to validate and run as exp(t)
        raw = valid_config()
        raw["spacetime"]["twist"]["g"] = {"kind": kind, "params": {param: 0.5}}
        declared = param in TIME_KINDS[kind][0]
        assert _accepts(lambda: config_mod.validate(raw), ConfigError) == declared
        assert _accepts(lambda: TimeProfile(kind, {param: 0.5}), ValueError) == declared

    def test_unknown_kind_keeps_its_message(self):
        raw = valid_config()
        raw["spacetime"]["twist"]["g"]["kind"] = "sinh"
        with pytest.raises(ConfigError) as exc:
            config_mod.validate(raw)
        assert str(exc.value) == (
            "config schema violation at spacetime/twist/g/kind: 'sinh' is not one of "
            "['constant', 'linear', 'exp', 'cosh', 'sech', 'gauss']"
        )

    def test_initializer_schema_reads_the_initializer_kinds(self):
        for task in ("geometry", "solve"):
            block = config_mod.SCHEMA["properties"][task]["properties"]["initializer"]
            assert block == {"$ref": "#/$defs/initializer"}
        branches = _branches(config_mod.SCHEMA["$defs"]["initializer"], "kind")
        got = {kind: (dict(list(branch["properties"].items())[1:]), branch["required"])
               for kind, branch in branches.items()}
        assert got == initializers.INITIALIZER_KINDS
        assert initializers.INITIALIZER_KINDS["random_trig"][0] is initializers.RANDOM_TRIG_KEYS
        parameters = inspect.signature(initializers.random_trig_graph).parameters
        assert set(initializers.RANDOM_TRIG_KEYS) < set(parameters)

    def test_no_one_of_over_tagged_objects(self):
        def walk(node):
            if isinstance(node, dict):
                for branch in node.get("oneOf", []):
                    entries = branch.get("properties", {}).values()
                    assert not any(isinstance(e, dict) and "const" in e for e in entries)
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(config_mod.SCHEMA)

    @pytest.mark.parametrize("key", ["corpus_count", "amplitude"])
    def test_shared_task_keys_have_one_schema_entry(self, key):
        entry = identities.TASK_KEYS[key][0]
        for task in ("verify", "convergence"):
            assert config_mod.SCHEMA["properties"][task]["properties"][key] is entry

    def test_task_defaults_come_from_the_identity_table(self):
        assert config_mod._TASK_DEFAULTS["verify"] is identities.VERIFY_DEFAULTS
        assert config_mod._TASK_DEFAULTS["convergence"] is identities.CONVERGENCE_DEFAULTS
        assert set(identities.DEFAULT_THRESHOLDS) == set(identities.IDENTITY_KINDS)
        assert set(identities.DEFAULT_QUANTITIES) <= set(identities.IDENTITY_KINDS)
        suite = inspect.signature(verify.run_identity_suite).parameters
        study = inspect.signature(verify.run_convergence_study).parameters
        for params, defaults in ((suite, identities.VERIFY_DEFAULTS),
                                 (study, identities.CONVERGENCE_DEFAULTS)):
            assert params["count"].default == defaults["corpus_count"]
            assert params["amplitude"].default == defaults["amplitude"]
        assert list(study["factors"].default) == identities.CONVERGENCE_DEFAULTS["factors"]
        assert study["min_order"].default == identities.CONVERGENCE_DEFAULTS["min_order"]
        for task, defaults in (("verify", identities.VERIFY_DEFAULTS),
                               ("convergence", identities.CONVERGENCE_DEFAULTS)):
            raw = valid_config()
            raw["task"] = task
            resolved = config_mod.resolve(raw)
            assert resolved[task] == defaults
            # each resolved config holds its own copy of a default list
            assert task != "convergence" or resolved[task]["factors"] is not defaults["factors"]


def _with_twist(twist):
    raw = valid_config()
    raw["spacetime"]["twist"] = twist
    return raw


def _with_metric(metric):
    raw = valid_config()
    raw["spacetime"]["fiber"]["metric"] = metric
    return raw


def _with_initializer(spec):
    raw = solve_config()
    raw["solve"]["initializer"] = spec
    return raw


class TestTaggedMessages:
    """Each spec is checked against the branch its tag selects, so an error
    names the innermost spec and the key that breaks it."""

    @pytest.mark.parametrize(
        "raw, message",
        [
            (_with_initializer({"kind": "random_trig", "amplitud": 0.1}),
             "solve/initializer: Additional properties are not allowed ('amplitud' was unexpected)"),
            # used to read "solve/initializer/kind: 'random_trig' was expected"
            (_with_initializer({"kind": "constant"}),
             "solve/initializer: 'value' is a required property"),
            (_with_twist({"family": "separable", "g": {"kind": "gauss"}, "eps": 0.1,
                          "s": {"modes": [{"coeff": 1.0, "wavevec": [1]}]}, "q": {"kind": "exp"}}),
             "spacetime/twist: Additional properties are not allowed ('q' was unexpected)"),
            (_with_twist({"family": "pure_time", "g": {"kind": "exp", "params": {"c": 0.5}}}),
             "spacetime/twist/g/params: Additional properties are not allowed ('c' was unexpected)"),
            (_with_twist({"family": "spiral", "g": {"kind": "gauss"}}),
             "spacetime/twist/family: 'spiral' is not one of "
             "['pure_time', 'separable', 'additive', 'traveling']"),
            (_with_twist({"family": "pure_time", "g": {"kind": "sinh"}}),
             "spacetime/twist/g/kind: 'sinh' is not one of "
             "['constant', 'linear', 'exp', 'cosh', 'sech', 'gauss']"),
            (_with_initializer({"kind": "zero"}),
             "solve/initializer/kind: 'zero' is not one of ['constant', 'random_trig']"),
            (_with_metric({"family": "flat", "axes": [None]}),
             "spacetime/fiber/metric: Additional properties are not allowed ('axes' was unexpected)"),
            (_with_metric({"family": "diag_trig"}),
             "spacetime/fiber/metric: 'axes' is a required property"),
            (_with_twist({"g": {"kind": "gauss"}}),
             "spacetime/twist: 'family' is a required property"),
        ],
        ids=["amplitud", "constant_without_value", "separable_with_q", "exp_with_c",
             "unknown_family", "unknown_kind", "unknown_initializer", "flat_with_axes",
             "diag_trig_without_axes", "no_family"],
    )
    def test_message_names_the_offending_key(self, raw, message):
        with pytest.raises(ConfigError) as exc:
            config_mod.validate(raw)
        assert str(exc.value) == f"config schema violation at {message}"


# a value for every key a twist, metric or initializer branch declares
_KEY_VALUES = {
    "g": {"kind": "gauss"}, "q": {"kind": "exp"}, "s": {"modes": [{"coeff": 1.0, "wavevec": [1]}]},
    "eps": 0.1, "amp": 0.3, "period": 1.0, "axes": [None],
    "value": 0.1, "seed": 1, "center": 0.0, "amplitude": 0.1, "max_mode": 1, "n_modes": 2,
    "rescale": True, "margin_cap": 0.1,
}


def _declared_key_cases():
    """(tag, declared keys, required keys, build) for every branch of the
    twist, the metric and the initializer, from each one's declaration."""
    from twistbench.spacetime import TWIST_FAMILIES

    yield from ((("family", family), list(args), list(args), _with_twist)
                for family, args in TWIST_FAMILIES.items())
    yield ("family", "flat"), [], [], _with_metric
    yield ("family", "diag_trig"), ["axes"], ["axes"], _with_metric
    yield from ((("kind", kind), list(keys), required, _with_initializer)
                for kind, (keys, required) in initializers.INITIALIZER_KINDS.items())


_DECLARED_KEY_CASES = list(_declared_key_cases())


class TestEachTagTakesItsDeclaredKeys:
    @pytest.mark.parametrize("tag, declared, required, build", _DECLARED_KEY_CASES,
                             ids=[tag[1] for tag, _, _, _ in _DECLARED_KEY_CASES])
    def test_exactly_the_declared_keys(self, tag, declared, required, build):
        name, value = tag
        spec = {name: value, **{key: _KEY_VALUES[key] for key in declared}}
        refused = [{**spec, key: _KEY_VALUES[key]} for key in _KEY_VALUES.keys() - declared]
        refused += [{k: v for k, v in spec.items() if k != key} for key in required]
        config_mod.validate(build(spec))
        for wrong in refused:
            assert not _accepts(lambda: config_mod.validate(build(wrong)), ConfigError), wrong
        if build is _with_initializer:
            model = default_model(1, resolution=32)
            initializers.resolve_initializer(model, spec)
            for wrong in refused:
                with pytest.raises(ConfigError):
                    initializers.resolve_initializer(model, wrong)


class TestRandomTrigInitializer:
    def test_a_bare_spec_takes_random_trig_graphs_defaults(self):
        model = default_model(2, resolution=16)
        got = initializers.resolve_initializer(model, {"kind": "random_trig"})
        assert got.u.tobytes() == random_trig_graph(model).u.tobytes()

    def test_given_keys_pass_with_their_coercions(self):
        model = default_model(1, resolution=32)
        spec = {"kind": "random_trig", "seed": 4.0, "center": 0.25, "amplitude": 1,
                "max_mode": 1.0, "n_modes": 2.0, "rescale": 0}
        got = initializers.resolve_initializer(model, spec)
        want = random_trig_graph(model, seed=4, center=0.25, amplitude=1.0, max_mode=1,
                                 n_modes=2, rescale=False)
        assert got.u.tobytes() == want.u.tobytes()

    @pytest.mark.parametrize(
        "spec, message",
        [
            # margin_cap is random_trig_graph's argument but no key of a spec;
            # it and a misspelt key used to be dropped without a word
            ({"kind": "random_trig", "margin_cap": 0.1},
             "initializer 'random_trig' takes no key 'margin_cap'"),
            ({"kind": "random_trig", "amplitud": 0.1},
             "initializer 'random_trig' takes no key 'amplitud'"),
            # used to raise KeyError: 'value'
            ({"kind": "constant"}, "initializer 'constant' needs 'value'"),
            ({"kind": "constant", "value": 0.1, "seed": 1},
             "initializer 'constant' takes no key 'seed'"),
            ({"kind": "zero"}, "unknown initializer kind 'zero'"),
        ],
        ids=["margin_cap", "amplitud", "no_value", "constant_seed", "unknown_kind"],
    )
    def test_api_refuses_what_the_schema_refuses(self, spec, message):
        model = default_model(1, resolution=32)
        with pytest.raises(ConfigError) as exc:
            initializers.resolve_initializer(model, spec)
        assert str(exc.value) == message
        raw = solve_config()
        raw["solve"]["initializer"] = spec
        with pytest.raises(ConfigError):
            config_mod.validate(raw)
