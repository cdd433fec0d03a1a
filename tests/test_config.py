import copy

import jsonschema
import numpy as np
import pytest

from twistbench import ConfigError, TimeProfile, TrigPolynomial, TwistedFunction
from twistbench import config as config_mod


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
    return [unknown_key, wrong_type, missing, bad_mode, bad_family]


class TestValidate:
    def test_schema_is_checked_once_per_process(self, monkeypatch):
        config_mod._validator.cache_clear()
        cls = jsonschema.validators.validator_for(config_mod.SCHEMA)
        check_schema = cls.check_schema
        calls = []

        def counted(klass, schema, *args, **kwargs):
            calls.append(schema)
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", classmethod(counted))
        try:
            for _ in range(3):
                config_mod.validate(valid_config())
            for raw in broken_configs():
                with pytest.raises(ConfigError):
                    config_mod.validate(raw)
            config_mod.resolve(valid_config())
        finally:
            config_mod._validator.cache_clear()
        assert calls == [config_mod.SCHEMA]

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
