import pickle

import numpy as np
import pytest

from twistbench import (
    FiberGrid,
    SpacetimeModel,
    TimeProfile,
    TrigPolynomial,
    TwistedFunction,
    classify,
    default_model,
)
from twistbench.profiles import TIME_KINDS

from conftest import assert_bitwise


def mixed_grid(dim):
    """A fiber with a different period and node count on every axis."""
    return FiberGrid(dim, (1.0, 2.5, 0.7)[:dim], (8, 9, 10)[:dim])


def mixed_profile(grid):
    """Modes constant along some axes, along every axis, and along none."""
    wavevecs = [(1, 0, 0), (0, 2, -1), (0, 0, 0), (3, -1, 2), (0, 0, 1)]
    return TrigPolynomial.from_specs(
        [
            {"coeff": 0.3 + 0.1 * i, "wavevec": w[: grid.dim], "phase": 0.7 * i}
            for i, w in enumerate(wavevecs)
        ],
        grid.periods,
    )


def reference_angles(poly, coords, wavevec, phase):
    """The angles as a full array of the phase plus one term per axis."""
    ang = np.full(np.broadcast(*coords).shape, phase)
    for x, k, L in zip(coords, wavevec, poly.periods):
        if k:
            ang = ang + (2.0 * np.pi * k / L) * x
    return ang


def reference_value(poly, coords):
    out = np.zeros(np.broadcast(*coords).shape)
    for coeff, wavevec, phase in poly.modes:
        out += coeff * np.cos(reference_angles(poly, coords, wavevec, phase))
    return out


def reference_partial(poly, axis, coords):
    out = np.zeros(np.broadcast(*coords).shape)
    for coeff, wavevec, phase in poly.modes:
        k = wavevec[axis]
        if k:
            out -= (coeff * (2.0 * np.pi * k / poly.periods[axis])
                    * np.sin(reference_angles(poly, coords, wavevec, phase)))
    return out


class TestOpenAxes:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_open_coords_broadcast_to_the_coordinates(self, dim):
        grid = mixed_grid(dim)
        for axis, (x, full) in enumerate(zip(grid.open_coords, grid.coords)):
            assert x.shape == tuple(m if i == axis else 1 for i, m in enumerate(grid.shape))
            assert_bitwise(np.broadcast_to(x, grid.shape).copy(), full)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_values_and_partials_match_full_coordinates(self, dim):
        # against full coordinate arrays, and against angles built on them
        # from a full array of the phase
        grid = mixed_grid(dim)
        poly = mixed_profile(grid)
        expected = reference_value(poly, grid.coords)
        for actual in (poly.value(*grid.open_coords), poly.value(*grid.coords), grid.sample(poly)):
            assert_bitwise(actual, expected)
        for axis in range(dim):
            expected = reference_partial(poly, axis, grid.coords)
            for actual in (poly.partial(axis, *grid.open_coords),
                           poly.partial(axis, *grid.coords), grid.sample(poly, axis)):
                assert_bitwise(actual, expected)

    def test_all_zero_wavevector_is_a_constant(self):
        grid = mixed_grid(2)
        poly = TrigPolynomial.from_specs([{"coeff": 0.5, "wavevec": (0, 0), "phase": 0.4}],
                                         grid.periods)
        value = poly.value(*grid.open_coords)
        assert_bitwise(value, np.full(grid.shape, 0.5 * np.cos(0.4)))
        assert_bitwise(value, poly.value(*grid.coords))
        for axis in range(2):
            assert_bitwise(poly.partial(axis, *grid.open_coords), np.zeros(grid.shape))


def allocating_value(poly, coords):
    """``value`` with a fresh product per mode on the angles of ``_angles``."""
    out = np.zeros(np.broadcast(*coords).shape)
    for coeff, wavevec, phase in poly.modes:
        out += coeff * np.cos(poly._angles(coords, wavevec, phase))
    return out


def allocating_partial(poly, axis, coords):
    out = np.zeros(np.broadcast(*coords).shape)
    for coeff, wavevec, phase in poly.modes:
        k = wavevec[axis]
        if k:
            out -= (coeff * (2.0 * np.pi * k / poly.periods[axis])
                    * np.sin(poly._angles(coords, wavevec, phase)))
    return out


class TestInPlaceModes:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["open", "full", "scalar", "zero-d"])
    def test_bitwise_the_allocating_formula(self, dim, kind):
        # the modes' angles come back as open broadcast shapes, full
        # arrays, the scalar phase of the all-zero wavevector, or numpy
        # scalars; trig and coefficient overwrite only fresh arrays
        grid = mixed_grid(dim)
        poly = mixed_profile(grid)
        coords = {
            "open": grid.open_coords,
            "full": grid.coords,
            "scalar": tuple(0.1 + 0.2 * i for i in range(dim)),
            "zero-d": tuple(np.array(0.1 + 0.2 * i) for i in range(dim)),
        }[kind]
        before = [np.copy(x) for x in coords]
        assert_bitwise(np.asarray(poly.value(*coords)), np.asarray(allocating_value(poly, coords)))
        for axis in range(dim):
            assert_bitwise(np.asarray(poly.partial(axis, *coords)),
                           np.asarray(allocating_partial(poly, axis, coords)))
        for x, saved in zip(coords, before):
            assert_bitwise(np.asarray(x), saved)


class TestFromSpecs:
    @pytest.mark.parametrize(
        "wavevec", [[1.5], [True], [np.True_], np.array([False]), [float("nan")], ["1"]]
    )
    def test_rejects_non_integral_wave_vectors(self, wavevec):
        with pytest.raises(ValueError, match="wavevector entries must be integers"):
            TrigPolynomial.from_specs([{"coeff": 1.0, "wavevec": wavevec}], (1.0,))

    def test_rejects_a_bool_beside_integers(self):
        with pytest.raises(ValueError, match="wavevector entries must be integers, got True"):
            TrigPolynomial.from_specs([{"coeff": 1.0, "wavevec": [True, 1]}], (1.0, 1.0))

    @pytest.mark.parametrize("name", ["coeff", "phase"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_numbers(self, name, value):
        spec = {"coeff": 1.0, "wavevec": [1], "phase": 0.0, name: value}
        with pytest.raises(ValueError, match=f"mode {name} must be finite"):
            TrigPolynomial.from_specs([spec], (1.0,))

    @pytest.mark.parametrize(
        "wavevec", [[2], [2.0], [np.int64(2)], np.array([2]), 2, np.float64(2.0)]
    )
    def test_integral_entries_are_kept_as_ints(self, wavevec):
        poly = TrigPolynomial.from_specs([{"coeff": 1.0, "wavevec": wavevec}], (1.0,))
        assert poly.modes == ((1.0, (2,), 0.0),)
        assert type(poly.modes[0][1][0]) is int


# the closed forms each time profile kind stands for, written out apart from
# ``TIME_KINDS``: (g, g') of t and the params
CLOSED_FORMS = {
    "constant": (lambda t, p: np.full_like(t, p["c"]), lambda t, p: np.zeros_like(t)),
    "linear": (lambda t, p: p["a"] + p["b"] * t, lambda t, p: np.full_like(t, p["b"])),
    "exp": (lambda t, p: np.exp(p["rate"] * t), lambda t, p: p["rate"] * np.exp(p["rate"] * t)),
    "cosh": (lambda t, p: np.cosh(t), lambda t, p: np.sinh(t)),
    "sech": (lambda t, p: 1.0 / np.cosh(t), lambda t, p: -np.tanh(t) / np.cosh(t)),
    "gauss": (lambda t, p: np.exp(-t * t), lambda t, p: -2.0 * t * np.exp(-t * t)),
}
DEFAULTS = {"constant": {"c": 1.0}, "linear": {"a": 1.0, "b": 0.0}, "exp": {"rate": 1.0}}
OWN_PARAMS = {"constant": {"c": 1.7}, "linear": {"a": 0.6, "b": -0.35}, "exp": {"rate": -0.8}}


class TestTimeProfile:
    def test_every_kind_has_a_closed_form(self):
        assert list(CLOSED_FORMS) == list(TIME_KINDS)

    @pytest.mark.parametrize("kind", list(TIME_KINDS))
    @pytest.mark.parametrize("own", [False, True], ids=["defaults", "own-params"])
    def test_value_and_deriv_match_the_closed_forms(self, kind, own):
        given = OWN_PARAMS.get(kind, {}) if own else {}
        profile = TimeProfile(kind, dict(given))
        params = {**DEFAULTS.get(kind, {}), **given}
        assert dict(profile.params) == params
        value, deriv = CLOSED_FORMS[kind]
        for t in (0.3, np.linspace(-1.5, 1.5, 7), np.linspace(-1.0, 1.0, 12).reshape(3, 1, 4)):
            t = np.asarray(t, dtype=float)
            assert_bitwise(profile.value(t), value(t, params))
            assert_bitwise(profile.deriv(t), deriv(t, params))

    @pytest.mark.parametrize("kind, param", [("exp", "c"), ("gauss", "rate"), ("linear", "rate"),
                                             ("constant", "a"), ("cosh", "c")])
    def test_an_undeclared_param_is_refused(self, kind, param):
        with pytest.raises(ValueError, match=f"^time profile '{kind}' takes no param '{param}'$"):
            TimeProfile(kind, {param: 3.0})

    def test_params_are_read_only(self):
        profile = TimeProfile("exp", {"rate": 2.0})
        with pytest.raises(TypeError):
            profile.params["rate"] = -1.0
        assert profile.params["rate"] == 2.0

    def test_a_model_pickles_with_its_profiles(self):
        model = default_model(1, resolution=16, twist="additive")
        copy = pickle.loads(pickle.dumps(model))
        assert (copy.twist.g, copy.twist.q) == (model.twist.g, model.twist.q)
        assert_bitwise(copy.twist.value(0.3, copy.fiber), model.twist.value(0.3, model.fiber))
        with pytest.raises(TypeError):
            copy.twist.q.params["b"] = 1.0

    def test_changing_the_given_dict_changes_nothing_built_on_it(self):
        # the twist of a model used to read the caller's dict at every call
        grid = FiberGrid(1, (1.0,), (16,))
        given = {"rate": 1.0}
        twist = TwistedFunction("pure_time", g=TimeProfile("exp", given))
        model = SpacetimeModel((-1.0, 1.0), grid, twist)
        kept = model.dlog_dt_range(64), str(classify(model))
        f = model.twist.value(0.3, grid)
        given["rate"] = -1.0
        assert model.dlog_dt_range(64) == kept[0] == (1.0, 1.0)
        assert str(classify(model)) == kept[1] == "expanding"
        assert_bitwise(model.twist.value(0.3, grid), f)
        # computed afresh, not kept: the twist still reads rate 1
        assert classify(model, t_samples=17).tag == "expanding"

    def test_a_default_model_keeps_its_profile(self):
        # writing g.params["rate"] used to change f while the model kept
        # its d/dt log f range of (1, 1)
        model = default_model(1, twist="grw_exp")
        assert model.dlog_dt_range(64) == (1.0, 1.0)
        with pytest.raises(TypeError):
            model.twist.g.params["rate"] = -1.0
        assert_bitwise(model.twist.dlog_dt(0.2, model.fiber), np.ones(model.fiber.shape))
