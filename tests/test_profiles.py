import numpy as np
import pytest

from twistbench import FiberGrid, TrigPolynomial

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
