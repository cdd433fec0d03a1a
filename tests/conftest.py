import numpy as np
import pytest

from twistbench import FiberGrid, SpacetimeModel, TimeProfile, TrigPolynomial, TwistedFunction


def unit_torus(dim, m, curved=False):
    coeffs = None
    if curved:
        def G0(*coords):
            return 1.0 + 0.2 * np.cos(2.0 * np.pi * coords[0])

        coeffs = [G0] + [None] * (dim - 1)
    return FiberGrid(dim, (1.0,) * dim, (m,) * dim, metric_coeffs=coeffs)


def ripple(grid, coeff=1.0, phase=0.0):
    wave = (1,) + (0,) * (grid.dim - 1)
    return TrigPolynomial.from_specs(
        [{"coeff": coeff, "wavevec": wave, "phase": phase}], grid.periods
    )


def random_trig_field(grid, seed, amplitude=0.4, max_mode=1, n_modes=3):
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(n_modes):
        wavevec = tuple(int(k) for k in rng.integers(-max_mode, max_mode + 1, grid.dim))
        if all(k == 0 for k in wavevec):
            wavevec = (1,) + (0,) * (grid.dim - 1)
        modes.append(
            {
                "coeff": float(rng.uniform(-amplitude, amplitude)),
                "wavevec": wavevec,
                "phase": float(rng.uniform(0.0, 2.0 * np.pi)),
            }
        )
    return TrigPolynomial.from_specs(modes, grid.periods).value(*grid.coords)


@pytest.fixture
def grid1d():
    return unit_torus(1, 128)


@pytest.fixture
def grid2d():
    return unit_torus(2, 32)


def flat_grw_model(dim=1, m=128, interval=(-1.0, 1.0)):
    """Minkowski-like model: f identically one."""
    grid = unit_torus(dim, m)
    twist = TwistedFunction("pure_time", g=TimeProfile("constant", {"c": 1.0}))
    return SpacetimeModel(interval, grid, twist)


def count_calls(monkeypatch, cls, name):
    """A list that gains one entry per call of method ``cls.name`` from here on."""
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


# Reference stencils: the np.roll / np.stack / np.sum forms that FiberGrid's
# sliced kernels replace.  The kernels must reproduce them bit for bit.

def roll_diff(grid, field, axis):
    h = grid.spacing[axis]
    return (np.roll(field, -1, axis=axis) - np.roll(field, 1, axis=axis)) / (2.0 * h)


def stack_partials(grid, phi):
    return np.stack([roll_diff(grid, phi, i) for i in range(grid.dim)], axis=-1)


def zeros_divergence(grid, V):
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out += roll_diff(grid, grid.sqrt_det * V[..., i], i)
    return out / grid.sqrt_det


def sum_inner(grid, V, W):
    return np.sum(grid.metric_diag * V * W, axis=-1)


def assert_bitwise(actual, expected):
    """Same shape and the same bytes: equal values, signed zeros included."""
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
