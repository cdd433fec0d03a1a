"""Closed-form scalar profiles with exact derivatives.

Two small catalogs shared across the workbench: one-variable time profiles
g(t) and periodic trigonometric polynomials s(x) on the fiber.  Both expose
exact derivative evaluators; nothing here is differentiated numerically.
"""

import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = ["TIME_KINDS", "TimeProfile", "TrigPolynomial"]

# kind -> (param defaults, g, g'); g and g' take t and the params by name
TIME_KINDS = {
    "constant": (
        {"c": 1.0},
        lambda t, c: np.full_like(t, c),
        lambda t, c: np.zeros_like(t),
    ),
    "linear": (
        {"a": 1.0, "b": 0.0},
        lambda t, a, b: a + b * t,
        lambda t, a, b: np.full_like(t, b),
    ),
    "exp": (
        {"rate": 1.0},
        lambda t, rate: np.exp(rate * t),
        lambda t, rate: rate * np.exp(rate * t),
    ),
    "cosh": ({}, np.cosh, np.sinh),
    "sech": ({}, lambda t: 1.0 / np.cosh(t), lambda t: -np.tanh(t) / np.cosh(t)),
    "gauss": ({}, lambda t: np.exp(-t * t), lambda t: -2.0 * t * np.exp(-t * t)),
}


@dataclass(frozen=True)
class TimeProfile:
    """A time profile g(t) of a kind in ``TIME_KINDS``, with its params.

    A param the kind does not declare is refused.  The profile keeps a
    read-only copy of its params with the defaults filled in, so a change to
    the dict it was given changes nothing built on it.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TIME_KINDS:
            raise ValueError(f"unknown time profile {self.kind!r}")
        defaults = TIME_KINDS[self.kind][0]
        unknown = self.params.keys() - defaults.keys()
        if unknown:
            raise ValueError(f"time profile {self.kind!r} takes no param {min(unknown)!r}")
        object.__setattr__(self, "params", MappingProxyType({**defaults, **self.params}))

    def __reduce__(self):
        # a mappingproxy does not pickle; the dict it reads does
        return TimeProfile, (self.kind, dict(self.params))

    def value(self, t):
        return TIME_KINDS[self.kind][1](np.asarray(t, dtype=float), **self.params)

    def deriv(self, t):
        return TIME_KINDS[self.kind][2](np.asarray(t, dtype=float), **self.params)


def _finite(value, name):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"mode {name} must be finite, got {value!r}")
    return value


def _whole(k):
    """A wavevector entry as an int; bools and fractional values are refused."""
    integral = isinstance(k, numbers.Integral) or (
        isinstance(k, numbers.Real) and float(k).is_integer()
    )
    if isinstance(k, bool) or not integral:
        raise ValueError(f"wavevector entries must be integers, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class TrigPolynomial:
    """Periodic trig polynomial sum_k c_k cos(2 pi k.x/L + phi_k).

    modes:
        sequence of (coeff, wavevector, phase) with integer wavevector
        entries, one per fiber axis.
    periods:
        axis periods L_i; wavevectors count whole periods per axis.
    """

    modes: tuple
    periods: tuple

    @staticmethod
    def from_specs(mode_specs, periods):
        """Build from dicts ``{"coeff", "wavevec", "phase" (optional)}``.

        Raises ValueError for a non-finite coefficient or phase and for a
        wavevector entry that is a bool or not integral; an integral float
        such as 2.0 counts as an integer, as in the config schema.
        """
        periods = tuple(float(L) for L in periods)
        modes = []
        for spec in mode_specs:
            coeff = _finite(spec["coeff"], "coeff")
            entries = np.atleast_1d(np.asarray(spec["wavevec"], dtype=object))
            wavevec = tuple(_whole(k) for k in entries)
            if len(wavevec) != len(periods):
                raise ValueError("wavevector length must match fiber dimension")
            phase = _finite(spec.get("phase", 0.0), "phase")
            modes.append((coeff, wavevec, phase))
        return TrigPolynomial(tuple(modes), periods)

    def _angles(self, coords, wavevec, phase):
        """phase + sum_i 2 pi k_i x_i / L_i, added axis by axis from the
        scalar phase: on open axes each term costs m_i products, and a mode
        constant along an axis keeps the smaller broadcast shape."""
        ang = phase
        for x, k, L in zip(coords, wavevec, self.periods):
            if k:
                ang = ang + (2.0 * np.pi * k / L) * x
        return ang

    def _scaled_mode(self, trig, scale, coords, wavevec, phase):
        """scale * trig(angles) of one mode.  ``_angles`` returns a fresh
        array whenever a wavenumber is nonzero, so trig and scale then
        overwrite it; a scalar phase is scaled as a scalar."""
        ang = self._angles(coords, wavevec, phase)
        if not isinstance(ang, np.ndarray):
            return scale * trig(ang)
        trig(ang, out=ang)
        ang *= scale
        return ang

    def value(self, *coords):
        out = np.zeros(np.broadcast(*coords).shape)
        for coeff, wavevec, phase in self.modes:
            out += self._scaled_mode(np.cos, coeff, coords, wavevec, phase)
        return out

    def partial(self, axis, *coords):
        out = np.zeros(np.broadcast(*coords).shape)
        for coeff, wavevec, phase in self.modes:
            k = wavevec[axis]
            if k:
                scale = coeff * (2.0 * np.pi * k / self.periods[axis])
                out -= self._scaled_mode(np.sin, scale, coords, wavevec, phase)
        return out
