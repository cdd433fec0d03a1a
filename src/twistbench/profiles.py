"""Closed-form scalar profiles with exact derivatives.

Two small catalogs shared across the workbench: one-variable time profiles
g(t) and periodic trigonometric polynomials s(x) on the fiber.  Both expose
exact derivative evaluators; nothing here is differentiated numerically.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TIME_KINDS", "TimeProfile", "TrigPolynomial"]

TIME_KINDS = ("constant", "linear", "exp", "cosh", "sech", "gauss")


@dataclass(frozen=True)
class TimeProfile:
    """One of the built-in time profiles g(t).

    kind:
        "constant"  g = c               params: c
        "linear"    g = a + b t         params: a, b
        "exp"       g = exp(rate t)     params: rate
        "cosh"      g = cosh t
        "sech"      g = 1 / cosh t
        "gauss"     g = exp(-t^2)
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TIME_KINDS:
            raise ValueError(f"unknown time profile {self.kind!r}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.params.get("c", 1.0))
        if self.kind == "linear":
            return self.params.get("a", 1.0) + self.params.get("b", 0.0) * t
        if self.kind == "exp":
            return np.exp(self.params.get("rate", 1.0) * t)
        if self.kind == "cosh":
            return np.cosh(t)
        if self.kind == "sech":
            return 1.0 / np.cosh(t)
        return np.exp(-t * t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        if self.kind == "linear":
            return np.full_like(t, self.params.get("b", 0.0))
        if self.kind == "exp":
            rate = self.params.get("rate", 1.0)
            return rate * np.exp(rate * t)
        if self.kind == "cosh":
            return np.sinh(t)
        if self.kind == "sech":
            return -np.tanh(t) / np.cosh(t)
        return -2.0 * t * np.exp(-t * t)


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
        periods = tuple(float(L) for L in periods)
        modes = []
        for spec in mode_specs:
            coeff = float(spec["coeff"])
            wavevec = tuple(int(k) for k in np.atleast_1d(spec["wavevec"]))
            if len(wavevec) != len(periods):
                raise ValueError("wavevector length must match fiber dimension")
            phase = float(spec.get("phase", 0.0))
            modes.append((coeff, wavevec, phase))
        return TrigPolynomial(tuple(modes), periods)

    def _angles(self, coords, wavevec, phase):
        ang = np.full(np.broadcast(*coords).shape, phase)
        for x, k, L in zip(coords, wavevec, self.periods):
            if k:
                ang = ang + (2.0 * np.pi * k / L) * x
        return ang

    def value(self, *coords):
        out = np.zeros(np.broadcast(*coords).shape)
        for coeff, wavevec, phase in self.modes:
            out += coeff * np.cos(self._angles(coords, wavevec, phase))
        return out

    def partial(self, axis, *coords):
        out = np.zeros(np.broadcast(*coords).shape)
        for coeff, wavevec, phase in self.modes:
            k = wavevec[axis]
            if k:
                out -= (
                    coeff
                    * (2.0 * np.pi * k / self.periods[axis])
                    * np.sin(self._angles(coords, wavevec, phase))
                )
        return out
