"""Twisted product spacetimes over a torus fiber.

A model is an open time interval I crossed with a ``FiberGrid``, glued by a
positive twist function f(t, x); the Lorentzian metric is
``-dt^2 + f^2 g_F``.  The twist comes from a small closed-form catalog so
that every time derivative the solver needs is exact.  When f depends on t
only, the model degenerates to a warped (GRW) product; the ``is_grw``
predicate and the torqued one-form detect that situation numerically.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fiber_grid import component_array, component_sum

__all__ = [
    "TWIST_FAMILIES",
    "TwistedFunction",
    "SpacetimeModel",
    "ExpansionClass",
    "classify",
    "is_grw",
    "torqued_one_form",
    "slice_mean_curvature",
    "slice_umbilicity",
]

# family -> its constructor arguments, each with what the constructor names
# when it is missing, or None where the argument has a default
TWIST_FAMILIES = {
    "pure_time": {"g": "a time profile g"},
    "separable": {"g": "a time profile g", "eps": None, "s": "a fiber profile s"},
    "additive": {
        "g": "a time profile g",
        "eps": None,
        "s": "a fiber profile s",
        "q": "a time profile q",
    },
    "traveling": {"amp": None, "period": None},
}

SIGN_TOL = 1e-12  # |d/dt f| below this counts as zero in classifications

# times x nodes per block of a sampled time sweep: each float64 temporary of
# one twist evaluation stays at 512 KB
_SWEEP_ELEMENTS = 2**16


class TwistedFunction:
    """Closed-form twist f(t, x) with exact derivative evaluators.

    Families
    --------
    pure_time   f = g(t)                       (GRW / warped)
    separable   f = g(t) (1 + eps s(x))
    additive    f = g(t) + eps s(x) q(t)
    traveling   f = 1 + a sin(2 pi (t + x)/T)  (one-dimensional fiber only)

    with g, q drawn from the ``TimeProfile`` catalog and s a
    ``TrigPolynomial``.  All evaluators take a time argument (scalar or an
    array broadcastable against the grid shape) and the fiber grid, and
    return node arrays.
    """

    def __init__(self, family, g=None, eps=0.0, s=None, q=None, amp=0.0, period=1.0):
        if family not in TWIST_FAMILIES:
            raise ValueError(f"unknown twist family {family!r}")
        self.family = family
        self.g = g
        self.q = q
        self.s = s
        self.eps = float(eps)
        self.amp = float(amp)
        self.period = float(period)
        for name, what in TWIST_FAMILIES[family].items():
            if what is not None and getattr(self, name) is None:
                raise ValueError(f"family {family!r} needs {what}")
        if family == "traveling" and not abs(amp) < 1.0:
            raise ValueError("traveling twist needs |amp| < 1")
        if family == "traveling" and not self.period > 0.0:
            raise ValueError("traveling twist needs period > 0")

    def _traveling_phase(self, t, grid):
        if grid.dim != 1:
            raise DomainError("traveling twist is defined on one-dimensional fibers")
        w = 2.0 * np.pi / self.period
        return w, w * (np.asarray(t, dtype=float) + grid.coords[0])

    # -- evaluators --------------------------------------------------------

    def _profiles(self, t, order):
        """Time profiles (g, q) of derivative ``order`` at t; q only for additive."""
        g = (self.g.value, self.g.deriv)[order](t)
        if self.family != "additive":
            return g, None
        return g, (self.q.value, self.q.deriv)[order](t)

    def _fiber_factor(self, grid):
        """The fiber factor a(x) of a separable (f = g a, a = 1 + eps s) or
        additive (f = g + a q, a = eps s) twist: computed once per grid and
        kept read-only beside the profile samples."""
        def compute():
            eps_s = self.eps * grid.sample(self.s)
            return 1.0 + eps_s if self.family == "separable" else eps_s

        # eps by its bits: eps = -0.0 and 0.0 give additive factors of different zeros
        return grid.cached((self.family, self.eps.hex(), self.s), compute)

    def _combine(self, t, grid, g, q, factor=None):
        """f, or one of its time derivatives, from the profiles of that order
        and the fiber factor (the grid's, unless ``factor`` is given)."""
        if self.family == "pure_time":
            return np.broadcast_to(g, np.broadcast(t, grid.coords[0]).shape).copy()
        a = self._fiber_factor(grid) if factor is None else factor
        # g (1 + eps s) and g + eps s q round differently: keep both forms
        if self.family == "separable":
            return g * a
        return g + a * q

    def _time_derivative(self, t, grid, order):
        """d^order f / dt^order at (t, x), for order 0 or 1."""
        t = np.asarray(t, dtype=float)
        if self.family == "traveling":
            w, phase = self._traveling_phase(t, grid)
            if order:
                return self.amp * w * np.cos(phase)
            return 1.0 + self.amp * np.sin(phase)
        return self._combine(t, grid, *self._profiles(t, order))

    def _partials(self, t, grid, g, q):
        """Fiber partials from the order-0 profiles g, q (unused where f has
        no fiber dependence through them)."""
        shape = np.broadcast(t, grid.coords[0]).shape
        out = component_array(shape, grid.dim, zeros=True)
        if self.family == "pure_time":
            return out
        if self.family == "traveling":
            w, phase = self._traveling_phase(t, grid)
            out[..., 0] = self.amp * w * np.cos(phase)
        elif self.family == "separable":
            g_eps = g * self.eps
            for i in range(grid.dim):
                out[..., i] = g_eps * grid.sample(self.s, i)
        else:
            for i in range(grid.dim):
                out[..., i] = self.eps * grid.sample(self.s, i) * q
        return out

    def value(self, t, grid):
        return self._time_derivative(t, grid, 0)

    def dt(self, t, grid):
        return self._time_derivative(t, grid, 1)

    def fiber_partials(self, t, grid):
        """Exact partials (d f / d x_i), shape ``grid.shape + (n,)``."""
        t = np.asarray(t, dtype=float)
        if self.family in ("pure_time", "traveling"):
            return self._partials(t, grid, None, None)
        return self._partials(t, grid, *self._profiles(t, 0))

    def evaluate(self, t, grid):
        """(f, d/dt f, fiber partials) at (t, x), bitwise ``value``, ``dt`` and
        ``fiber_partials``; f and the partials share one evaluation of the
        time profiles."""
        t = np.asarray(t, dtype=float)
        if self.family == "traveling":
            return self.value(t, grid), self.dt(t, grid), self.fiber_partials(t, grid)
        g, q = self._profiles(t, 0)
        return self._combine(t, grid, g, q), self.dt(t, grid), self._partials(t, grid, g, q)

    # -- conveniences -------------------------------------------------------

    def dlog_dt(self, t, grid):
        return self.dt(t, grid) / self.value(t, grid)

    def fiber_grad_norm(self, t, grid):
        """Pointwise |grad_F f| with respect to the fiber metric."""
        partials = self.fiber_partials(t, grid)
        return np.sqrt(component_sum(partials * partials / grid.metric_diag))


@dataclass
class SpacetimeModel:
    """Twisted product of an open interval with a torus fiber."""

    interval: tuple
    fiber: object
    twist: TwistedFunction

    def __post_init__(self):
        t_min, t_max = (float(v) for v in self.interval)
        if not t_min < t_max:
            raise ValueError("interval must satisfy t_min < t_max")
        self.interval = (t_min, t_max)
        if self.twist.family == "traveling":
            ratio = self.fiber.periods[0] / self.twist.period
            if abs(ratio - round(ratio)) > 1e-12 or round(ratio) < 1:
                raise ValueError(
                    "traveling twist needs the fiber period to be a multiple of the wave period"
                )
        self._check_positive()

    def _check_positive(self, t_samples=64):
        for times, values in self._positivity_sweep(t_samples):
            # every value lies in (0, inf) exactly when the smallest is > 0
            # and the largest < inf; a NaN fails both
            bad = ~((values.min(axis=1) > 0.0) & (values.max(axis=1) < np.inf))
            if bad.any():
                t = times[np.argmax(bad)]
                raise ValueError(f"twist function is not positive near t={t:.6g}")
        if self.twist.family == "separable":
            s_max = float(np.max(np.abs(self.fiber.sample(self.twist.s))))
            if abs(self.twist.eps) * s_max >= 1.0:
                raise ValueError("separable twist needs |eps| * max|s| < 1")

    def _positivity_sweep(self, t_samples):
        """(times, values) blocks over the ``time_samples`` lattice; row i of
        ``values`` holds values of f at ``times[i]`` whose smallest and
        largest are those of f over the fiber.

        A separable or additive f is g a or g + a q with the fiber factor a,
        and correctly rounded products and sums are monotone in a, so at
        each time f over the fiber has its extremes (NaN, infinities and
        zeros included) at min a and max a: one evaluation at those two
        factors covers every time.  Other families sweep the whole fiber.
        """
        twist, grid = self.twist, self.fiber
        if twist.family in ("separable", "additive"):
            a = twist._fiber_factor(grid)
            extremes = np.array([a.min(), a.max()])
            times = self.time_samples(t_samples)[:, None]
            g, q = twist._profiles(times, 0)
            return [(times.ravel(), twist._combine(times, grid, g, q, factor=extremes))]
        return (
            (block.ravel(), twist.value(block, grid).reshape(len(block), -1))
            for block in self.time_blocks(t_samples)
        )

    def time_samples(self, count):
        """Midpoint lattice over the open interval (endpoints excluded)."""
        if count < 1:
            raise ValueError(f"time sample count must be at least 1, got {count}")
        t_min, t_max = self.interval
        step = (t_max - t_min) / count
        return t_min + (np.arange(count) + 0.5) * step

    def time_blocks(self, count):
        """The ``time_samples(count)`` lattice, in order, as consecutive blocks
        shaped ``(k,) + (1,) * dim`` that broadcast against the fiber.

        A block holds at most ``_SWEEP_ELEMENTS // nodes`` times and at least
        one, so one twist evaluation sweeps a block of times at once.
        """
        times = self.time_samples(count)
        k = max(1, _SWEEP_ELEMENTS // self.fiber.n_nodes)
        shape = (-1,) + (1,) * self.fiber.dim
        return [times[i:i + k].reshape(shape) for i in range(0, count, k)]

    def require_inside(self, t, what="time value"):
        t = np.asarray(t, dtype=float)
        t_min, t_max = self.interval
        if np.any(t <= t_min) or np.any(t >= t_max):
            raise DomainError(
                f"{what} outside the open interval ({t_min:g}, {t_max:g})"
            )
        return t

    @property
    def span(self):
        return self.interval[1] - self.interval[0]


@dataclass
class ExpansionClass:
    """Classification of the sign behaviour of d/dt f over the model."""

    tag: str  # "expanding" | "contracting" | "transition" | "mixed"
    t0: float = None
    evidence: dict = field(default_factory=dict)

    def __str__(self):
        if self.tag == "transition":
            return f"transition(t0={self.t0:.12g})"
        return self.tag


def classify(model, t_samples=64):
    """Classify the model as expanding, contracting, transition or mixed.

    Signs of d/dt f are sampled on a ``t_samples`` x nodes lattice.  A
    transition verdict needs a single +/- sign change at the same time for
    every fiber node; the change point is located by bisection to 1e-10.
    Spatially varying change points are reported as mixed.
    """
    if t_samples < 16:
        raise ValueError("t_samples must be at least 16")
    grid = model.fiber
    times = model.time_samples(t_samples)
    # signs accumulate block by block; per node, one more than the last
    # positive sample and t_samples less the first negative one, each a
    # running max that stays 0 where there is no such sample
    min_dt, max_dt = np.inf, -np.inf
    n_pos = n_neg = start = 0
    last_pos = np.zeros(grid.shape, dtype=np.int32)
    first_neg = np.zeros(grid.shape, dtype=np.int32)
    for block in model.time_blocks(t_samples):
        dft = model.twist.dt(block, grid)
        # np.minimum and np.maximum keep a NaN, as one min over all blocks would
        min_dt = np.minimum(min_dt, dft.min())
        max_dt = np.maximum(max_dt, dft.max())
        pos = dft > SIGN_TOL
        neg = dft < -SIGN_TOL
        n_pos += int(np.count_nonzero(pos))
        n_neg += int(np.count_nonzero(neg))
        rows = np.arange(start, start + len(block), dtype=np.int32).reshape(block.shape)
        start += len(block)
        np.maximum(last_pos, (pos * (rows + 1)).max(axis=0), out=last_pos)
        np.maximum(first_neg, (neg * (t_samples - rows)).max(axis=0), out=first_neg)

    min_dt = float(min_dt)
    max_dt = float(max_dt)
    size = t_samples * grid.n_nodes
    evidence = {
        "t_samples": int(t_samples),
        "min_dt": min_dt,
        "max_dt": max_dt,
        "frac_positive": n_pos / size,
        "frac_negative": n_neg / size,
    }

    if min_dt > SIGN_TOL:
        return ExpansionClass("expanding", evidence=evidence)
    if max_dt < -SIGN_TOL:
        return ExpansionClass("contracting", evidence=evidence)

    last_pos -= 1                    # -1 where d/dt f is never positive
    first_neg = t_samples - first_neg  # t_samples where it is never negative
    if np.all(last_pos >= 0) and np.all(first_neg < t_samples):
        if np.all(last_pos < first_neg):
            lo = times[last_pos].astype(float)
            hi = times[first_neg].astype(float)
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                take_lo = model.twist.dt(mid, grid) > 0.0
                lo = np.where(take_lo, mid, lo)
                hi = np.where(take_lo, hi, mid)
                if float(np.max(hi - lo)) < 1e-10:
                    break
            roots = 0.5 * (lo + hi)
            spread = float(roots.max() - roots.min())
            evidence["root_spread"] = spread
            if spread <= 1e-8:
                return ExpansionClass(
                    "transition", t0=float(roots.mean()), evidence=evidence
                )
    return ExpansionClass("mixed", evidence=evidence)


def is_grw(model, t_samples=33):
    """True iff the twist is numerically independent of the fiber point.

    Checks max |grad_F f| / f <= 1e-12 on a sampled time lattice; the fiber
    gradient comes from the exact partial evaluators, so genuinely warped
    twists give an exact zero.
    """
    grid = model.fiber
    worst = 0.0
    for block in model.time_blocks(t_samples):
        ratio = model.twist.fiber_grad_norm(block, grid) / model.twist.value(block, grid)
        # fmax skips NaNs, as in certificate_check
        worst = max(worst, float(np.fmax.reduce(ratio, axis=None)))
    return worst <= 1e-12


def torqued_one_form(model, t, V):
    """Pair the one-form d(log f) restricted to the fiber with a field V.

    Returns the node field sum_i (d_i log f) V^i at time t; identically zero
    exactly when the product is warped.
    """
    model.require_inside(t)
    grid = model.fiber
    V = grid.check_vector(V, "V")
    partials = model.twist.fiber_partials(t, grid)
    return component_sum(partials * V) / model.twist.value(t, grid)


def slice_mean_curvature(model, t0):
    """Mean curvature of the level slice {t = t0}: d/dt log f at (t0, x)."""
    t0 = float(model.require_inside(t0, "slice time t0"))
    return model.twist.dlog_dt(t0, model.fiber)


def slice_umbilicity(model, t0):
    """Umbilic factor of the slice {t = t0}; its shape operator is this times Id."""
    return -slice_mean_curvature(model, t0)
