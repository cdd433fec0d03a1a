"""Twisted product spacetimes over a torus fiber.

A model is an open time interval I crossed with a ``FiberGrid``, glued by a
positive twist function f(t, x); the Lorentzian metric is
``-dt^2 + f^2 g_F``.  The twist comes from a small closed-form catalog so
that every time derivative the solver needs is exact.  When f depends on t
only, the model degenerates to a warped (GRW) product; the ``is_grw``
predicate and the torqued one-form detect that situation numerically.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError
from .fiber_grid import component_array, component_sum

__all__ = [
    "TWIST_FAMILIES",
    "TwistedFunction",
    "TwistAlong",
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

    A twist is immutable: assigning or deleting an attribute after
    ``__init__`` raises, so a model built on it, and anything computed from
    it, stays consistent with it.
    """

    def __init__(self, family, g=None, eps=0.0, s=None, q=None, amp=0.0, period=1.0):
        if family not in TWIST_FAMILIES:
            raise ValueError(f"unknown twist family {family!r}")
        fields = {
            "family": family, "g": g, "q": q, "s": s,
            "eps": float(eps), "amp": float(amp), "period": float(period),
        }
        for name, what in TWIST_FAMILIES[family].items():
            if what is not None and fields[name] is None:
                raise ValueError(f"family {family!r} needs {what}")
        if family == "traveling" and not abs(amp) < 1.0:
            raise ValueError("traveling twist needs |amp| < 1")
        if family == "traveling" and not fields["period"] > 0.0:
            raise ValueError("traveling twist needs period > 0")
        # set past __setattr__, which refuses every later assignment
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"TwistedFunction is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TwistedFunction is immutable: cannot delete {name!r}")

    # -- evaluators --------------------------------------------------------

    def along(self, t, grid):
        """The twist at times ``t`` over ``grid``: f, d/dt f and the fiber
        partials, each computed on first read (``TwistAlong``)."""
        return TwistAlong(self, t, grid)

    def value(self, t, grid):
        return self.along(t, grid).f

    def dt(self, t, grid):
        return self.along(t, grid).dt

    def fiber_partials(self, t, grid):
        """Exact partials (d f / d x_i), shape ``grid.shape + (n,)``."""
        return self.along(t, grid).partials

    # -- conveniences -------------------------------------------------------

    def dlog_dt(self, t, grid):
        return self.dt(t, grid) / self.value(t, grid)

    def fiber_grad_norm(self, t, grid):
        """Pointwise |grad_F f| with respect to the fiber metric."""
        partials = self.fiber_partials(t, grid)
        return np.sqrt(component_sum(partials * partials / grid.metric_diag))


class TwistAlong:
    """A twist at times ``t`` (broadcast against the grid shape) over a
    fiber grid: ``f``, ``dt`` (d/dt f) and ``partials`` (the exact fiber
    partials, shape ``+ (n,)``), each computed on first read and kept.

    Every family but ``traveling`` is f = g a (``pure_time``, ``separable``)
    or g + a q (``additive``) in a fiber factor a: 1, 1 + eps s or eps s,
    computed once per grid and kept on it.  f and the partials share one
    evaluation of g(t) and q(t).
    """

    def __init__(self, twist, t, grid):
        self.twist = twist
        self.t = np.asarray(t, dtype=float)
        self.grid = grid

    @cached_property
    def _factor(self):
        twist, grid = self.twist, self.grid
        if twist.family == "pure_time":
            return np.broadcast_to(1.0, grid.shape)  # g 1.0 is bitwise g

        def compute():
            eps_s = twist.eps * grid.sample(twist.s)
            return 1.0 + eps_s if twist.family == "separable" else eps_s

        # eps by its bits: eps = -0.0 and 0.0 give additive factors of different zeros
        return grid.cached((twist.family, twist.eps.hex(), twist.s), compute)

    def _combine(self, g, q, a):
        # g (1 + eps s) and g + eps s q round differently: keep both forms
        return g + a * q if self.twist.family == "additive" else g * a

    def _profiles(self, order):
        """The time profiles (g, q) of derivative ``order``; q only if additive."""
        twist = self.twist
        g = (twist.g.value, twist.g.deriv)[order](self.t)
        if twist.family != "additive":
            return g, None
        return g, (twist.q.value, twist.q.deriv)[order](self.t)

    # shared by f and the partials, and dropped once neither will read them
    _g_and_q = cached_property(lambda self: self._profiles(0))

    def _phase(self):
        """w and the phase w (t + x) of a traveling twist."""
        if self.grid.dim != 1:
            raise DomainError("traveling twist is defined on one-dimensional fibers")
        w = 2.0 * np.pi / self.twist.period
        return w, w * (self.t + self.grid.coords[0])

    @cached_property
    def f(self):
        if self.twist.family == "traveling":
            return 1.0 + self.twist.amp * np.sin(self._phase()[1])
        f = self._combine(*self._g_and_q, self._factor)
        if self.twist.family == "pure_time" or "partials" in vars(self):
            del self._g_and_q
        return f

    @cached_property
    def dt(self):
        if self.twist.family == "traveling":
            w, phase = self._phase()
            return self.twist.amp * w * np.cos(phase)
        return self._combine(*self._profiles(1), self._factor)

    @cached_property
    def partials(self):
        twist, grid = self.twist, self.grid
        shape = np.broadcast(self.t, grid.coords[0]).shape
        out = component_array(shape, grid.dim, zeros=True)
        if twist.family == "traveling":
            out[..., 0] = self.dt  # f depends on t + x
        elif twist.family == "separable":
            g_eps = self._g_and_q[0] * twist.eps
            for i in range(grid.dim):
                out[..., i] = g_eps * grid.sample(twist.s, i)
        elif twist.family == "additive":
            for i in range(grid.dim):
                out[..., i] = twist.eps * grid.sample(twist.s, i) * self._g_and_q[1]
        if "f" in vars(self):
            vars(self).pop("_g_and_q", None)
        return out

    def fiber_range(self):
        """The smallest and the largest f over the fiber at each time of the
        column ``t``, shaped ``(k,) + (1,) * dim``.  Correctly rounded products
        and sums are monotone in a, so a family with a fiber factor reads f at
        min a and max a only (NaN, infinities and zeros included); a
        traveling twist reads f over the whole fiber."""
        if self.twist.family == "traveling":
            f = self.f
        else:
            a = self._factor
            f = self._combine(*self._g_and_q, np.array([a.min(), a.max()]))
        f = f.reshape(len(self.t), -1)
        return f.min(axis=1), f.max(axis=1)


@dataclass(frozen=True)
class SpacetimeModel:
    """Twisted product of an open interval with a torus fiber.

    A model is frozen: what depends on it alone, such as the sampled range
    of d/dt log f and its ``classify`` result, is computed on first use and
    kept with it.  Its twist is immutable; its fiber is taken as fixed.
    """

    interval: tuple
    fiber: object
    twist: TwistedFunction
    # results kept by ``_kept``; dataclasses.replace gives the new model its own
    _results: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        t_min, t_max = (float(v) for v in self.interval)
        if not np.isfinite([t_min, t_max]).all():
            raise ValueError("interval endpoints must be finite")
        if not t_min < t_max:
            raise ValueError("interval must satisfy t_min < t_max")
        object.__setattr__(self, "interval", (t_min, t_max))
        if self.twist.family == "traveling":
            ratio = self.fiber.periods[0] / self.twist.period
            if abs(ratio - round(ratio)) > 1e-12 or round(ratio) < 1:
                raise ValueError(
                    "traveling twist needs the fiber period to be a multiple of the wave period"
                )
        self._check_positive()

    def _check_positive(self, t_samples=64):
        if self.twist.family == "traveling":  # f over the whole fiber: bounded blocks
            blocks = self.time_blocks(t_samples)
        else:  # f at two values of the fiber factor per time: one column
            blocks = [self.time_samples(t_samples).reshape((-1,) + (1,) * self.fiber.dim)]
        ranges = [self.twist.along(block, self.fiber).fiber_range() for block in blocks]
        low, high = (np.concatenate(ends) for ends in zip(*ranges))
        # every value lies in (0, inf) exactly when the smallest is > 0 and
        # the largest < inf; a NaN fails both
        bad = ~((low > 0.0) & (high < np.inf))
        if bad.any():
            t = self.time_samples(t_samples)[np.argmax(bad)]
            raise ValueError(f"twist function is not positive near t={t:.6g}")
        if self.twist.family == "separable":
            s_max = float(np.max(np.abs(self.fiber.sample(self.twist.s))))
            if abs(self.twist.eps) * s_max >= 1.0:
                raise ValueError("separable twist needs |eps| * max|s| < 1")

    def _kept(self, key, compute):
        """``compute()``, computed on the first call with ``key`` and kept:
        it must depend on the model alone.  A call that raises keeps
        nothing."""
        try:
            return self._results[key]
        except KeyError:
            result = self._results[key] = compute()
            return result

    def dlog_dt_range(self, t_samples):
        """(inf, sup) of d/dt log f over the ``time_samples(t_samples)``
        lattice times the fiber, computed once per count.  NaN samples (from
        an overflowed twist) are skipped."""
        def sweep():
            lo, hi = np.inf, -np.inf
            for block in self.time_blocks(t_samples):
                vals = self.twist.dlog_dt(block, self.fiber)
                # fmin/fmax skip NaNs; a plain min would return NaN and drop
                # every time of the block from the bounds
                lo = min(lo, float(np.fmin.reduce(vals, axis=None)))
                hi = max(hi, float(np.fmax.reduce(vals, axis=None)))
            return lo, hi

        return self._kept(("dlog_dt_range", t_samples), sweep)

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

    The verdict is computed once per model and sample count; each call
    returns its own copy of it.
    """
    if t_samples < 16:
        raise ValueError("t_samples must be at least 16")
    kept = model._kept(("classify", t_samples), lambda: _classify(model, t_samples))
    return replace(kept, evidence=dict(kept.evidence))


def _classify(model, t_samples):
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
