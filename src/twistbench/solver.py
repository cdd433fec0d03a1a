"""Prescribed-mean-curvature solver on the closed fiber.

Solves H[u] = H0 (maximal for H0 = 0) with a damped Newton-Krylov outer
loop, a pseudo-transient relaxation fallback for poor initializers, and two
kinds of non-existence reporting: an analytic bound certificate from the
extrema of d/dt log f, and a drift diagnostic when the relaxed iterate runs
away toward an interval endpoint.  Converged outcomes are re-verified
through both mean-curvature code paths before being reported.

Newton directions come from lgmres on the assembled sparse Jacobian.  The
residual is in divergence form, R = S^-1 sum_i D_i(S F_i) + P with
S = sqrt det g_F, the flux F = rho grad_F u and P the pointwise terms, and
F and P are functions of (u, Du) node by node.  So the Jacobian follows
from their derivatives in u and in each covector component p_l, which
2(n+1) pointwise kits give by central differences, composed with the
centred difference D: no residual is evaluated for it (the analytic side of
the trade-off surveyed by Knoll and Keyes, J. Comput. Phys. 2004).  It
reads u on the L1 ball of radius 2 around each node (D applied twice).

The Jacobian is a variable-coefficient elliptic stencil on a periodic
lattice, so lgmres is preconditioned with the inverse of its
Frobenius-nearest circulant (T. F. Chan, SIAM J. Sci. Stat. Comput. 1988):
the stencil averaged over the lattice, inverted mode by mode with the FFT.

The centred difference cannot see the means of the 2^e parity sublattices
(e the number of even-sized axes), so the Jacobian can be near-null there:
on the constant of a slice family, or on the constant and checkerboard of an
expanding model with no solution.  Each Newton step measures J on those
means, and when its smallest singular value falls far below the circulant
symbol on every other mode the Krylov solve is gauge-fixed: it runs with
the sublattice means projected out (deflation, Frank and Vuik, SIAM J. Sci.
Comput. 2001).  When nearly all of the residual lies in those means, Newton
hands over to the relaxation fallback, which alone moves them.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import svdvals
from scipy.sparse import csc_array
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import DomainError, SpacelikeError
from .fiber_grid import component_sum
from .graphs import (
    GraphField,
    _Kit,
    _kit,
    geometry_report,
    mean_curvature_from_laplacian,
)
from .initializers import resolve_initializer
from .spacetime import classify

__all__ = [
    "SolveConfig",
    "SolveOutcome",
    "residual_field",
    "certificate_check",
    "solve",
    "rigidity_report",
    "RigidityReport",
]

# errors that mean "this Newton direction cannot be built", as
# opposed to a fault in the program, which must propagate
_STEP_ERRORS = (SpacelikeError, DomainError, np.linalg.LinAlgError)

# the residual at a node reads u on the L1 ball of this radius around it
_RESIDUAL_REACH = 2

# the line search shrinks its step by this factor, down to this step
_LINESEARCH_FACTOR = 0.5
_MIN_STEP = 1e-8

# A converged u is rejected when a class mean of u - mean(u) over the parity
# sublattices exceeds this bound times 1 + max|u|: a grid-scale mode that the
# centred difference, and so the residual and both curvature paths, cannot
# see.  Every converged outcome of the test suite reads at most 1.8e-15; the
# sawtooth 0.1 + 0.05 (-1)^|i| reads 0.05.
_SUBLATTICE_BOUND = 1e-12

# A Newton step runs gauge-fixed when the smallest singular value of the
# Jacobian on the sublattice means is at most this fraction of the smallest
# circulant-symbol magnitude over the other modes.  Both scale alike with the
# grid.  Transition-model starts never read below 3.0e-3.  On 64 expanding-
# model drift solves with the gate shut, plain lgmres converged in 89 of 90
# solves above 1e-4 (the other read 1.01e-4), 19 of 28 in (1e-5, 1e-4], and
# 3 of 137 below.
_GAUGE_GATE = 1e-4

# A gauge-fixed step hands over to the relaxation fallback when the
# residual's part off the sublattice means is at most this fraction of it:
# the rest is gauge motion, which only the fallback can remove, and no
# gauge-fixed step can lower the residual by more than this fraction.
_GAUGE_HANDOVER = 1e-3


@dataclass
class SolveConfig:
    """Solver parameters; every safeguard is tunable but defaults are sane.

    target:
        a float H0 for constant mean curvature, or the string
        "generalized" for the residual H - g(N, grad log f).
    initial:
        a GraphField, or an initializer spec such as
        {"kind": "constant", "value": 0.3} or
        {"kind": "random_trig", "seed": 7, "amplitude": 0.1}.
    """

    target: object = 0.0
    initial: object = None
    residual_tol: float = 1e-10
    max_newton_iters: int = 50
    krylov_rtol: float = 1e-8
    krylov_maxiter: int = 500  # total inner-iteration budget
    spacelike_cap: float = 0.99
    interval_margin: float = 1e-6
    check_certificate: bool = True
    certificate_samples: int = 256
    fallback_chunk: int = 60
    fallback_max_sweeps: int = 600
    drift_window: int = 20

    def __post_init__(self):
        if self.target != "generalized":
            self.target = float(self.target)
        if not (0.0 < self.spacelike_cap < 1.0):
            raise ValueError("spacelike_cap must lie in (0, 1)")
        for name in ("residual_tol", "krylov_rtol", "interval_margin"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.certificate_samples < 16:
            raise ValueError("certificate_samples must be at least 16")


@dataclass
class SolveOutcome:
    """Tagged solver result.

    tag "converged":      graph, residual_norm, iterations, report
    tag "nonexistence":   certificate {"reason": "bound" | "drift", ...}
    tag "not_converged":  best residual and diagnostics
    """

    tag: str
    graph: GraphField = None
    residual_norm: float = float("nan")
    iterations: int = 0
    report: object = None
    certificate: dict = None
    diagnostics: dict = field(default_factory=dict)
    log: list = field(default_factory=list)


def _target_field(kit, target):
    if target == "generalized":
        fiber_term = component_sum(
            (kit.fiber_df / kit.f[..., None]) * kit.rho[..., None] * kit.grad_u
        )
        return kit.dlogf * kit.cosh + fiber_term
    return target


def _residual(kit, target):
    return kit.n * (kit.H - _target_field(kit, target))


def residual_field(graph, target=0.0):
    """Residual n (H[u] - target), pointwise on the fiber."""
    return _residual(_kit(graph), target)


def certificate_check(model, h0, t_samples=256):
    """Analytic non-existence certificate from the extrema of d/dt log f.

    Any closed constant-mean-curvature graph has its H between the values of
    d/dt log f at the extrema of its height, so H0 outside the sampled
    [inf, sup] of d/dt log f over interval x fiber excludes solutions.  The
    bounds cover the configured interval only; the certificate says so.
    """
    grid = model.fiber
    lo = np.inf
    hi = -np.inf
    for block in model.time_blocks(t_samples):
        vals = model.twist.dlog_dt(block, grid)
        # fmin/fmax skip NaNs (from an overflowed twist); a plain min would
        # return NaN and drop every time of the block from the bounds
        lo = min(lo, float(np.fmin.reduce(vals, axis=None)))
        hi = max(hi, float(np.fmax.reduce(vals, axis=None)))
    if h0 < lo or h0 > hi:
        return {
            "reason": "bound",
            "target": float(h0),
            "inf_dlog_f": lo,
            "sup_dlog_f": hi,
            "interval": list(model.interval),
            "t_samples": int(t_samples),
            "note": (
                "bounds hold over the configured interval and fiber lattice "
                "only; the spacetime outside the interval is not examined"
            ),
        }
    return None


# ---------------------------------------------------------------------------


class _Driver:
    """Mutable solve state: trial points, logging, safeguards.  The kit a
    ``trial`` builds travels with the iterate, so nothing rebuilds it."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        t_min, t_max = model.interval
        self.lo = t_min + config.interval_margin
        self.hi = t_max - config.interval_margin
        self.span = t_max - t_min
        self.log = []
        self.step_count = 0
        self.drift_history = []  # (mean height, residual) per fallback sweep
        # krylov_info, krylov_matvecs and gauge of the latest Newton
        # direction, for its log entry
        self.direction = {}

    def trial(self, values):
        """(kit, residual) at ``values``, or None when they leave the
        interval box or their spacelike margin exceeds the cap."""
        if float(values.min()) < self.lo or float(values.max()) > self.hi:
            return None
        kit = _kit(GraphField(self.model, values), require_spacelike=False)
        # written as "not <=" so a NaN margin is rejected too
        if not float(kit.mu.max()) <= self.config.spacelike_cap:
            return None
        return kit, _residual(kit, self.config.target)

    def record(self, phase, kit, rnorm, step):
        product = kit.dtf * kit.H
        entry = {
            "iter": self.step_count,
            "phase": phase,
            "residual_inf": float(rnorm),
            "step": float(step),
            "max_margin": float(kit.mu.max()),
            "u_mean": float(kit.u.mean()),
            "u_min": float(kit.u.min()),
            "u_max": float(kit.u.max()),
            "dtf_H_min": float(product.min()),
            "dtf_H_max": float(product.max()),
            "area": float(
                np.sum(np.sqrt(kit.det_factored())) * kit.grid.cell_volume
            ),
        }
        self.log.append(entry)
        self.step_count += 1
        return entry

    def update_drift(self, mean, rnorm):
        """Detect a runaway toward an interval endpoint.

        Fires when, over a full drift window of fallback sweeps, the mean
        height moves monotonically toward an endpoint (or sits pinned next
        to one) while the residual stays large and essentially stagnant.
        The stagnation clause keeps legitimate wall-hugging convergence
        (where the residual is still dropping) from being misread.
        """
        cfg = self.config
        self.drift_history.append((mean, rnorm))
        window = cfg.drift_window
        if len(self.drift_history) < window + 1:
            return None
        recent = self.drift_history[-(window + 1):]
        residuals = [r for _, r in recent]
        if residuals[-1] <= 10.0 * cfg.residual_tol:
            return None
        if residuals[-1] < 0.98 * residuals[0]:
            return None  # still making progress
        means = np.array([m for m, _ in recent])
        diffs = np.diff(means)
        t_min, t_max = self.model.interval
        near_hi = bool(np.all(np.abs(means - t_max) <= 0.02 * self.span))
        near_lo = bool(np.all(np.abs(means - t_min) <= 0.02 * self.span))
        if bool(np.all(diffs > 0)) or near_hi:
            return t_max
        if bool(np.all(diffs < 0)) or near_lo:
            return t_min
        return None


def _lattice_ball(dim, radius):
    """Integer offsets of L1 length at most ``radius``, shape (K, dim)."""
    span = range(-radius, radius + 1)
    return np.array(
        [o for o in itertools.product(span, repeat=dim) if sum(map(abs, o)) <= radius]
    )


def _periodic_neighbours(shape, radius, nodes=None):
    """Flat indices of the nodes within L1 distance ``radius`` of each of
    the flat ``nodes`` (default all) on the periodic lattice, the node
    included; shape (len(nodes), K)."""
    if nodes is None:
        nodes = np.arange(int(np.prod(shape)))
    index = np.array(np.unravel_index(nodes, shape))
    offsets = _lattice_ball(len(shape), radius)
    shifted = index[:, :, None] + offsets.T[:, None, :]
    return np.ravel_multi_index(tuple(shifted), shape, mode="wrap")


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(shape):
    """Rows of the residual Jacobian on ``shape``: rows[j, k] is the flat
    index of node j plus the k-th offset of ``_lattice_ball(dim,
    _RESIDUAL_REACH)``, the entries of column j (the stencil is symmetric)."""
    rows = _periodic_neighbours(shape, _RESIDUAL_REACH)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=8)
def _sublattices(shape):
    """Parity sublattices of ``shape`` along its e even-sized axes.

    Returns (labels, flips, modes).  labels[j] in [0, 2^e) is the class of
    flat node j: its binary digits are the coordinates of j mod 2 on the
    even-sized axes, in axis order.  flips[k] is the label of the k-th
    offset of the residual stencil: wrapping keeps parity on even axes, so
    the stencil entry k of column j lies in row class labels[j] ^ flips[k].
    ``modes`` marks the rfftn modes the class indicators span, those with
    wavenumber 0 or m/2 on every axis.  The centred difference annihilates
    these modes, so they are where the wide-stencil Jacobian can be
    near-null.  On an all-odd grid the one class is the whole lattice and
    its indicator the constant.
    """
    dim = len(shape)
    index = np.indices(shape).reshape(dim, -1)
    labels = np.zeros(index.shape[1], dtype=np.intp)
    for axis, m in enumerate(shape):
        if m % 2 == 0:
            labels = 2 * labels + index[axis] % 2
    # node 0 is in class 0, so the labels of its stencil are the flips
    flips = labels[_periodic_neighbours(shape, _RESIDUAL_REACH, [0])[0]]
    # a class indicator's spectrum is |class| on those modes and 0 elsewhere
    spectrum = np.fft.rfftn((labels == 0).reshape(shape), axes=tuple(range(dim)))
    modes = np.abs(spectrum) > 0.5
    for array in (labels, flips, modes):
        array.flags.writeable = False
    return labels, flips, modes


def _coarse_operator(values, shape):
    """E = Z^T J Z / |class|, Z the sublattice indicators, from the stencil
    ``values`` of J.  Each even axis m is split into (m/2, 2), so summing
    over every other axis gives each class's column sums per stencil offset
    without an N x K temporary; the sum for offset k of class b lands in
    row class b ^ flips[k]."""
    _, flips, _ = _sublattices(shape)
    split, outer = [], []
    for m in shape:
        outer.append(len(split))
        split.extend((m // 2, 2) if m % 2 == 0 else (m,))
    sums = values.reshape(*split, -1).sum(axis=tuple(outer)).reshape(-1, len(flips))
    classes = np.arange(len(sums))[:, None]
    coarse = np.zeros((len(sums), len(sums)))
    np.add.at(coarse, (classes ^ flips, classes), sums)
    return coarse / (len(values) // len(sums))


def _pointwise_residual(kit, target):
    """The residual less its divergence term: the pointwise terms of n H
    less n times the target."""
    middle, twist_pairing = kit.curvature_terms()
    return middle + twist_pairing - kit.n * _target_field(kit, target)


def _linearization(model, u, du, target):
    """Derivatives of the flux F and of P (``_pointwise_residual``) at (u, du).

    Returns (dF, dP), with dF[a] and dP[a] the derivatives along a = 0, u
    with du held fixed, and a = 1 + l, the covector component p_l; dF has
    shape (n + 1,) + shape + (n,).  Each is one central difference of a
    pair of pointwise kits, divided by the step the perturbed value actually
    received, so the rounding of u + eps does not enter the quotient.  The
    relative step 1e-6 gives J to about 1e-11 of its largest entry, the
    least error over steps from 1e-4 to 1e-8.
    """
    n = model.fiber.dim
    dF = np.empty((n + 1, *du.shape))
    dP = np.empty((n + 1, *u.shape))
    for a in range(n + 1):
        kits, moved = [], []
        for sign in (1.0, -1.0):
            at, cov = u, du
            if a == 0:
                at = u + sign * 1e-6 * (1.0 + float(np.max(np.abs(u))))
                moved.append(at)
            else:
                cov = du.copy()
                cov[..., a - 1] += sign * 1e-6 * (1.0 + float(np.max(np.abs(du))))
                moved.append(cov[..., a - 1])
            kits.append(_Kit(model, at, cov, require_spacelike=False))
        width = moved[0] - moved[1]
        dF[a] = (kits[0].flux() - kits[1].flux()) / width[..., None]
        dP[a] = (_pointwise_residual(kits[0], target)
                 - _pointwise_residual(kits[1], target)) / width
    return dF, dP


def _jacobian(driver, u):
    """Sparse Jacobian of the residual at u from its pointwise linearization.

    With dF and dP from ``_linearization`` and D_l the centred difference,
    J = S^-1 sum_i D_i S (dF_i,u + sum_l dF_i,p_l D_l) + dP_u + sum_l dP_p_l D_l,
    S = sqrt det g_F, assembled stencil by stencil.  Returns the matrix and
    its stencil ``values``: values[j, k] is the entry of column j at the
    k-th offset of ``_lattice_ball(dim, _RESIDUAL_REACH)`` from node j.
    """
    grid = driver.model.fiber
    n = grid.dim
    dF, dP = _linearization(driver.model, u, grid.partials(u), driver.config.target)
    dF = dF.reshape(n + 1, u.size, n)
    dP = dP.reshape(n + 1, u.size)
    rows = _jacobian_pattern(u.shape)
    offsets = _lattice_ball(n, _RESIDUAL_REACH)
    index = {o: k for k, o in enumerate(map(tuple, offsets))}
    unit = np.eye(n, dtype=int)
    half = 0.5 / grid.spacing  # D_l u = half[l] (u(x + e_l) - u(x - e_l))

    def stencil(d):
        """(offset, coefficient) pairs of d[0] du + sum_l d[1 + l] D_l du."""
        yield np.zeros(n, dtype=int), d[0]
        for l in range(n):
            yield unit[l], half[l] * d[1 + l]
            yield -unit[l], -half[l] * d[1 + l]

    # rowwise[k, x]: the derivative of R at node x in u at node x + offsets[k]
    rowwise = np.zeros((len(offsets), u.size))
    for offset, coefficient in stencil(dP):
        rowwise[index[tuple(offset)]] += coefficient
    sqrt_det = grid.sqrt_det.ravel()
    for i in range(n):
        for sign in (1, -1):
            out = sign * unit[i]
            ahead = rows[:, index[tuple(out)]]  # node x + out
            weight = sign * half[i] * sqrt_det[ahead] / sqrt_det
            for offset, coefficient in stencil(dF[..., i]):
                rowwise[index[tuple(out + offset)]] += weight * coefficient[ahead]
    # column j holds R at node j + offsets[k], read at the opposite offset
    values = rowwise[[index[tuple(-o)] for o in offsets], rows]
    indptr = np.arange(0, rows.size + 1, rows.shape[1])
    # J owns a copy of its data: canonicalising J in place (abs(J),
    # sort_indices) would otherwise permute the stencil values as well
    J = csc_array((values.flatten(), rows.flatten(), indptr), shape=(u.size, u.size))
    return J, values


def _circulant_symbol(values, shape):
    """Symbol (rfftn) of the circulant nearest, in Frobenius norm, to the
    Jacobian with stencil ``values``: averaging the stencil over columns
    gives one coefficient per offset, placed at their wrapped offsets they
    form the circulant's kernel, and its FFT is the symbol."""
    offsets = _lattice_ball(len(shape), _RESIDUAL_REACH) % np.array(shape)
    kernel = np.zeros(shape)
    kernel[tuple(offsets.T)] = values.mean(axis=0)
    return np.fft.rfftn(kernel, axes=tuple(range(len(shape))))


def _circulant_preconditioner(symbol, shape):
    """Inverse of the circulant with ``symbol`` (see ``_circulant_symbol``).

    It divides each Fourier mode by the symbol, except modes whose symbol is
    at round-off (the constant and grid-scale modes of a degenerate
    problem), which pass unchanged.
    """
    axes = tuple(range(len(shape)))
    magnitude = np.abs(symbol)
    symbol = np.where(magnitude <= 1e-14 * magnitude.max(), 1.0, symbol)

    def apply(x):
        modes = np.fft.rfftn(x.reshape(shape), axes=axes) / symbol
        return np.fft.irfftn(modes, s=shape, axes=axes).ravel()

    size = math.prod(shape)
    return LinearOperator((size, size), matvec=apply, dtype=float)


def _krylov_step(driver, u, R):
    """Inexact Newton direction: preconditioned lgmres on the sparse Jacobian.

    The Jacobian is assembled by ``_jacobian`` and handed to lgmres as a
    linear operator, with the inverse of its nearest circulant
    (``_circulant_preconditioner``) as M.  lgmres stops on the true residual
    |R + J d| <= krylov_rtol |R|.

    Each step first measures J on the coarse space of the parity
    sublattices (``_sublattices``): E = Z^T J Z / |class|, Z the class
    indicators.  When the smallest singular value of E is at most
    ``_GAUGE_GATE`` times the smallest circulant-symbol magnitude over the
    other Fourier modes, J is near-null on the sublattice means (a slice
    family, or the constant/checkerboard pair of an expanding model), and
    lgmres runs gauge-fixed instead (deflation, Frank and Vuik 2001): on
    P J P with M -> P M P and right-hand side -P R, P projecting out the
    sublattice means, and the direction is P d.  When |P R| <=
    ``_GAUGE_HANDOVER`` |R| what remains of R is gauge motion, which no
    gauge-fixed step can remove; the step returns None and the relaxation
    fallback, the only thing that moves the mean, takes over.

    An ungated direction keeps only the common mean of the sublattice
    means, P d + mean(d): the others are grid-scale modes that the centred
    difference cannot see, and Newton must not inject them into u.

    The lgmres exit info (0 = converged), the number of J products it made
    and the gauge ("none" or "sublattice") are kept on the driver for the
    iteration log; a handover leaves its ``fallback_reason`` there instead.
    """
    config = driver.config
    driver.direction = {}
    rnorm = float(np.max(np.abs(R)))
    J, values = _jacobian(driver, u)
    symbol = _circulant_symbol(values, u.shape)
    labels, _, modes = _sublattices(u.shape)
    coarse = _coarse_operator(values, u.shape)
    # a non-finite stencil keeps the gate shut: the step is the ungated one
    gauge_fixed = bool(
        np.all(np.isfinite(coarse))
        and svdvals(coarse, check_finite=False)[-1]
        <= _GAUGE_GATE * np.abs(symbol)[~modes].min()
    )
    classes = len(coarse)

    def project(x):
        means = np.bincount(labels, weights=x, minlength=classes) / (x.size // classes)
        return x - means[labels]

    products = 0

    def product(x):
        nonlocal products
        products += 1
        return J @ x

    operator = LinearOperator(J.shape, matvec=product, dtype=J.dtype)
    M = _circulant_preconditioner(symbol, u.shape)
    rhs = -R.ravel()
    if gauge_fixed:
        rhs = project(rhs)
        if float(np.max(np.abs(rhs))) <= _GAUGE_HANDOVER * rnorm:
            driver.direction = {"fallback_reason": "gauge_handover"}
            return None
        operator = LinearOperator(
            J.shape, matvec=lambda x: project(product(project(x))), dtype=J.dtype
        )
        circulant = M
        M = LinearOperator(
            J.shape, matvec=lambda x: project(circulant.matvec(project(x))), dtype=float
        )

    inner_m = 10
    maxiter = max(1, config.krylov_maxiter // inner_m)
    try:
        d, info = lgmres(
            operator,
            rhs,
            rtol=config.krylov_rtol,
            atol=0.0,
            inner_m=inner_m,
            maxiter=maxiter,
            M=M,
        )
    except _STEP_ERRORS:
        return None
    driver.direction = {
        "krylov_info": int(info),
        "krylov_matvecs": products,
        "gauge": "sublattice" if gauge_fixed else "none",
    }
    if not np.all(np.isfinite(d)):
        return None
    d = project(d) if gauge_fixed else project(d) + d.mean()
    # trust region: never propose more than a quarter of the interval
    peak = float(np.max(np.abs(d)))
    cap = 0.25 * driver.span
    if peak > cap:
        d = d * (cap / peak)
    return d.reshape(u.shape)


def _line_search(driver, u, R, rnorm, direction):
    """Backtracking step on the residual sup norm with safeguards.

    Candidates are clipped into the interval box (projected Newton), so a
    direction with a large admissible part is not wasted when some nodes
    would overshoot the margin.
    """
    lam = 1.0
    while lam >= _MIN_STEP:
        trial = driver.trial(np.clip(u + lam * direction, driver.lo, driver.hi))
        if trial is not None:
            kit, R_new = trial
            rnorm_new = float(np.max(np.abs(R_new)))
            if rnorm_new <= (1.0 - 1e-4 * lam) * rnorm:
                return kit, R_new, rnorm_new, lam
        lam *= _LINESEARCH_FACTOR
    return None


def _stable_pseudo_time_step(kit):
    """Explicit-Euler stability bound for the relaxation flow.

    The flow's stiffest part is the divergence term of the curvature; its
    diagonal scales like cosh(theta) rho / n times sum_i 1/(G_i h_i^2), so
    the step is capped by the reciprocal of the worst node.
    """
    grid = kit.grid
    stencil = np.sum(1.0 / (grid.metric_diag * grid.spacing**2), axis=-1)
    lam = float(np.max(kit.cosh * kit.rho * stencil)) / kit.n
    return 0.9 / lam


def _fallback_sweeps(driver, kit, R, rnorm, state, reason):
    """Pseudo-transient relaxation u <- u + ds cosh(theta) (H - target).

    The step follows the first variation of the area, so in a transition
    model accepted sweeps climb toward the maximal slice; a persistent
    monotone drift of the mean height instead triggers the drift diagnostic.
    Steps are capped at the explicit stability bound and rejected (with ds
    halved) if they inflate the residual.  The flow is read from the
    iterate's kit; an accepted trial point's kit becomes the next iterate.
    The first sweep's log entry carries ``reason`` as its
    ``fallback_reason``.  Returns (kit, R, rnorm, drift_endpoint_or_None).
    """
    config = driver.config
    for _ in range(config.fallback_chunk):
        if state["sweeps"] >= config.fallback_max_sweeps or rnorm <= config.residual_tol:
            break
        flow = kit.cosh * (kit.H - _target_field(kit, config.target))
        peak = float(np.max(np.abs(flow)))
        if peak == 0.0:
            break
        ds = min(
            state["ds"] * 1.25,
            _stable_pseudo_time_step(kit),
            0.02 * driver.span / peak,
        )
        accepted = None
        for _ in range(16):
            trial = driver.trial(np.clip(kit.u + ds * flow, driver.lo, driver.hi))
            if trial is not None:
                rnorm_new = float(np.max(np.abs(trial[1])))
                if rnorm_new <= 1.05 * rnorm:
                    accepted = (*trial, rnorm_new)
                    break
            ds *= 0.5
        if accepted is None:
            break
        state["ds"] = ds
        kit, R, rnorm = accepted
        state["sweeps"] += 1
        entry = driver.record("fallback", kit, rnorm, ds)
        if reason is not None:
            entry["fallback_reason"] = reason
            reason = None
        endpoint = driver.update_drift(float(kit.u.mean()), rnorm)
        if endpoint is not None:
            return kit, R, rnorm, endpoint
    return kit, R, rnorm, None


def _sublattice_spread(u):
    """Largest class mean of u - mean(u) over the parity sublattices: the
    grid-scale content of u that the centred difference cannot see."""
    labels, _, _ = _sublattices(u.shape)
    classes = int(labels.max()) + 1
    sums = np.bincount(labels, weights=(u - u.mean()).ravel(), minlength=classes)
    return float(np.max(np.abs(sums / (u.size // classes))))


def _edge_margin(kit):
    """Spacelike margin |D+ u|_F / f with forward differences, which see
    the neighbouring nodes that the centred difference of ``kit.mu`` skips."""
    grid = kit.grid
    slope_sq = np.zeros(grid.shape)
    for i in range(grid.dim):
        forward = (np.roll(kit.u, -1, axis=i) - kit.u) / grid.spacing[i]
        slope_sq += forward ** 2 / grid.metric_diag[..., i]
    return float(np.max(np.sqrt(slope_sq) / kit.f))


def _verify_converged(driver, kit, rnorm):
    """Re-check a converged iterate: ``rnorm`` is its residual through the
    fiber-form curvature of ``kit``; the coordinate-form second path builds
    its own kits from the graph.  Both must pass, with the safeguards, and
    u must carry no grid-scale mode: its sublattice spread must be at
    round-off and its edge margin below 1.  Returns (failure or None,
    graph, diagnostics)."""
    config = driver.config
    u = kit.u
    graph = GraphField(driver.model, u)
    target = _target_field(kit, config.target)
    r_secondary = float(
        np.max(np.abs(kit.n * (mean_curvature_from_laplacian(graph) - target)))
    )
    margin = float(kit.mu.max())
    spread = _sublattice_spread(u)
    edge_margin = _edge_margin(kit)
    # the first check that fails names the failure; NaN fails every check
    checks = (
        (rnorm <= 2.0 * config.residual_tol and r_secondary <= 2.0 * config.residual_tol
         and margin <= config.spacelike_cap, "two-path re-verification failed"),
        (spread <= _SUBLATTICE_BOUND * (1.0 + float(np.max(np.abs(u)))),
         "grid-scale sublattice mode"),
        (edge_margin < 1.0, "edge spacelike margin at or above 1"),
    )
    failure = next((name for ok, name in checks if not ok), None)
    imin = np.unravel_index(int(np.argmin(u)), u.shape)
    imax = np.unravel_index(int(np.argmax(u)), u.shape)
    dlog = kit.dlogf
    diagnostics = {
        "residual_primary": rnorm,
        "residual_secondary": r_secondary,
        "max_margin": margin,
        "sublattice_spread": spread,
        "edge_margin": edge_margin,
        "extremum_gap_min": (
            float(config.target - dlog[imin]) if config.target != "generalized" else None
        ),
        "extremum_gap_max": (
            float(dlog[imax] - config.target) if config.target != "generalized" else None
        ),
    }
    return failure, graph, diagnostics


def solve(model, config):
    """Run the damped Newton-Krylov loop with relaxation fallback."""
    driver = _Driver(model, config)
    graph0 = resolve_initializer(model, config.initial)
    # resolve_initializer admits any interval-valid field; the kit raises
    # SpacelikeError naming the worst node unless the start is spacelike.
    kit = _kit(GraphField(model, graph0.u.copy()))

    if config.check_certificate and config.target != "generalized":
        certificate = certificate_check(
            model, config.target, t_samples=config.certificate_samples
        )
        if certificate is not None:
            return SolveOutcome(
                tag="nonexistence",
                certificate=certificate,
                log=driver.log,
            )

    R = _residual(kit, config.target)
    rnorm = float(np.max(np.abs(R)))
    driver.record("init", kit, rnorm, 0.0)

    newton_iters = 0
    state = {"sweeps": 0, "ds": 1e-2 * driver.span}
    best_rnorm = rnorm

    while True:
        if rnorm <= config.residual_tol:
            failure, graph, diagnostics = _verify_converged(driver, kit, rnorm)
            diagnostics["target"] = config.target
            if failure is None:
                return SolveOutcome(
                    tag="converged",
                    graph=graph,
                    residual_norm=rnorm,
                    iterations=newton_iters,
                    report=geometry_report(graph),
                    diagnostics=diagnostics,
                    log=driver.log,
                )
            diagnostics["failure"] = failure
            return SolveOutcome(
                tag="not_converged",
                residual_norm=rnorm,
                iterations=newton_iters,
                diagnostics=diagnostics,
                log=driver.log,
            )

        if newton_iters >= config.max_newton_iters or state["sweeps"] >= config.fallback_max_sweeps:
            return SolveOutcome(
                tag="not_converged",
                residual_norm=rnorm,
                iterations=newton_iters,
                diagnostics={
                    "best_residual": best_rnorm,
                    "newton_iters": newton_iters,
                    "fallback_sweeps": state["sweeps"],
                    "failure": "iteration budget exhausted",
                },
                log=driver.log,
            )

        newton_iters += 1
        direction = _krylov_step(driver, kit.u, R)
        stepped = None
        if direction is not None:
            stepped = _line_search(driver, kit.u, R, rnorm, direction)
        if stepped is not None:
            kit, R, rnorm, lam = stepped
            best_rnorm = min(best_rnorm, rnorm)
            entry = driver.record("newton", kit, rnorm, lam)
            entry.update(driver.direction)
            continue

        if direction is not None:
            reason = "line_search"
        else:
            reason = driver.direction.get("fallback_reason", "no_direction")
        kit, R, rnorm, endpoint = _fallback_sweeps(driver, kit, R, rnorm, state, reason)
        best_rnorm = min(best_rnorm, rnorm)
        if endpoint is not None:
            return SolveOutcome(
                tag="nonexistence",
                residual_norm=rnorm,
                iterations=newton_iters,
                certificate={
                    "reason": "drift",
                    "endpoint": float(endpoint),
                    "consecutive_sweeps": int(config.drift_window),
                    "residual_inf": rnorm,
                    "note": (
                        "heuristic diagnostic: the relaxed iterate drifted "
                        "monotonically toward an interval endpoint while the "
                        "residual stayed large; not an analytic proof"
                    ),
                },
                diagnostics={"u_mean": float(kit.u.mean())},
                log=driver.log,
            )


@dataclass
class RigidityReport:
    """Slice-rigidity verdicts for a converged maximal solve."""

    constancy_defect: float
    mean_height: float
    max_abs_dtf_at_mean: float
    product_sign_min: float
    product_sign_max: float
    transition_time: float = None
    transition_gap: float = None


def rigidity_report(outcome):
    """Examine a converged maximal solution for the slice verdicts.

    Reports the constancy defect of u, how far d/dt f is from vanishing on
    the mean slice, the running sign of (d/dt f) H over the iteration log,
    and the gap to the classified transition time when one exists.
    """
    if outcome.tag != "converged":
        raise DomainError("rigidity report needs a converged outcome")
    if outcome.graph is None:
        raise DomainError("converged outcome carries no solution graph")
    if outcome.diagnostics.get("target") != 0.0:
        raise DomainError("rigidity report applies to maximal (target 0) solves")
    model = outcome.graph.model
    u = outcome.graph.u
    u_mean = float(u.mean())
    dtf_at_mean = model.twist.dt(u_mean, model.fiber)
    products_min = min(entry["dtf_H_min"] for entry in outcome.log)
    products_max = max(entry["dtf_H_max"] for entry in outcome.log)
    report = RigidityReport(
        constancy_defect=float(u.max() - u.min()),
        mean_height=u_mean,
        max_abs_dtf_at_mean=float(np.max(np.abs(dtf_at_mean))),
        product_sign_min=products_min,
        product_sign_max=products_max,
    )
    cls = classify(model)
    if cls.tag == "transition":
        report.transition_time = cls.t0
        report.transition_gap = abs(u_mean - cls.t0)
    return report
