"""Prescribed-mean-curvature solver on the closed fiber.

Solves H[u] = H0 (maximal for H0 = 0) with damped Newton-Krylov steps, a
pseudo-transient relaxation fallback for poor initializers, and two kinds
of non-existence reporting: an analytic bound certificate from the extrema
of d/dt log f, and a drift diagnostic when the relaxed iterate runs away
toward an interval endpoint, its mean moving by more than round-off.  The
solve is one loop that takes one step per pass; a failed Newton step hands
the next ``fallback_chunk`` passes to relaxation sweeps, and both step
kinds backtrack on the same clipped trial points.  Converged outcomes are
re-verified through both mean-curvature code paths before being reported.

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
expanding model with no solution.  Those means span the same space as the
2^e parity characters W, the products of (-1)^x_a over subsets of the
even-sized axes, which are Fourier modes.  Each Newton step measures
E = W^T J W / N (N nodes), and when its smallest singular value falls far
below the circulant symbol on every other mode the Krylov solve is
gauge-fixed: it runs with the characters projected out (deflation, Frank
and Vuik, SIAM J. Sci. Comput. 2001), and its preconditioner is the
circulant inverse with their modes dropped.  When nearly all of the
residual lies on the characters, Newton hands over to the relaxation
fallback, which alone moves them.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import svdvals
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, lgmres

from .config import SolveConfig
from .errors import DomainError, SpacelikeError
from .fiber_grid import component_sum
from .graphs import (
    GraphField,
    _Kit,
    _area,
    _kit,
    _laplacian_tau_coordinate,
    _mean_curvature_from_laplacian,
    geometry_report,
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

# A monotone drift must move the mean height by more than this fraction of
# the interval over the window.  Round-off creep on the additive 16^2 and 16^3
# maximal solves moved it 2e-15-1.4e-13, genuine drifts 9.8e-5-2.4e-2.
_DRIFT_FLOOR = 1e-6

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
        # g(N, grad log f)
        return kit.normal_derivative(kit.dlogf, kit.fiber_df / kit.f[..., None])
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
    The bounds are the model's ``dlog_dt_range``, computed once per model
    and sample count; each call compares its own h0 against them.
    """
    lo, hi = model.dlog_dt_range(t_samples)
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
            "iter": len(self.log),
            "phase": phase,
            "residual_inf": float(rnorm),
            "step": float(step),
            "max_margin": float(kit.mu.max()),
            "u_mean": float(kit.u.mean()),
            "u_min": float(kit.u.min()),
            "u_max": float(kit.u.max()),
            "dtf_H_min": float(product.min()),
            "dtf_H_max": float(product.max()),
            "area": _area(kit),
        }
        self.log.append(entry)
        return entry

    def update_drift(self, mean, rnorm):
        """Detect a runaway toward an interval endpoint.

        Fires when, over a full drift window of fallback sweeps, the mean
        height moves monotonically toward an endpoint, by more than
        ``_DRIFT_FLOOR`` times the interval so round-off creep does not
        count (or sits pinned next to one), while the residual stays large
        and essentially stagnant.  The stagnation clause keeps legitimate
        wall-hugging convergence (where the residual is still dropping)
        from being misread.
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
        moved = abs(means[-1] - means[0]) > _DRIFT_FLOOR * self.span
        if (moved and bool(np.all(diffs > 0))) or near_hi:
            return t_max
        if (moved and bool(np.all(diffs < 0))) or near_lo:
            return t_min
        return None


@functools.lru_cache(maxsize=8)
def _lattice_ball(dim, radius):
    """Integer offsets of L1 length at most ``radius``, shape (K, dim),
    computed once and kept read-only."""
    span = range(-radius, radius + 1)
    offsets = np.array(
        [o for o in itertools.product(span, repeat=dim) if sum(map(abs, o)) <= radius]
    )
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(shape):
    """Sparsity pattern of the residual Jacobian on ``shape``, computed once
    and kept read-only: row x has its entries at the columns rows[x, k], the
    flat index of node x plus the k-th offset of ``_lattice_ball(dim,
    _RESIDUAL_REACH)`` on the periodic lattice."""
    index = np.indices(shape).reshape(len(shape), -1)
    offsets = _lattice_ball(len(shape), _RESIDUAL_REACH)
    shifted = index[:, :, None] + offsets.T[:, None, :]
    rows = np.ravel_multi_index(tuple(shifted), shape, mode="wrap")
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=8)
def _parity_basis(shape):
    """Parity characters of ``shape`` along its e even-sized axes.

    Returns (W, modes), kept read-only.  W has shape (nodes, 2^e): column c
    is the product of (-1)^x_a over the even-sized axes a whose bit is set
    in c, in axis order, so column 0 is the constant and W^T W = nodes I.
    W spans the indicators of the parity sublattices, on which the centred
    difference, and so the wide-stencil Jacobian, can be near-null.
    ``modes`` marks the rfftn modes of the columns, those with wavenumber 0
    or m/2 on every axis.  On an all-odd grid W is the constant alone.
    """
    index = np.indices(shape).reshape(len(shape), -1)
    W = np.ones((index.shape[1], 1))
    for axis, m in enumerate(shape):
        if m % 2 == 0:
            W = np.hstack([W, W * (-1.0) ** index[axis][:, None]])
    waves = [np.arange(m) for m in shape[:-1]] + [np.arange(shape[-1] // 2 + 1)]
    modes = functools.reduce(
        np.multiply.outer, [(k == 0) | (2 * k == m) for k, m in zip(waves, shape)]
    )
    for array in (W, modes):
        array.flags.writeable = False
    return W, modes


def _parity_part(x, W):
    """Orthogonal projection of the flat field x onto the span of W's
    parity characters, W W^T x / nodes."""
    return W @ (W.T @ x) / len(x)


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
    least error over steps from 1e-4 to 1e-8.  The 2n kits with a moved
    covector all sit at u and share one evaluation of the twist there.
    """
    n = model.fiber.dim
    dF = np.empty((n + 1, *du.shape))
    dP = np.empty((n + 1, *u.shape))
    twist_at_u = model.twist.along(u, model.fiber)
    for a in range(n + 1):
        kits, moved = [], []
        for sign in (1.0, -1.0):
            at, cov, twist = u, du, twist_at_u
            if a == 0:
                at = u + sign * 1e-6 * (1.0 + float(np.max(np.abs(u))))
                moved.append(at)
                twist = None  # moved heights: the kit evaluates its own
            else:
                cov = np.copy(du)  # keeps du's component-major layout
                cov[..., a - 1] += sign * 1e-6 * (1.0 + float(np.max(np.abs(du))))
                moved.append(cov[..., a - 1])
            kits.append(_Kit(model, at, cov, require_spacelike=False, twist=twist))
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
    its stencil ``values``: values[k, x] is the derivative of R at node x in
    u at node x plus the k-th offset of ``_lattice_ball(dim,
    _RESIDUAL_REACH)``, the entry of row x at column rows[x, k].
    """
    grid = driver.model.fiber
    n = grid.dim
    dF, dP = _linearization(driver.model, u, grid.partials(u), driver.config.target)
    dF = dF.reshape(n + 1, u.size, n)
    dP = dP.reshape(n + 1, u.size)
    rows = _jacobian_pattern(u.shape)
    index = {o: k for k, o in enumerate(map(tuple, _lattice_ball(n, _RESIDUAL_REACH)))}
    unit = np.eye(n, dtype=int)
    half = 0.5 / grid.spacing  # D_l u = half[l] (u(x + e_l) - u(x - e_l))

    def stencil(d):
        """(offset, coefficient) pairs of d[0] du + sum_l d[1 + l] D_l du."""
        yield np.zeros(n, dtype=int), d[0]
        for l in range(n):
            yield unit[l], half[l] * d[1 + l]
            yield -unit[l], -half[l] * d[1 + l]

    values = np.zeros((len(index), u.size))
    for offset, coefficient in stencil(dP):
        values[index[tuple(offset)]] += coefficient
    sqrt_det = grid.sqrt_det.ravel()
    for i in range(n):
        for sign in (1, -1):
            out = sign * unit[i]
            ahead = rows[:, index[tuple(out)]]  # node x + out
            weight = sign * half[i] * sqrt_det[ahead] / sqrt_det
            for offset, coefficient in stencil(dF[..., i]):
                values[index[tuple(out + offset)]] += weight * coefficient[ahead]
    indptr = np.arange(0, rows.size + 1, rows.shape[1])
    # J owns copies of its data and indices: canonicalising J in place
    # (abs(J), sort_indices) would otherwise permute the stencil values and
    # write into the cached rows as well
    J = csr_array((values.T.flatten(), rows.flatten(), indptr), shape=(u.size, u.size))
    return J, values


def _circulant_symbol(values, shape):
    """Symbol (rfftn) of the circulant nearest, in Frobenius norm, to the
    Jacobian with stencil ``values``: averaging the stencil over rows gives
    one coefficient per offset o, the entry J[x, x + o] of the circulant,
    which its kernel holds at -o; the kernel's FFT is the symbol."""
    offsets = -_lattice_ball(len(shape), _RESIDUAL_REACH) % np.array(shape)
    kernel = np.zeros(shape)
    kernel[tuple(offsets.T)] = values.mean(axis=1)
    return np.fft.rfftn(kernel, axes=tuple(range(len(shape))))


def _circulant_preconditioner(symbol, shape, drop=None):
    """Inverse of the circulant with ``symbol`` (see ``_circulant_symbol``).

    It divides each Fourier mode by the symbol, except modes whose symbol is
    at round-off (the constant and grid-scale modes of a degenerate
    problem), which pass unchanged, and the modes marked in ``drop``, which
    it sets to zero.
    """
    axes = tuple(range(len(shape)))
    magnitude = np.abs(symbol)
    symbol = np.where(magnitude <= 1e-14 * magnitude.max(), 1.0, symbol)

    def apply(x):
        modes = np.fft.rfftn(x.reshape(shape), axes=axes) / symbol
        if drop is not None:
            modes[drop] = 0.0
        return np.fft.irfftn(modes, s=shape, axes=axes).ravel()

    size = math.prod(shape)
    return LinearOperator((size, size), matvec=apply, dtype=float)


def _krylov_step(driver, u, R):
    """Inexact Newton direction: preconditioned lgmres on the sparse Jacobian.

    The Jacobian is assembled by ``_jacobian`` and handed to lgmres as a
    linear operator, with the inverse of its nearest circulant
    (``_circulant_preconditioner``) as M.  lgmres stops on the true residual
    |R + J d| <= krylov_rtol |R|.

    Each step first measures J on the parity characters W
    (``_parity_basis``), which span the indicators of the parity
    sublattices: E = W^T J W / N, N the number of nodes.  When the smallest
    singular value of E is at most ``_GAUGE_GATE`` times the smallest
    circulant-symbol magnitude over the other Fourier modes, J is near-null
    on the sublattice means (a slice family, or the constant/checkerboard
    pair of an expanding model), and lgmres runs gauge-fixed instead
    (deflation, Frank and Vuik 2001): on P J P with right-hand side -P R,
    P x = x - W W^T x / N, and the direction is P d.  The characters are
    Fourier modes, so P commutes with the circulant and P M P is M with
    their modes dropped.  When |P R| <= ``_GAUGE_HANDOVER`` |R| what remains
    of R is gauge motion, which no gauge-fixed step can remove; the step
    returns None and the relaxation fallback, the only thing that moves the
    mean, takes over.

    An ungated direction keeps only the common mean of the sublattice
    means: it is projected on every character but the constant.  The
    others are grid-scale modes that the centred difference cannot see, and
    Newton must not inject them into u.

    The lgmres exit info (0 = converged), the number of J products it made
    and the gauge ("none" or "sublattice") are kept on the driver for the
    iteration log; a handover leaves its ``fallback_reason`` there instead.
    """
    config = driver.config
    driver.direction = {}
    rnorm = float(np.max(np.abs(R)))
    J, values = _jacobian(driver, u)
    symbol = _circulant_symbol(values, u.shape)
    W, modes = _parity_basis(u.shape)
    coarse = W.T @ (J @ W) / u.size
    # a non-finite stencil keeps the gate shut: the step is the ungated one
    gauge_fixed = bool(
        np.all(np.isfinite(coarse))
        and svdvals(coarse, check_finite=False)[-1]
        <= _GAUGE_GATE * np.abs(symbol)[~modes].min()
    )
    dropped = W if gauge_fixed else W[:, 1:]

    def project(x):
        return x - _parity_part(x, dropped)

    rhs = project(-R.ravel()) if gauge_fixed else -R.ravel()
    if gauge_fixed and float(np.max(np.abs(rhs))) <= _GAUGE_HANDOVER * rnorm:
        driver.direction = {"fallback_reason": "gauge_handover"}
        return None

    products = 0

    def product(x):
        nonlocal products
        products += 1
        return project(J @ project(x)) if gauge_fixed else J @ x

    operator = LinearOperator(J.shape, matvec=product, dtype=J.dtype)
    M = _circulant_preconditioner(symbol, u.shape, drop=modes if gauge_fixed else None)

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
    d = project(d)
    # trust region: never propose more than a quarter of the interval
    peak = float(np.max(np.abs(d)))
    cap = 0.25 * driver.span
    if peak > cap:
        d = d * (cap / peak)
    return d.reshape(u.shape)


def _backtrack(driver, u, direction, step, accept, tries):
    """Try ``u + step direction`` clipped into the interval box, halving the
    step up to ``tries`` times until a trial point passes ``accept(rnorm,
    step)``.  Returns (kit, R, rnorm, step) of the accepted trial, or None."""
    for _ in range(tries):
        trial = driver.trial(np.clip(u + step * direction, driver.lo, driver.hi))
        if trial is not None:
            kit, R = trial
            rnorm = float(np.max(np.abs(R)))
            if accept(rnorm, step):
                return kit, R, rnorm, step
        step *= 0.5
    return None


def _line_search(driver, u, R, rnorm, direction):
    """Backtracking Newton step on the residual sup norm: steps 1 down to
    2^-26, accepted on sufficient decrease.  Candidates are clipped into the
    interval box (projected Newton), so a direction with a large admissible
    part is not wasted when some nodes would overshoot the margin."""
    return _backtrack(driver, u, direction, 1.0,
                      lambda r, lam: r <= (1.0 - 1e-4 * lam) * rnorm, 27)


def _relaxation_step(driver, kit, rnorm, ds):
    """One pseudo-transient relaxation sweep u <- u + ds cosh(theta) (H - target).

    The flow follows the first variation of the area, so in a transition
    model accepted sweeps climb toward the maximal slice.  The step is 1.25
    times the last accepted ``ds``, capped at a move of 2% of the interval
    and at the explicit-Euler bound of the stiffest part, the divergence
    term, whose diagonal scales like cosh(theta) rho / n sum_i 1/(G_i h_i^2);
    it is halved, 16 tries at most, while the residual grows by over 5%.
    Returns (kit, R, rnorm, ds) of the accepted sweep, or None.
    """
    flow = kit.cosh * (kit.H - _target_field(kit, driver.config.target))
    peak = float(np.max(np.abs(flow)))
    if peak == 0.0:
        return None
    grid = kit.grid
    stencil = grid.cached(
        "relaxation_stencil",
        lambda: component_sum(1.0 / (grid.metric_diag * grid.spacing**2)),
    )
    stable = 0.9 / (float(np.max(kit.cosh * kit.rho * stencil)) / kit.n)
    ds = min(ds * 1.25, stable, 0.02 * driver.span / peak)
    return _backtrack(driver, kit.u, flow, ds, lambda r, _: r <= 1.05 * rnorm, 16)


def _sublattice_spread(u):
    """Largest class mean of u - mean(u) over the parity sublattices, the
    part of u on the parity characters other than the constant: the
    grid-scale content of u that the centred difference cannot see."""
    W, _ = _parity_basis(u.shape)
    return float(np.max(np.abs(_parity_part(u.ravel(), W[:, 1:]))))


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
    """Re-check a converged iterate on the loop's own kit, building none:
    ``rnorm`` is its residual through the fiber-form curvature of ``kit``;
    the coordinate-form second path solves for H from the kit's assembled
    metric.  Both must pass, with the safeguards, and u must carry no
    grid-scale mode: its sublattice spread must be at round-off and its
    edge margin below 1.  Returns (failure or None, diagnostics)."""
    config = driver.config
    u = kit.u
    target = _target_field(kit, config.target)
    coordinate = _mean_curvature_from_laplacian(kit, _laplacian_tau_coordinate(kit))
    r_secondary = float(np.max(np.abs(kit.n * (coordinate - target))))
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
    return failure, diagnostics


def solve(model, config):
    """Run the damped Newton-Krylov loop with relaxation fallback, one step
    per pass: a failed Newton step hands the next ``fallback_chunk`` passes
    to relaxation sweeps, and the chunk ends early when a sweep is refused
    or the sweep budget is spent."""
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
            return SolveOutcome(tag="nonexistence", certificate=certificate, log=driver.log)

    R = _residual(kit, config.target)
    rnorm = float(np.max(np.abs(R)))
    driver.record("init", kit, rnorm, 0.0)
    newton_iters = sweeps = relax = 0
    ds = 1e-2 * driver.span
    best_rnorm = rnorm
    reason = None  # fallback_reason of the chunk's first accepted sweep

    def outcome(tag, **fields):
        return SolveOutcome(
            tag=tag, residual_norm=rnorm, iterations=newton_iters, log=driver.log, **fields
        )

    def not_converged(diagnostics, failure):
        diagnostics["failure"] = failure
        return outcome("not_converged", diagnostics=diagnostics)

    # written as "not <=" so a NaN residual keeps iterating, as it never passes
    while not rnorm <= config.residual_tol:
        if relax and sweeps < config.fallback_max_sweeps:
            swept = _relaxation_step(driver, kit, rnorm, ds)
            if swept is None:
                relax = 0
                continue
            kit, R, rnorm, ds = swept
            sweeps += 1
            relax -= 1
            entry = driver.record("fallback", kit, rnorm, ds)
            if reason is not None:
                entry["fallback_reason"], reason = reason, None
            endpoint = driver.update_drift(float(kit.u.mean()), rnorm)
            if endpoint is not None:
                return outcome(
                    "nonexistence",
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
                )
            continue

        best_rnorm = min(best_rnorm, rnorm)
        if newton_iters >= config.max_newton_iters or sweeps >= config.fallback_max_sweeps:
            return not_converged(
                {"best_residual": best_rnorm, "newton_iters": newton_iters,
                 "fallback_sweeps": sweeps},
                "iteration budget exhausted",
            )
        newton_iters += 1
        direction = _krylov_step(driver, kit.u, R)
        stepped = None
        if direction is not None:
            stepped = _line_search(driver, kit.u, R, rnorm, direction)
        if stepped is None:
            relax = config.fallback_chunk
            reason = ("line_search" if direction is not None
                      else driver.direction.get("fallback_reason", "no_direction"))
            continue
        kit, R, rnorm, lam = stepped
        driver.record("newton", kit, rnorm, lam).update(driver.direction)

    failure, diagnostics = _verify_converged(driver, kit, rnorm)
    diagnostics["target"] = config.target
    if failure is not None:
        return not_converged(diagnostics, failure)
    graph = GraphField(model, kit.u)
    return outcome(
        "converged", graph=graph, report=geometry_report(graph), diagnostics=diagnostics
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
