"""Periodic torus grids with second-order finite-difference calculus.

The fiber is a flat or diagonally-curved n-torus (n = 1, 2, 3) sampled on a
uniform periodic lattice.  Scalar fields are plain ndarrays of shape
``grid.shape``; vector fields carry their contravariant components on a
trailing axis, shape ``grid.shape + (n,)``, and per-node matrices two
trailing axes, ``grid.shape + (n, n)``.  Those shapes are what callers see,
but the arrays built here are stored component by component
(``component_array``): each ``x[..., i]`` or ``g[..., i, j]`` is one
contiguous block, so a vector or matrix field is a transposed,
non-C-contiguous view.  Elementwise arithmetic keeps that layout.  All
stencils are central differences with periodic wraparound, and the
divergence is evaluated in conservation form so that the integral of a
divergence over the closed fiber vanishes to roundoff.
"""

from functools import cache

import numpy as np

__all__ = ["FiberGrid"]


def component_array(shape, *counts, zeros=False):
    """Array of shape ``shape + counts``, stored component by component.

    The memory is laid out as ``counts + shape`` and handed out as a
    transposed view, so one component is one contiguous block rather than
    a strided walk over every node.  Uninitialised unless ``zeros``.
    """
    base = (np.zeros if zeros else np.empty)(counts + tuple(shape))
    return base.transpose(_trailing_axes(len(shape), len(counts)))


@cache
def _trailing_axes(ndim, k):
    """Axes that move the ``k`` leading axes of an ``ndim + k`` array last."""
    return tuple(range(k, k + ndim)) + tuple(range(k))


def component_sum(X):
    """``np.sum(X, axis=-1)``, bitwise, for a short trailing axis.

    One add per component: numpy's reduction over a trailing axis of length
    2 or 3 costs several times the arithmetic.  The sum starts from +0.0 as
    numpy's does, so a -0.0 total comes out +0.0 here too.
    """
    total = X[..., 0] + 0.0
    for i in range(1, X.shape[-1]):
        total += X[..., i]
    return total


class FiberGrid:
    """Discrete n-torus fiber with a diagonal Riemannian metric.

    Parameters
    ----------
    dim : int
        Number of fiber dimensions, 1, 2 or 3.
    periods : sequence of float
        Period L_i > 0 of each axis.
    resolution : sequence of int
        Nodes m_i >= 8 per axis; spacing is h_i = L_i / m_i.
    metric_coeffs : sequence of callables, optional
        Per-axis coefficient functions G_i taking the meshgrid coordinate
        arrays and returning a strictly positive array of shape
        ``grid.shape``.  Omitted axes (or None) are flat (G_i = 1).

    Attributes
    ----------
    shape : tuple of int
        Lattice shape (m_1, ..., m_n).
    spacing : ndarray
        Grid spacings h_i.
    metric_diag : ndarray, shape ``shape + (n,)``
        Diagonal metric coefficients at the nodes.
    weights : ndarray, shape ``shape``
        Quadrature weights sqrt(det g) * prod(h_i) (node-based midpoint rule).
    """

    def __init__(self, dim, periods, resolution, metric_coeffs=None):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        periods = tuple(float(L) for L in np.atleast_1d(periods))
        resolution = tuple(int(m) for m in np.atleast_1d(resolution))
        if len(periods) == 1 and dim > 1:
            periods = periods * dim
        if len(resolution) == 1 and dim > 1:
            resolution = resolution * dim
        if len(periods) != dim or len(resolution) != dim:
            raise ValueError("periods and resolution must have one entry per axis")
        if any(L <= 0 for L in periods):
            raise ValueError("periods must be positive")
        if any(m < 8 for m in resolution):
            raise ValueError("resolution must be at least 8 nodes per axis")

        self.dim = dim
        self.periods = periods
        self.resolution = resolution
        self.shape = resolution
        self.spacing = np.array([L / m for L, m in zip(periods, resolution)])
        self.axes = [
            np.arange(m) * h for m, h in zip(resolution, self.spacing)
        ]
        self.coords = np.meshgrid(*self.axes, indexing="ij")

        self.metric_coeffs = metric_coeffs
        diag = component_array(self.shape, dim)
        diag[...] = 1.0
        if metric_coeffs is not None:
            if len(metric_coeffs) != dim:
                raise ValueError("metric_coeffs must have one entry per axis")
            for i, G in enumerate(metric_coeffs):
                if G is None:
                    continue
                values = np.broadcast_to(np.asarray(G(*self.coords), dtype=float), self.shape)
                if not np.all(np.isfinite(values)) or np.any(values <= 0):
                    raise ValueError(f"metric coefficient G_{i} must be finite and positive")
                diag[..., i] = values
        self.metric_diag = diag
        self.det_metric = np.prod(diag, axis=-1)
        self.sqrt_det = np.sqrt(self.det_metric)
        self.cell_volume = float(np.prod(self.spacing))
        self.weights = self.sqrt_det * self.cell_volume
        self._samples = {}
        # per axis, the slices ``diff`` reads and writes: the interior
        # (middle, ahead, behind), then the wrapped ends as length-1 slices
        # (first, second, last, second to last)
        self._cuts = []
        for axis in range(dim):
            lead = (slice(None),) * axis
            self._cuts.append(tuple(
                lead + (s,)
                for s in (slice(1, -1), slice(2, None), slice(None, -2),
                          slice(0, 1), slice(1, 2), slice(-1, None), slice(-2, -1))
            ))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    def check_scalar(self, values, name="field"):
        """Validate and return a scalar field array of shape ``grid.shape``."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {self.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
        return arr

    def check_vector(self, values, name="field"):
        """Validate and return a vector field array of shape ``shape + (n,)``."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape + (self.dim,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected {self.shape + (self.dim,)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
        return arr

    def metric_matrix(self):
        """Full diagonal metric as per-node matrices, shape ``shape + (n, n)``."""
        g = component_array(self.shape, self.dim, self.dim, zeros=True)
        for i in range(self.dim):
            g[..., i, i] = self.metric_diag[..., i]
        return g

    def sample(self, poly, axis=None):
        """Node values of a fiber profile (``axis`` None) or of its partial.

        ``poly`` is a ``TrigPolynomial``; the samples are computed once per
        grid and returned read-only, since a profile never changes.
        """
        key = (poly, axis)
        values = self._samples.get(key)
        if values is None:
            if axis is None:
                values = poly.value(*self.coords)
            else:
                values = poly.partial(axis, *self.coords)
            values.flags.writeable = False
            self._samples[key] = values
        return values

    # ------------------------------------------------------------------
    # stencils

    def diff(self, field, axis):
        """Second-order central difference along ``axis``, periodic wrap.

        The interior and the two wrapped ends are each one subtraction into
        a slice of the output, the ends through length-1 slices.
        """
        out = np.empty(np.shape(field))
        mid, ahead, behind, first, second, last, penult = self._cuts[axis]
        np.subtract(field[ahead], field[behind], out=out[mid])
        np.subtract(field[second], field[last], out=out[first])
        np.subtract(field[first], field[penult], out=out[last])
        out /= 2.0 * self.spacing[axis]
        return out

    def partials(self, phi):
        """Covector of partial derivatives D_i(phi), shape ``shape + (n,)``."""
        out = component_array(np.shape(phi), self.dim)
        for i in range(self.dim):
            out[..., i] = self.diff(phi, i)
        return out

    def gradient(self, phi):
        """Metric gradient (grad phi)^i = G_i^{-1} D_i(phi)."""
        return self.partials(phi) / self.metric_diag

    def divergence(self, V):
        """Divergence of a contravariant field, conservation form.

        div V = det(g)^{-1/2} sum_i D_i(det(g)^{1/2} V^i).
        """
        V = np.asarray(V, dtype=float)
        out = self.diff(self.sqrt_det * V[..., 0], axis=0)
        out += 0.0  # -0.0 becomes +0.0, as in a sum started from zeros
        for i in range(1, self.dim):
            out += self.diff(self.sqrt_det * V[..., i], axis=i)
        out /= self.sqrt_det
        return out

    def laplacian(self, phi):
        """Laplace-Beltrami operator div(grad phi)."""
        return self.divergence(self.gradient(phi))

    def inner(self, V, W):
        """Pointwise metric inner product of two contravariant fields."""
        return component_sum(self.metric_diag * V * W)

    def norm_sq(self, V):
        """Pointwise squared metric norm of a contravariant field."""
        return self.inner(V, V)

    def integrate(self, phi):
        """Integral of a scalar field with the sqrt(det g) midpoint weights."""
        return float(np.sum(phi * self.weights))

    # ------------------------------------------------------------------

    def node_indices(self):
        """Array of index tuples, one row per node, row-major order."""
        grids = np.meshgrid(*[np.arange(m) for m in self.shape], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def node_coordinates(self):
        """Array of node coordinates, one row per node, row-major order."""
        return np.stack([c.ravel() for c in self.coords], axis=-1)

    def refined(self, factor=2):
        """Same torus with every axis resolution multiplied by ``factor``.

        The metric coefficient functions are re-evaluated on the finer
        lattice, so refinement studies see the same continuum metric.
        """
        return FiberGrid(
            self.dim,
            self.periods,
            tuple(m * factor for m in self.resolution),
            metric_coeffs=self.metric_coeffs,
        )
