"""Bergman-type metric geometry: metric forms, the invariant gradient
size Q, growth envelopes, path lengths, and distance-from-origin.

Every per-kind formula sits once in the table `_GEOMETRY`, keyed by the
metric kinds (disk, ball, polydisk); products compose the entries of
their factors in `_product_geometry`. The normalizations all reduce to
the disk form |u|^2 / (1 - |z|^2)^2 in one variable:

    disk/polydisk: H_z(u, u*) = sum_k |u_k|^2 / (1 - |z_k|^2)^2
    ball:          H_z(u, u*) = [(1 - |z|^2)|u|^2 + |<u,z>|^2] / (1 - |z|^2)^2

Q_f(z), the supremum over directions u of |grad f(z) . u| / H_z(u, u*)^(1/2),
equals (g^H (M^T)^(-1) g)^(1/2) for g = grad f(z) and M the metric
matrix, which reduces to

    disk/polydisk: Q^2 = sum_k (1 - |z_k|^2)^2 |g_k|^2
    ball:          Q^2 = (1 - |z|^2) (|g|^2 - |g . z|^2)
    products:      sums of the factor Q^2

The extremal growth omega(z) and the distance rho(0, z) are both at
least arctanh of the domain's gauge (euclidean norm on disk and ball,
largest coordinate modulus on the polydisk, largest factor gauge on
products). On disk and ball that bound is exact: the radial segment
integrates to arctanh|z|, the identity the omega verify suite re-checks
numerically. On the polydisk the growth is at most sum_k arctanh|z_k|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from .domains import DomainDescriptor, Kind, contains, _as_point
from .errors import (OutsideDomainError, UnsupportedMetricError, UsageError)
from .estimates import (EstimateInterval, MODE_ANALYTIC_BOUNDS, exact)

QUAD_ABS_TOL = 1e-8

# reported rho uppers get padded by the quadrature tolerance so they
# stay certified against integration error
RHO_UPPER_PAD = QUAD_ABS_TOL

# the vanishing-class lower growth only uses test functions from the
# little class; on disk and ball the two growths coincide in the limit,
# so only this shave of the gauge separates the envelopes
_SHAVE = 1.0 - 1e-6


@dataclass(frozen=True)
class Geometry:
    """Bergman geometry of one metric-supported domain. `z` is a point,
    rows of `Z` and `G` are points and gradients, and `U` is one
    direction or rows of directions.

    matrix(z)      metric matrix M with H_z(u, u*) = u^H M u
    form(z, U)     H_z(u, u*) per direction, without assembling M
    q(Z, G)        Q_f per row from the gradients of f
    gauge(Z)       Minkowski functional; arctanh of it is a certified
                   lower bound for both omega(z) and rho(0, z)
    omega_upper(Z) certified upper bound for omega(z)
    exact          arctanh(gauge) is omega(z) and rho(0, z) themselves
    """

    matrix: Callable
    form: Callable
    q: Callable
    gauge: Callable
    omega_upper: Callable
    exact: bool

    def omega_lower(self, Z: np.ndarray, little: bool = False) -> np.ndarray:
        """Certified lower growth per row; little=True uses only test
        functions from the vanishing class."""
        r = self.gauge(Z)
        if little:
            return np.arctanh(_SHAVE * r) / _SHAVE
        return np.arctanh(r)


# Per-kind formulas. They reduce with the ndarray.sum method: np.sum gives
# the same arithmetic but its dispatch is a large share of one
# single-point call in path quadrature and line searches.

def _coord_weights(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 - np.abs(z) ** 2) ** 2


def _coord_matrix(z: np.ndarray) -> np.ndarray:
    return np.diag(_coord_weights(z)).astype(np.complex128)


def _coord_form(z: np.ndarray, U: np.ndarray):
    return np.abs(U) ** 2 @ _coord_weights(z)


def _coord_q(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    w = (1.0 - np.abs(Z) ** 2) ** 2
    return np.sqrt((w * np.abs(G) ** 2).sum(axis=1))


def _ball_matrix(z: np.ndarray) -> np.ndarray:
    r2 = float((np.abs(z) ** 2).sum())
    eye = np.eye(len(z), dtype=np.complex128)
    return ((1.0 - r2) * eye + np.outer(z, np.conj(z))) / (1.0 - r2) ** 2


def _ball_form(z: np.ndarray, U: np.ndarray):
    r2 = float((np.abs(z) ** 2).sum())
    pair = U @ np.conj(z)  # sum_j u_j conj(z_j), |.| = |<u,z>|
    return ((1.0 - r2) * (np.abs(U) ** 2).sum(axis=-1) + np.abs(pair) ** 2) \
        / (1.0 - r2) ** 2


def _ball_q(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    r2 = (np.abs(Z) ** 2).sum(axis=1)
    dot = (G * Z).sum(axis=1)
    val = (1.0 - r2) * ((np.abs(G) ** 2).sum(axis=1) - np.abs(dot) ** 2)
    return np.sqrt(np.maximum(val, 0.0))


def _norm(Z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(Z, axis=1)


def _max_modulus(Z: np.ndarray) -> np.ndarray:
    return np.max(np.abs(Z), axis=1)


def _radial_growth(Z: np.ndarray) -> np.ndarray:
    return np.arctanh(_norm(Z))


def _coordinate_growth_sum(Z: np.ndarray) -> np.ndarray:
    return np.sum(np.arctanh(np.abs(Z)), axis=1)


_GEOMETRY = {
    Kind.DISK: Geometry(_coord_matrix, _coord_form, _coord_q,
                        _norm, _radial_growth, exact=True),
    Kind.BALL: Geometry(_ball_matrix, _ball_form, _ball_q,
                        _norm, _radial_growth, exact=True),
    Kind.POLYDISK: Geometry(_coord_matrix, _coord_form, _coord_q,
                            _max_modulus, _coordinate_growth_sum, exact=False),
}


@lru_cache(maxsize=64)
def _product_geometry(d: DomainDescriptor) -> Geometry:
    """Block composition: the metric is block diagonal, forms and Q^2 add
    up over factors, and so do the growth uppers. Projections onto the
    factors decrease the metric and the Bloch norm, so the largest factor
    gauge gives the lower bounds."""
    parts = [(s, t, geometry(f)) for s, t, f in d.factor_slices()]
    n = d.ambient_dim

    def matrix(z):
        out = np.zeros((n, n), dtype=np.complex128)
        for s, t, g in parts:
            out[s:t, s:t] = g.matrix(z[s:t])
        return out

    def form(z, U):
        return sum(g.form(z[s:t], U[..., s:t]) for s, t, g in parts)

    def q(Z, G):
        return np.sqrt(sum(g.q(Z[:, s:t], G[:, s:t]) ** 2 for s, t, g in parts))

    def gauge(Z):
        return np.max(np.stack([g.gauge(Z[:, s:t]) for s, t, g in parts]), axis=0)

    def omega_upper(Z):
        return sum(g.omega_upper(Z[:, s:t]) for s, t, g in parts)

    return Geometry(matrix, form, q, gauge, omega_upper, exact=False)


def _require_metric(d: DomainDescriptor):
    if not d.metric_supported:
        raise UnsupportedMetricError(f"metric tensor not available for {d}")


def geometry(d: DomainDescriptor) -> Geometry:
    """The geometry table entry of a metric-supported domain."""
    _require_metric(d)
    return _product_geometry(d) if d.factors else _GEOMETRY[d.kind]


@dataclass(frozen=True)
class HermitianMetric:
    """Metric matrix M at a point; H_z(u, u*) = u^H M u."""

    point: tuple
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UsageError("metric matrix must be square")
        scale = float(np.max(np.abs(m))) or 1.0
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
            raise UsageError("metric matrix not Hermitian")
        if float(np.min(np.linalg.eigvalsh(m))) <= 0.0:
            raise UsageError("metric matrix not positive definite")

    def form(self, u) -> float:
        u = np.asarray(u, dtype=np.complex128).reshape(-1)
        return float(np.real(np.vdot(u, self.matrix @ u)))


def _require_interior(d: DomainDescriptor, z: np.ndarray):
    if not contains(d, z):
        raise OutsideDomainError(f"point not interior to {d}")


def metric_matrix(d: DomainDescriptor, z) -> np.ndarray:
    g = geometry(d)
    z = _as_point(d, z)
    _require_interior(d, z)
    return g.matrix(z)


def bergman_metric(d: DomainDescriptor, z) -> HermitianMetric:
    """Validated metric tensor at an interior point."""
    z = _as_point(d, z)
    return HermitianMetric(tuple(z.tolist()), metric_matrix(d, z))


def metric_form(d: DomainDescriptor, z, u) -> float:
    """H_z(u, u*) through the closed forms (no matrix assembly)."""
    g = geometry(d)
    return float(g.form(_as_point(d, z), _as_point(d, u)))


@dataclass(frozen=True)
class PiecewisePath:
    """Linear interpolation through nodes, rows of a complex array."""

    nodes: tuple

    @staticmethod
    def through(points) -> "PiecewisePath":
        arr = np.asarray(points, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise UsageError("path needs >= 2 nodes of equal dimension")
        return PiecewisePath(tuple(map(tuple, arr.tolist())))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=np.complex128)


def _check_path_interior(d: DomainDescriptor, nodes: np.ndarray):
    # supported domains are convex, so nodes interior => segments interior;
    # intermediate samples guard against misuse all the same
    for i in range(nodes.shape[0] - 1):
        a, b = nodes[i], nodes[i + 1]
        for t in np.linspace(0.0, 1.0, 9):
            if not contains(d, a + t * (b - a)):
                raise OutsideDomainError("path leaves the domain")


def path_length(d: DomainDescriptor, path: PiecewisePath) -> float:
    """Metric length, adaptive quadrature per segment (absolute tol 1e-8)."""
    form = geometry(d).form
    nodes = path.as_array()
    if nodes.shape[1] != d.ambient_dim:
        raise UsageError("path dimension mismatch")
    _check_path_interior(d, nodes)
    nseg = nodes.shape[0] - 1
    total = 0.0
    for i in range(nseg):
        a, b = nodes[i], nodes[i + 1]
        u = b - a
        if not np.any(u):
            continue

        def integrand(t):
            return form(a + t * u, u) ** 0.5

        val, _ = integrate.quad(integrand, 0.0, 1.0,
                                epsabs=QUAD_ABS_TOL / nseg, limit=200)
        total += val
    return total


def segment_from_origin(d: DomainDescriptor, z) -> PiecewisePath:
    z = _as_point(d, z)
    return PiecewisePath.through(np.stack([np.zeros_like(z), z]))


def _optimize_upper(d: DomainDescriptor, z: np.ndarray, start: float) -> float:
    """Downhill-simplex tightening over 8 intermediate path nodes."""
    n = len(z)
    ts = np.linspace(0.0, 1.0, 10)[1:-1]
    base = ts[:, None] * z[None, :]

    def to_path(x):
        mid = base + (x[: 8 * n] + 1j * x[8 * n:]).reshape(8, n)
        return np.vstack([np.zeros(n), mid, z])

    def cost(x):
        nodes = to_path(x)
        for row in nodes:
            if not contains(d, row):
                return start + 10.0 + float(np.max(np.abs(row)))
        return path_length(d, PiecewisePath(tuple(map(tuple, nodes.tolist()))))

    res = optimize.minimize(cost, np.zeros(16 * n), method="Nelder-Mead",
                            options={"maxiter": 200, "xatol": 1e-4,
                                     "fatol": 1e-7, "adaptive": False})
    return min(start, float(res.fun))


def rho_from_origin(d: DomainDescriptor, z, optimize_path: bool = False) -> EstimateInterval:
    """Metric distance from the origin.

    Disk and ball: exact arctanh of the euclidean size. Polydisk and
    products: interval [arctanh of the gauge, straight-segment length +
    quadrature pad], optionally tightened by path optimization.
    """
    g = geometry(d)
    z = _as_point(d, z)
    _require_interior(d, z)
    lower = float(g.omega_lower(z.reshape(1, -1))[0])
    if g.exact:
        return exact(lower)
    upper = path_length(d, segment_from_origin(d, z))
    if optimize_path:
        upper = _optimize_upper(d, z, upper)
    upper = max(upper + RHO_UPPER_PAD, lower)
    return EstimateInterval(lower, upper, MODE_ANALYTIC_BOUNDS)


def omega_upper_closed(d: DomainDescriptor, z) -> float:
    """Closed-form upper bound for the extremal growth omega(z):
    arctanh on disk/ball (exact), coordinate arctanh sum on the
    polydisk, factor sums on products."""
    z = _as_point(d, z)
    return float(geometry(d).omega_upper(z.reshape(1, -1))[0])
