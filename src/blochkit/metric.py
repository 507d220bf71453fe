"""Bergman-type metric geometry: the metric matrix M (`metric_matrix`),
the invariant gradient size Q, growth envelopes, path lengths, and
distance-from-origin.

Every per-kind formula sits once in the table `_GEOMETRY`, keyed by the
metric kinds (disk, ball, polydisk), whose gauges are the domain
table's; products compose the entries of their factors in
`_product_geometry`. The normalizations all reduce to the disk form
|u|^2 / (1 - |z|^2)^2 in one variable:

    disk/polydisk: H_z(u, u*) = sum_k |u_k|^2 / (1 - |z_k|^2)^2
    ball:          H_z(u, u*) = [(1 - |z|^2)|u|^2 + |<u,z>|^2] / (1 - |z|^2)^2

Q_f(z), the supremum over directions u of |grad f(z) . u| / H_z(u, u*)^(1/2),
equals (g^H (M^T)^(-1) g)^(1/2) for g = grad f(z) and M the metric
matrix, which reduces to

    disk/polydisk: Q^2 = sum_k (1 - |z_k|^2)^2 |g_k|^2
    ball:          Q^2 = (1 - |z|^2) (|g|^2 - |g . z|^2)
    products:      sums of the factor Q^2

The metric of a polydisk or a product is the Riemannian product of the
disk and ball metrics of its factors (every polydisk coordinate counts as
one disk factor), so the Bergman distance is the l2 norm of the factor
distances:

    rho(a, b) = || (arctanh |phi_{a_f}(b_f)|)_f ||_2

with phi_a the Moebius automorphism of the factor exchanging a and 0. The
extremal growth omega(z) is rho(0, z) on every metric domain:
|f(z) - f(0)| <= beta_f rho(0, z) bounds it above, and the summed witness
sum_f (L_f / ||L||_2) h_f, where L_f = arctanh of the factor's size and
h_f is the factor's logarithmic witness with Q <= 1, has Q^2 <= 1 (the
factor Q^2 add up) and reaches ||L||_2 at z.

Path lengths integrate H_z(u, u*)^(1/2) along each segment with QUADPACK's
G10/K21 Gauss-Kronrod rule, batched: each refinement level evaluates the
metric form once over the open intervals of every segment of the path.
The error estimates summed over a path stay within QUAD_ABS_TOL = 1e-8.
Path lengths are an independent check of the closed-form distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domains import (_EDGE, _ROWS, DomainDescriptor, Kind, contains, _as_point,
                      _reduce, _row, _size)
from .errors import (OutsideDomainError, UnsupportedMetricError, UsageError)
from .estimates import EstimateInterval, exact

QUAD_ABS_TOL = 1e-8

# pad of distances used as upper bounds (Lipschitz quotients); it covers
# the rounding of the closed form, below 1e-12 relative
RHO_UPPER_PAD = QUAD_ABS_TOL

# the vanishing-class lower growth only uses test functions from the
# little class: the logarithmic witness of parameter size s < 1 gives
# arctanh(s g) / s at gauge g. That quotient increases in s (its
# derivative has the sign of x / (1 - x^2) - arctanh x > 0 at x = s g),
# so the largest s kept below 1 gives the tightest floor
_SHAVE = 1.0 - 1e-9

# chord roots aim at _AIM, inside the edge by more than the rounding of a
# computed end, so that the first gauge check admits most of them
_AIM = _EDGE - 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Geometry:
    """Bergman geometry of one metric-supported domain. `z` is a point,
    rows of `Z` and `G` are points and gradients, `U` is one direction or
    rows of directions, and rows of `W` are the second points of pairs.

    matrix(z)      metric matrix M with H_z(u, u*) = u^H M u
    form(Z, U)     H_z(u, u*) without assembling M, broadcast over the
                   leading axes of points Z and directions U
    q(Z, G)        Q_f per row from the gradients of f
    gauge(Z)       Minkowski functional from the domain table; the interior
                   is gauge < 1 - EIG_MARGIN, as `contains` tests it
    distance(Z, W) Bergman distance rho(w, z) per row, broadcast over
                   leading axes; W=None (the default) is the origin
    roots(Z, E)    (lo, hi) per row: the t where z + t e meets gauge = _AIM
    """

    matrix: Callable
    form: Callable
    q: Callable
    gauge: Callable
    distance: Callable
    roots: Callable

    def chord(self, Z: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Feasible t-interval (lo, hi) of z + t e per row, for interior
        rows of Z and nonzero rows of E: the roots, each end pulled toward
        0 until one batched gauge comparison admits it."""
        T = np.stack(self.roots(Z, E))
        step = np.broadcast_to(np.finfo(float).eps / _size(E), T.shape).copy()
        while True:
            P = (Z + T[..., None] * E).reshape(-1, Z.shape[-1])
            bad = _outside(self, P).reshape(T.shape) & (T != 0.0)
            if not bad.any():
                return T[0], T[1]
            T[bad] = np.copysign(np.maximum(np.abs(T[bad]) - step[bad], 0.0), T[bad])
            step[bad] *= 2.0

    def growth(self, Z: np.ndarray, little: bool = False) -> np.ndarray:
        """Extremal growth omega(z) = rho(0, z) per row; little=True gives
        the certified lower growth from test functions of the vanishing
        class alone."""
        if little:
            return np.arctanh(_SHAVE * self.gauge(Z)) / _SHAVE
        return self.distance(Z)


# Per-kind formulas. `form` broadcasts over leading axes of points and
# directions. They reduce over the coordinate axis with `domains._reduce`:
# np.add.reduce or np.hypot.reduce for the few rows of a line-search step,
# and the same arithmetic column by column for sample batches.

def _coord_weights(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 - np.abs(z) ** 2) ** 2


def _coord_matrix(z: np.ndarray) -> np.ndarray:
    return np.diag(_coord_weights(z)).astype(np.complex128)


def _coord_form(Z: np.ndarray, U: np.ndarray):
    return _reduce(np.add, np.abs(U) ** 2 * _coord_weights(Z))


def _coord_q(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    w = (1.0 - np.abs(Z) ** 2) ** 2
    return np.sqrt(_reduce(np.add, w * np.abs(G) ** 2))


def _ball_matrix(z: np.ndarray) -> np.ndarray:
    r2 = float((np.abs(z) ** 2).sum())
    eye = np.eye(len(z), dtype=np.complex128)
    return ((1.0 - r2) * eye + np.outer(z, np.conj(z))) / (1.0 - r2) ** 2


def _ball_form(Z: np.ndarray, U: np.ndarray):
    r2 = _reduce(np.add, np.abs(Z) ** 2)
    pair = _reduce(np.add, U * np.conj(Z))  # sum_j u_j conj(z_j), |.| = |<u,z>|
    return ((1.0 - r2) * _reduce(np.add, np.abs(U) ** 2) + np.abs(pair) ** 2) \
        / (1.0 - r2) ** 2


def _ball_q(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    r2 = _reduce(np.add, np.abs(Z) ** 2)
    dot = _reduce(np.add, G * Z)
    val = (1.0 - r2) * (_reduce(np.add, np.abs(G) ** 2) - np.abs(dot) ** 2)
    return np.sqrt(np.maximum(val, 0.0))


def _ball_distance(Z: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    """arctanh |phi_w(z)| over the last axis (the disk is one column);
    W=None is the origin, where phi_0(z) = -z. With delta = z - w and
    c_x = 1 - |x|^2 (Rudin, Function Theory in the Unit Ball of C^n,
    Thm 2.2.2):

        |phi_w(z)|^2     = (c_w |delta|^2 + |<delta,w>|^2) / |c_w - <delta,w>|^2
        1 - |phi_w(z)|^2 = c_w c_z / |c_w - <delta,w>|^2

    Neither form cancels. The first keeps close pairs and points near the
    origin to full relative precision. Where |phi| > 1/2, the second gives
    arctanh through 1 - |phi|, which rounding |phi| near 1 would lose.
    c_x = (1 - |x|)(1 + |x|) is exact on the axes.
    """
    if W is None:
        return np.arctanh(_size(Z))
    delta = Z - W
    rw, rz = _size(W), _size(Z)
    cw, cz = (1.0 - rw) * (1.0 + rw), (1.0 - rz) * (1.0 + rz)
    pair = _reduce(np.add, delta * W.conj())
    den = np.abs(cw - pair)
    t = np.hypot(np.sqrt(cw) * _size(delta), np.abs(pair)) / den
    far = t > 0.5
    return np.where(far, 0.5 * np.log1p(2.0 * t * (1.0 + t) * den ** 2 / (cw * cz)),
                    np.arctanh(np.where(far, 0.0, t)))


def _coord_distance(Z: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    # one disk factor per coordinate; from the origin, arctanh of the
    # moduli the gauge takes
    if W is None:
        L = np.arctanh(np.abs(Z))
    else:
        L = _ball_distance(Z[..., None], W[..., None])
    return _reduce(np.hypot, L)


def _ball_roots(Z: np.ndarray, E: np.ndarray):
    """The t with |z + t e| = _AIM over the last axis (the disk is one
    column): a t^2 + 2 b t + c = 0 with c < 0 inside, solved without
    cancellation. A factor with e = 0 puts no limit on t."""
    a = _reduce(np.add, (E.conj() * E).real)
    b = _reduce(np.add, (Z.conj() * E).real)
    r = _size(Z)
    c = (r - _AIM) * (r + _AIM)
    s = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = np.minimum(s / a, c / s), np.maximum(s / a, c / s)
    return np.where(a > 0, lo, -np.inf), np.where(a > 0, hi, np.inf)


def _coord_roots(Z: np.ndarray, E: np.ndarray):
    # one disk factor per coordinate; the chord is their intersection
    lo, hi = _ball_roots(Z[..., None], E[..., None])
    return lo.max(axis=-1), hi.min(axis=-1)


_GEOMETRY = {
    Kind.DISK: Geometry(_coord_matrix, _coord_form, _coord_q, _ROWS[Kind.DISK].gauge,
                        _ball_distance, _ball_roots),
    Kind.BALL: Geometry(_ball_matrix, _ball_form, _ball_q, _ROWS[Kind.BALL].gauge,
                        _ball_distance, _ball_roots),
    Kind.POLYDISK: Geometry(_coord_matrix, _coord_form, _coord_q,
                            _ROWS[Kind.POLYDISK].gauge, _coord_distance, _coord_roots),
}


@lru_cache(maxsize=64)
def _product_geometry(d: DomainDescriptor) -> Geometry:
    """Block composition: the metric is block diagonal, forms and Q^2 add
    up over factors, and so do squared distances (summed by hypot, which
    does not underflow). The chord is the intersection of the factor
    chords; the gauge, the largest factor gauge, is the domain table's."""
    parts = [(s, t, geometry(f)) for s, t, f in d.factor_slices()]
    n = d.ambient_dim

    def matrix(z):
        out = np.zeros((n, n), dtype=np.complex128)
        for s, t, g in parts:
            out[s:t, s:t] = g.matrix(z[s:t])
        return out

    def form(Z, U):
        return sum(g.form(Z[..., s:t], U[..., s:t]) for s, t, g in parts)

    def q(Z, G):
        return np.sqrt(sum(g.q(Z[:, s:t], G[:, s:t]) ** 2 for s, t, g in parts))

    def distance(Z, W=None):
        # hypot.reduce's order: from +0.0 through the factors in turn
        out = 0.0
        for s, t, g in parts:
            out = np.hypot(out, g.distance(Z[..., s:t], None if W is None else W[..., s:t]))
        return out

    def roots(Z, E):
        lo, hi = zip(*(g.roots(Z[..., s:t], E[..., s:t]) for s, t, g in parts))
        return np.max(lo, axis=0), np.min(hi, axis=0)

    return Geometry(matrix, form, q, _row(d).gauge, distance, roots)


def _require_metric(d: DomainDescriptor):
    if not d.metric_supported:
        raise UnsupportedMetricError(f"metric tensor not available for {d}")


def geometry(d: DomainDescriptor) -> Geometry:
    """The geometry table entry of a metric-supported domain."""
    _require_metric(d)
    return _product_geometry(d) if d.factors else _GEOMETRY[d.kind]


def _require_interior(d: DomainDescriptor, z: np.ndarray):
    if not contains(d, z):
        raise OutsideDomainError(f"point not interior to {d}")


def metric_matrix(d: DomainDescriptor, z) -> np.ndarray:
    """Metric matrix M at an interior point, H_z(u, u*) = u^H M u."""
    g = geometry(d)
    z = _as_point(d, z)
    _require_interior(d, z)
    return g.matrix(z)


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


# QUADPACK's qk21 rule on [-1, 1]: 21 Kronrod nodes, whose odd entries
# (counting from 0) are the 10 Gauss nodes. Halves, outermost node first.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _gk21_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes in ascending order, Kronrod weights, and Gauss weights (zero
    at the Kronrod-only nodes) of the full 21-point rule."""
    def mirror(half):
        half = np.asarray(half, dtype=float)
        return np.concatenate([half, half[-2::-1]])

    wg = np.zeros(11)
    wg[1::2] = _WG
    sign = np.concatenate([-np.ones(11), np.ones(10)])
    return sign * mirror(_XGK), mirror(_WGK), mirror(wg)


_GK_X, _GK_WK, _GK_WG = _gk21_tables()

# at most this many intervals per segment, like `limit` of QUADPACK's qags
_MAX_INTERVALS = 200

# the membership guard tests every path segment at these parameters
_GUARD_T = np.linspace(0.0, 1.0, 9)


def _gk21(geo: Geometry, A: np.ndarray, U: np.ndarray, seg: np.ndarray,
          lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and QUADPACK's qk21 error estimate of the metric
    length of segment A[seg] + t U[seg] over t in [lo, lo + width], per
    interval, from one evaluation of the metric form."""
    half = 0.5 * width
    T = (lo + half)[:, None] + half[:, None] * _GK_X
    Useg = U[seg][:, None, :]
    F = np.sqrt(geo.form(A[seg][:, None, :] + T[..., None] * Useg, Useg))
    resk = F @ _GK_WK
    resg = F @ _GK_WG
    resasc = np.abs(F - 0.5 * resk[:, None]) @ _GK_WK * half
    val = resk * half
    err = np.abs(resk - resg) * half
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    # F >= 0, so qk21's integral of |F| is the value itself
    return val, np.maximum(50.0 * np.finfo(float).eps * val, err)


def _outside(geo: Geometry, Z: np.ndarray) -> np.ndarray:
    """Per row: not strictly interior; `contains` makes this same test."""
    return geo.gauge(Z) >= _EDGE


def path_length(d: DomainDescriptor, path: PiecewisePath) -> float:
    """Metric length by adaptive Gauss-Kronrod quadrature (G10/K21) over
    all segments at once, one evaluation of the metric form per level.

    Each segment gets the error share tol = QUAD_ABS_TOL / nseg, so the
    error estimates summed over the path stay within QUAD_ABS_TOL. An
    interval of width w (segment parameter t in [0, 1]) is accepted when
    its qk21 error estimate is at most tol * w. The open intervals of a
    segment are accepted together once their estimates fit what is left
    of its share; otherwise those above an equal part of it are bisected.
    A segment stops splitting at 200 intervals, and its open intervals
    then add their value plus their error estimate, which keeps the
    result on the upper side.
    """
    geo = geometry(d)
    nodes = path.as_array()
    n = d.ambient_dim
    if nodes.shape[1] != n:
        raise UsageError("path dimension mismatch")
    A = nodes[:-1]
    U = nodes[1:] - A
    nseg = len(U)
    # supported domains are convex, so nodes interior => segments interior;
    # intermediate samples guard against misuse all the same
    probe = A[:, None, :] + _GUARD_T[:, None] * U[:, None, :]
    if np.any(_outside(geo, probe.reshape(-1, n))):
        raise OutsideDomainError("path leaves the domain")

    tol = QUAD_ABS_TOL / nseg
    spent = np.zeros(nseg)  # error estimates of the accepted intervals
    leaves = np.ones(nseg, dtype=int)
    seg = np.flatnonzero(np.any(U, axis=1))
    lo, width = np.zeros(len(seg)), np.ones(len(seg))
    val, err = _gk21(geo, A, U, seg, lo, width)
    total = 0.0
    while True:
        fit = err <= tol * width
        total += float(val[fit].sum())
        if fit.all():
            break
        spent += np.bincount(seg[fit], err[fit], minlength=nseg)
        seg, lo, width, val, err = (x[~fit] for x in (seg, lo, width, val, err))
        budget = (tol - spent)[seg]
        done = np.bincount(seg, err, minlength=nseg)[seg] <= budget
        split = ~done & (err > budget / np.bincount(seg)[seg])
        leaves += np.bincount(seg[split], minlength=nseg)
        capped = ~done & (leaves[seg] > _MAX_INTERVALS)
        total += float(val[done].sum() + (val + err)[capped].sum())
        split &= ~capped
        if not split.any():  # every open segment is done or capped
            break
        held = ~(done | capped | split)
        half = 0.5 * width[split]
        kids = (np.repeat(seg[split], 2),
                np.stack([lo[split], lo[split] + half], axis=1).ravel(),
                np.repeat(half, 2))
        seg, lo, width, val, err = (
            np.concatenate([x[held], y])
            for x, y in zip((seg, lo, width, val, err), kids + _gk21(geo, A, U, *kids)))
    return total


def segment_from_origin(d: DomainDescriptor, z) -> PiecewisePath:
    z = _as_point(d, z)
    return PiecewisePath.through(np.stack([np.zeros_like(z), z]))


def rho_from_origin(d: DomainDescriptor, z, optimize_path: bool = False) -> EstimateInterval:
    """Metric distance from the origin, exact on every metric domain: the
    l2 norm over the factors of arctanh of the factor's size (euclidean
    norm of a ball factor, modulus of a polydisk coordinate).
    `optimize_path` is accepted and ignored: the value is already the
    shortest length over all paths."""
    g = geometry(d)
    z = _as_point(d, z)
    _require_interior(d, z)
    return exact(float(g.growth(z.reshape(1, -1))[0]))
