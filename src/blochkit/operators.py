"""Multiplication-operator diagnostics: the boundary weight
sigma_psi = sup_z omega(z) Q_psi(z), operator-norm sandwiches, spectra
as sampled range clouds, and compactness / isometry verdicts.

Key facts wired into the verdicts:

  * max(||psi||_B, ||psi||_inf) <= ||M_psi|| <= max(||psi||_B,
    ||psi||_inf + sigma_psi), so sampled lower bounds for the
    components certify an operator-norm lower bound. Every component,
    asked alone (`supnorm_estimate`, `sigma_estimate`) or several at
    once (`norm_bounds`, `operator_report`), and every Bloch norm of the
    battery's products is a read of `bloch._components`, for one symbol
    or many (`_sandwiches`).
  * the spectrum is the closure of the symbol's range, and the
    resolvent at lambda is controlled by sigma_psi / dist^2.
  * M_psi is compact only for the zero symbol.
  * M_psi is an isometry iff psi is a unimodular constant whenever the
    domain's seminorm ceiling sits strictly below one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isinf, nextafter

import numpy as np

from .bloch import (AGAINST, _components, _family_sups, _shell_maxima,
                    beta_upper_poly, little_star_membership_diagnostic)
from .constants import in_class_D, resolved_constant
from .domains import DomainDescriptor, Kind, _stream, sample_interior
from .errors import NumericalDomainError, UsageError
from .estimates import (DEFAULT_EPS_LADDER, EstimateInterval, SamplingConfig,
                        _check_ladder)
from .metric import _require_metric, geometry
from .symbols import (DEGREE_CAP, Polynomial, SymbolExpr, combine, constant,
                      evaluate, evaluate_many, is_constant, power_within_caps,
                      supnorm_upper)

DEFAULT_BOUNDARY_EPS = (0.1, 0.01, 1e-3, 1e-4)

BOUNDED = "bounded"
BOUNDED_EVIDENCE = "bounded-evidence"
UNBOUNDED_EVIDENCE = "unbounded-evidence"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# boundary weight

# max over r in (0, 1) of arctanh(r) sqrt(1 - r^2), which is
# 0.66274341934918158..., rounded up by 2.8e-14 relative, so that the
# rounded product with a coefficient bound stays above the true ceiling
_RADIAL_PEAK = 0.6627434193492


def sigma_upper_poly(d: DomainDescriptor, psi: Polynomial) -> float:
    """Certified ceiling for the boundary weight of a polynomial symbol.

    Disk and ball only: Q <= sqrt(1 - |z|^2) * G with G the gradient
    coefficient bound, and arctanh(r) sqrt(1 - r^2) peaks below 0.6628.
    Elsewhere (polydisks and products) it is +inf: there the weight is
    infinite for most polynomials, since the growth blows up in one
    factor while Q stays away from zero in another.
    """
    if not isinstance(psi, Polynomial):
        raise UsageError("polynomial ceiling needs a polynomial symbol")
    if d.kind in (Kind.DISK, Kind.BALL):
        return _RADIAL_PEAK * beta_upper_poly(psi)
    return inf


def sigma_estimate(d: DomainDescriptor, psi: SymbolExpr,
                   cfg: SamplingConfig = SamplingConfig(),
                   which: str = "sigma") -> EstimateInterval:
    """Boundary-weight estimate sup_z omega(z) Q_psi(z); which="sigma0"
    replaces omega by the certified vanishing-class lower growth.

    The lower end is the sampled sup of the exact growth (or of the
    vanishing-class growth) times Q, a true lower bound. The upper end is
    the polynomial ceiling `sigma_upper_poly`, finite on disk and ball
    only, and +inf everywhere else.
    """
    if which not in ("sigma", "sigma0"):
        raise UsageError("which must be 'sigma' or 'sigma0'")
    return _sandwich_parts(d, psi, cfg, (which,))[which]


def supnorm_estimate(d: DomainDescriptor, psi: SymbolExpr,
                     cfg: SamplingConfig = SamplingConfig()) -> EstimateInterval:
    """Sampled lower / analytic upper interval for sup_z |psi(z)|."""
    return _sandwich_parts(d, psi, cfg, ("sup",))["sup"]


# ---------------------------------------------------------------------------
# boundedness

@dataclass(frozen=True)
class BoundednessReport:
    verdict: str
    eps: tuple[float, ...]
    maxima: tuple[float, ...]
    supnorm_lower: float
    note: str

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "eps": list(self.eps),
                "maxima": list(self.maxima),
                "supnorm_lower": self.supnorm_lower, "note": self.note}


def boundedness_verdict(d: DomainDescriptor, psi: SymbolExpr,
                        cfg: SamplingConfig = SamplingConfig(),
                        eps_ladder: tuple[float, ...] | None = None,
                        space: str = "B") -> BoundednessReport:
    """Heuristic verdict from shell maxima of the criterion quantity
    omega * Q toward the distinguished boundary.

    bounded-evidence when the last two shells agree within 5% or the
    maxima never increase (decay is stronger evidence than a plateau);
    unbounded-evidence when every step grows by more than 20%; else
    inconclusive. Never a proof in either direction. space="B0*"
    additionally requires the symbol's own decay diagnostic to pass on
    the same ladder, of two or more strictly decreasing rungs (default
    DEFAULT_BOUNDARY_EPS for B, DEFAULT_EPS_LADDER for B0*).
    """
    if space not in ("B", "B0*"):
        raise UsageError("space must be 'B' or 'B0*'")
    _require_metric(d)
    if eps_ladder is None:
        eps_ladder = DEFAULT_EPS_LADDER if space == "B0*" else DEFAULT_BOUNDARY_EPS
    eps = _check_ladder(eps_ladder)
    if is_constant(psi) is not None:
        return BoundednessReport(BOUNDED, eps, (0.0,) * len(eps),
                                 abs(is_constant(psi)),
                                 "constant symbol, zero boundary weight")
    sup_lower = float(np.max(np.abs(evaluate_many(
        psi, sample_interior(d, max(256, cfg.samples // 4), cfg.seed,
                             cfg.shells)))))
    geo, little = geometry(d), space == "B0*"
    _, m, non_increasing = _shell_maxima(d, psi, eps, cfg,
                                         lambda Z: geo.growth(Z, little))
    if space == "B0*":
        _, diag = little_star_membership_diagnostic(d, psi, eps, cfg)
        if diag == AGAINST:
            return BoundednessReport(
                UNBOUNDED_EVIDENCE, eps, m, sup_lower,
                "symbol fails the vanishing-class decay diagnostic")
    if max(m) <= 1e-15:
        return BoundednessReport(BOUNDED, eps, m, sup_lower,
                                 "criterion quantity vanishes on all shells")
    plateau = abs(m[-1] - m[-2]) < 0.05 * max(m[-1], m[-2])
    if plateau or non_increasing:
        return BoundednessReport(BOUNDED_EVIDENCE, eps, m, sup_lower,
                                 "shell maxima do not grow toward the boundary")
    if all(b > 1.2 * a for a, b in zip(m, m[1:])):
        return BoundednessReport(UNBOUNDED_EVIDENCE, eps, m, sup_lower,
                                 "shell maxima grow by more than 20% per shell")
    return BoundednessReport(INCONCLUSIVE, eps, m, sup_lower,
                             "shell maxima neither settle nor grow cleanly")


# ---------------------------------------------------------------------------
# operator norm

@dataclass(frozen=True)
class NormBounds:
    """Sandwich for ||M_psi|| with the component estimates exposed."""

    lower: float
    upper: float
    sup: EstimateInterval
    bloch: EstimateInterval
    sigma: EstimateInterval
    space: str

    def as_dict(self) -> dict:
        return {"lower": self.lower,
                "upper": None if isinf(self.upper) else self.upper,
                "space": self.space,
                "supnorm": self.sup.as_dict(), "bloch_norm": self.bloch.as_dict(),
                "boundary_weight": self.sigma.as_dict()}


def _ceiling(d: DomainDescriptor, psi: SymbolExpr, name: str) -> float | None:
    """Certified upper end of the sandwich component `name` ("sup",
    "bloch", "sigma" or "sigma0"; see `bloch._components`), None for
    +inf: `supnorm_upper` for the sup-norm, and coefficient bounds, which
    only polynomials have, for the others."""
    if name == "sup":
        return supnorm_upper(psi)
    if not isinstance(psi, Polynomial):
        return None
    if name == "bloch":
        return abs(evaluate(psi, np.zeros(d.ambient_dim))) + beta_upper_poly(psi)
    return sigma_upper_poly(d, psi)


def _sandwiches(d: DomainDescriptor, psis, cfg: SamplingConfig, names: tuple[str, ...],
                battery=()) -> list[tuple[dict[str, EstimateInterval], float]]:
    """Each symbol's sandwich components `names`, each with its
    `_ceiling`, and its battery lower bound, the max over the (f, norm)
    pairs of `battery` of lower(||psi f||_B) / norm (0.0 without a
    battery), from one `bloch._components` call."""
    asks = [(psi, {name: _ceiling(d, psi, name) for name in names}) for psi in psis]
    asks += [(combine("product", psi, f), {"bloch": None}) for psi in psis for f, _ in battery]
    found = _components(d, asks, cfg)
    products = iter(found[len(psis):])
    return [(parts, max([0.0] + [product["bloch"].lower / norm
                                 for (_, norm), product in zip(battery, products)]))
            for parts in found[:len(psis)]]


def _sandwich_parts(d: DomainDescriptor, psi: SymbolExpr, cfg: SamplingConfig,
                    names: tuple[str, ...]) -> dict[str, EstimateInterval]:
    return _sandwiches(d, [psi], cfg, names)[0][0]


def _sandwich(parts: dict[str, EstimateInterval], space: str) -> NormBounds:
    sigma = parts["sigma0" if space == "B0*" else "sigma"]
    lower = max(parts["sup"].lower, parts["bloch"].lower)
    upper = max(parts["bloch"].upper, parts["sup"].upper + sigma.upper)
    return NormBounds(lower, max(upper, lower), parts["sup"], parts["bloch"],
                      sigma, space)


def norm_bounds(d: DomainDescriptor, psi: SymbolExpr,
                cfg: SamplingConfig = SamplingConfig(),
                space: str = "B") -> NormBounds:
    """Two-sided operator-norm sandwich.

    lower = max of the sampled component lower bounds (the Bloch-norm
    component is what acting on the constant function one yields);
    upper = max(bloch upper, sup upper + sigma upper) when every piece
    is finite, +inf otherwise. space="B0*" uses the vanishing-class
    boundary weight. The components come from one sampled-sup call.
    """
    if space not in ("B", "B0*"):
        raise UsageError("space must be 'B' or 'B0*'")
    sigma = "sigma0" if space == "B0*" else "sigma"
    return _sandwich(_sandwich_parts(d, psi, cfg, ("sup", "bloch", sigma)), space)


def _battery(d: DomainDescriptor, nfuncs: int, seed: int) -> list[tuple[Polynomial, float]]:
    """The test functions f of the battery, each with its certified Bloch
    norm, where that is positive: the constant 1, the first min(n, 3)
    coordinates, then random sums up to nfuncs members in all."""
    n = d.ambient_dim
    if nfuncs < 1 + min(n, 3):
        raise UsageError(f"nfuncs must be >= {1 + min(n, 3)} on {d}, got {nfuncs}")
    out = [constant(1.0, n)]
    for j in range(min(n, 3)):
        exps = tuple(1 if i == j else 0 for i in range(n))
        out.append(Polynomial(n, ((exps, 1.0 + 0.0j),)))
    rng = _stream(seed, 31)
    while len(out) < nfuncs:
        terms = []
        for _ in range(3):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
            if sum(exps) == 0:
                continue
            c = complex(rng.normal(), rng.normal())
            terms.append((exps, c))
        if terms:
            out.append(combine("sum", *[Polynomial(n, (t,)) for t in terms]))
    return [(f, norm) for f in out if (norm := _ceiling(d, f, "bloch")) > 0]


def empirical_opnorm_lower(d: DomainDescriptor, psi: SymbolExpr,
                           cfg: SamplingConfig = SamplingConfig(),
                           nfuncs: int = 12, seed: int = 42) -> float:
    """Operator-norm lower bound from a battery of certified test
    functions: max over f of lower(||psi f||_B) / upper(||f||_B)."""
    return _sandwiches(d, [psi], cfg, (), _battery(d, nfuncs, seed))[0][1]


def _opnorms(d: DomainDescriptor, psis, cfg: SamplingConfig, nfuncs: int = 12,
             seed: int = 42) -> list[tuple[NormBounds, float]]:
    """`norm_bounds(d, psi, cfg)` and `empirical_opnorm_lower(d, psi, cfg,
    nfuncs, seed)` of every symbol in psis, from one `_sandwiches` call."""
    return [(_sandwich(parts, "B"), lower) for parts, lower in _sandwiches(
        d, psis, cfg, ("sup", "bloch", "sigma"), _battery(d, nfuncs, seed))]


# ---------------------------------------------------------------------------
# spectrum

@dataclass(frozen=True)
class SpectrumCloud:
    """Sampled image of the symbol; the spectrum is its closure."""

    points: np.ndarray = field(repr=False)
    bbox: tuple[float, float, float, float]
    hull_area: float
    hull_vertices: np.ndarray = field(repr=False)
    is_singleton: bool

    def distance(self, lam: complex) -> float:
        return float(np.min(np.abs(self.points - complex(lam))))

    def resolvent_scale(self, lam: complex, sigma: float) -> float:
        alpha = self.distance(lam)
        if alpha <= 0.0:
            return inf
        return sigma / (alpha * alpha)

    def as_dict(self) -> dict:
        return {"count": int(self.points.size),
                "bbox": list(self.bbox),
                "hull_area": self.hull_area,
                "is_singleton": self.is_singleton}


# Shewchuk's bound on the rounding error of (ax - cx)(by - cy) -
# (ay - cy)(bx - cx) evaluated in binary64 (Adaptive precision
# floating-point arithmetic and fast robust geometric predicates, DCG 18,
# 1997), and an absolute floor for products that may have underflowed
_CCW_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_UNDERFLOW = 2.0 ** -1000


def _hull_candidates(xy: np.ndarray) -> np.ndarray:
    """Indices, in order, of the points of xy (rows x, y) that are not
    strictly inside the octagon of its 8 extreme points, the least and
    greatest x, y, x + y and x - y (Akl and Toussaint, A fast convex hull
    algorithm, IPL 7, 1978). The octagon's corners are points of xy, so
    a point strictly inside it is inside the hull and no vertex of it:
    `_hull` of the candidates has the vertices, and so the area, of
    `_hull` of xy. Exact duplicates are kept or dropped together. A
    point is dropped only when it is inside every edge by a margin far
    above the rounding of the products, underflow included, and nothing
    is dropped when the octagon is degenerate."""
    x, y = xy[:, 0], xy[:, 1]
    # the extreme points in the directions 0, 45, ..., 315 degrees: counterclockwise
    corners = xy[[np.argmax(x), np.argmax(x + y), np.argmax(y), np.argmin(x - y),
                  np.argmin(x), np.argmin(x + y), np.argmin(y), np.argmax(x - y)]]
    width = float(np.ptp(corners, axis=0).max())
    margin = 1e-9 * width * (width + float(np.abs(corners).max())) + _UNDERFLOW
    u, v = (corners[1:-1] - corners[0]).T, (corners[2:] - corners[0]).T
    if not (u[0] * v[1] - u[1] * v[0]).sum() / 2.0 > margin:
        return np.arange(len(xy))
    edges = np.roll(corners, -1, axis=0) - corners
    live = (edges != 0).any(axis=1)
    # inward normals: p is inside edge k when normal_k . (p - corner_k) > margin
    normals = np.column_stack([-edges[live, 1], edges[live, 0]])
    floor = (normals * corners[live]).sum(axis=1) + margin
    inside = (normals @ xy.T > floor[:, None]).all(axis=0)
    return np.flatnonzero(~inside)


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_k and one power of two s with values[k] = n_k / s
    exactly, for finite floats."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(q for _, q in ratios)  # every q is a power of two
    return [p * (scale // q) for p, q in ratios], scale


def _turns(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """The exact sign of the turn a -> b -> c for arrays of coordinates:
    1 left, -1 right, 0 straight. The float sign stands when it clears
    the rounding bound, and the rest are decided on the floats' exact
    values."""
    dl = (ax - cx) * (by - cy)
    dr = (ay - cy) * (bx - cx)
    det = dl - dr
    sign = np.sign(det)
    unsure = np.flatnonzero(~(np.abs(det) > _CCW_BOUND * (np.abs(dl) + np.abs(dr))
                              + _UNDERFLOW))
    if unsure.size:
        rows = np.column_stack([np.broadcast_to(v, det.shape)[unsure]
                                for v in (ax, ay, bx, by, cx, cy)])
        a, b, c = rows[:, 0:2].T, rows[:, 2:4].T, rows[:, 4:6].T
        # a zero factor in each product: the exact value is 0 as well
        hard = ~(((a[0] == c[0]) | (b[1] == c[1])) & ((a[1] == c[1]) | (b[0] == c[0])))
        for k, row in zip(unsure[hard].tolist(), rows[hard].tolist()):
            (px, py, qx, qy, rx, ry), _ = _dyadic(row)
            exact = (px - rx) * (qy - ry) - (py - ry) * (qx - rx)
            sign[k] = (exact > 0) - (exact < 0)
    return sign


def _hull(xy: np.ndarray) -> tuple[np.ndarray, float]:
    """(indices of the vertices, area) of the convex hull of the points
    xy (rows x, y), exactly on their float values: the vertices are the
    points where the boundary turns, counterclockwise from the least
    (x, y), the first of exact duplicates, and the area is the polygon's
    rounded down. With 1 or 2 vertices the area is 0.0.

    Andrew's monotone chain (IPL 9, 1979) in whole-array passes. The
    points below the chord from the least to the greatest (x, y), in
    increasing order, and those above it, in decreasing order, make one
    ring through the two ends. A point of the ring that fails to turn
    left between a point before it and one after it is no vertex, so
    each pass drops all of them at once: first against the points
    farthest from the chord in each run of 16, then against the ring
    neighbours until every turn is left."""
    x, y = xy[:, 0], xy[:, 1]
    order = np.argsort(x)
    if not (np.diff(x[order]) > 0).all():
        # ties in x: by y, and exact duplicates by index, keeping the first
        order = np.lexsort((y, x))
        xs, ys = x[order], y[order]
        order = order[np.concatenate([[True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])])]
    if len(order) < 3:
        return order, 0.0
    first, last, inner = order[0], order[-1], order[1:-1]
    below = _turns(x[first], y[first], x[inner], y[inner], x[last], y[last])
    lower, upper = inner[below > 0], inner[below < 0]
    ring = np.concatenate([[first], lower, [last], upper[::-1], [first]])
    # +1 below the chord, -1 above it, 0 at the two ends, which stay
    side = np.repeat(np.int8([0, 1, 0, -1, 0]), [1, len(lower), 1, len(upper), 1])
    normal = (y[last] - y[first], x[first] - x[last])
    rx, ry = x[ring], y[ring]
    group = 16
    while True:
        mid = np.flatnonzero(side)
        if group > 1:
            # any points of the ring are valid pivots; the deepest drop the most
            depth = np.full(-(-len(ring) // group) * group, -np.inf)
            depth[:len(ring)] = side * (normal[0] * (rx - x[first]) + normal[1] * (ry - y[first]))
            pivot = side == 0
            pivot[np.arange(0, len(depth), group) + depth.reshape(-1, group).argmax(axis=1)] = True
            pivots = np.flatnonzero(pivot)
            before = pivots[np.searchsorted(pivots, mid) - 1]
            after = pivots[np.searchsorted(pivots, mid, "right")]
        else:
            before, after = mid - 1, mid + 1
        left = _turns(rx[before], ry[before], rx[mid], ry[mid], rx[after], ry[after]) > 0
        if group == 1 and left.all():
            break
        group = 1
        keep = side == 0
        keep[mid] = left
        ring, side, rx, ry = ring[keep], side[keep], rx[keep], ry[keep]
    verts = ring[:-1]
    if len(verts) < 3:
        return verts, 0.0
    ints, scale = _dyadic(rx[:-1].tolist() + ry[:-1].tolist())
    vx, vy = ints[:len(verts)], ints[len(verts):]
    # twice the area, times scale**2, by the shoelace formula
    twice = sum(vx[k - 1] * vy[k] - vx[k] * vy[k - 1] for k in range(len(verts)))
    den = 2 * scale * scale
    try:
        area = twice / den  # correctly rounded
    except OverflowError:  # then the largest float is the area rounded down
        return verts, float(np.finfo(float).max)
    p, q = area.as_integer_ratio()
    return verts, (nextafter(area, 0.0) if p * den > twice * q else area)


def spectrum_cloud(d: DomainDescriptor, psi: SymbolExpr,
                   cfg: SamplingConfig = SamplingConfig()) -> SpectrumCloud:
    """The values of psi at the `cfg.samples` interior points that
    `sample_interior` draws, as an estimate of the spectrum of M_psi,
    the closure of psi's range. `bbox` is the values' bounding box, and
    `is_singleton` holds when it is at most 1e-12 wide. `hull_vertices`
    are the values where the boundary of their convex hull turns,
    counterclockwise from the least (real, imag), and `hull_area` is the
    exact area of that polygon rounded down: a lower bound for the area
    of the hull of the spectrum. With fewer than 3 vertices the area is
    0.0 and the vertices are the cloud's 1 or 2 extreme values. Values
    that overflow raise `NumericalDomainError`."""
    _require_metric(d)
    Z = sample_interior(d, cfg.samples, cfg.seed, cfg.shells)
    vals = evaluate_many(psi, Z)
    xy = np.column_stack([vals.real, vals.imag])
    if not np.isfinite(xy).all():
        raise NumericalDomainError("the symbol's values overflow at sampled points")
    bbox = (float(xy[:, 0].min()), float(xy[:, 0].max()),
            float(xy[:, 1].min()), float(xy[:, 1].max()))
    spread = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
    singleton = spread <= 1e-12
    keep = _hull_candidates(xy)
    verts, area = _hull(xy[keep])
    return SpectrumCloud(vals, bbox, area, vals[keep[verts]], singleton)


def grid_coverage(points: np.ndarray, radius: float = 0.95,
                  n: int = 20) -> tuple[np.ndarray, int]:
    """Occupancy counts over an n x n grid of the axis-aligned square
    inscribed in the disk |lambda| <= radius (every cell lies inside
    the disk). Returns (counts, number of empty cells)."""
    half = radius / np.sqrt(2.0)
    x = np.clip((points.real + half) / (2 * half) * n, 0, None)
    y = np.clip((points.imag + half) / (2 * half) * n, 0, None)
    ix, iy = np.floor(x).astype(int), np.floor(y).astype(int)
    ok = (points.real >= -half) & (points.real <= half) \
        & (points.imag >= -half) & (points.imag <= half)
    ix, iy = np.minimum(ix[ok], n - 1), np.minimum(iy[ok], n - 1)
    counts = np.zeros((n, n), dtype=int)
    np.add.at(counts, (ix, iy), 1)
    return counts, int(np.sum(counts == 0))


# ---------------------------------------------------------------------------
# compactness

@dataclass(frozen=True)
class CompactnessReport:
    verdict: str
    witness: dict

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "witness": self.witness}


def compactness_verdict(d: DomainDescriptor, psi: SymbolExpr,
                        cfg: SamplingConfig = SamplingConfig()) -> CompactnessReport:
    """Only the zero symbol gives a compact multiplier.

    Witness shapes: two sampled points with distinct symbol values, or
    for a (numerically) constant nonzero symbol the singleton-range
    argument (a one-point range away from zero is already forbidden).
    The zero certificate is exact for folded polynomial constants and
    sampled otherwise.
    """
    c = is_constant(psi)
    if c is not None:
        if c == 0:
            return CompactnessReport("compact", {"reason": "zero symbol"})
        return CompactnessReport(
            "not-compact",
            {"reason": "singleton range differs from zero", "value": repr(c)})
    _require_metric(d)
    Z = sample_interior(d, max(256, cfg.samples // 8), cfg.seed, cfg.shells)
    vals = evaluate_many(psi, Z)
    j = int(np.argmax(np.abs(vals - vals[0])))
    if abs(vals[j] - vals[0]) > 1e-12:
        return CompactnessReport(
            "not-compact",
            {"reason": "two distinct range values",
             "point_a": [repr(x) for x in Z[0]], "value_a": repr(vals[0]),
             "point_b": [repr(x) for x in Z[j]], "value_b": repr(vals[j])})
    if abs(vals[0]) <= 1e-12:
        return CompactnessReport(
            "compact-evidence",
            {"reason": "symbol vanishes at all sampled points",
             "samples": int(len(vals))})
    return CompactnessReport(
        "not-compact",
        {"reason": "singleton range differs from zero",
         "value": repr(vals[0]), "samples": int(len(vals))})


# ---------------------------------------------------------------------------
# isometry

@dataclass(frozen=True)
class IsometryReport:
    verdict: str
    reason: str
    ceiling: float | None = None
    modulus_at_zero: float | None = None
    modulus_powers: tuple[float, ...] = ()
    crossing_k: int | None = None
    power_betas: dict[int, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "ceiling": self.ceiling,
                "modulus_at_zero": self.modulus_at_zero,
                "modulus_powers": list(self.modulus_powers),
                "crossing_k": self.crossing_k,
                "power_betas": {str(k): v for k, v in self.power_betas.items()}}


def isometry_verdict(d: DomainDescriptor, psi: SymbolExpr,
                     cfg: SamplingConfig = SamplingConfig(),
                     k_max: int = 16) -> IsometryReport:
    """Three branches, after checking that `k_max`, the number of powers
    |psi(0)|^k reported, lies in [1, DEGREE_CAP].

    1. Constant symbols: isometry iff unimodular.
    2. Non-constant symbol on a domain whose seminorm ceiling is below
       one: never an isometry. Evidence: |psi(0)|^k falling through
       1 - ceiling (an isometry would pin every power's norm at one),
       plus sampled seminorms of the powers psi^k, k = 1, 2, 4, 8, 16,
       where a metric is wired. The chain rule gives them without
       expanding a power: grad psi^k = k psi^(k-1) grad psi, and Q is
       homogeneous in the gradient, so Q of psi^k is k |psi|^(k-1) Q_psi,
       and one evaluation of psi and its gradient per point serves every
       rung. The rungs stop where expanding psi^k would cross the degree
       or term cap (`power_within_caps`).
    3. Otherwise (a disk factor is present) only the necessary
       conditions ||psi||_inf <= 1 and ||psi||_B = 1 are tested, from
       one sampled-sup call; a numerical violation yields
       not-isometry-evidence, anything else is inconclusive (no theorem
       covers this case).
    """
    if not 1 <= k_max <= DEGREE_CAP:
        raise UsageError(f"k_max must lie in [1, {DEGREE_CAP}], got {k_max}")
    c = is_constant(psi)
    if c is not None:
        if abs(abs(c) - 1.0) <= 1e-12:
            return IsometryReport("isometry", "unimodular constant symbol",
                                  modulus_at_zero=abs(c))
        return IsometryReport("not-isometry",
                              "constant symbol scales norms by |c| != 1",
                              modulus_at_zero=abs(c))

    if in_class_D(d):
        ceiling = resolved_constant(d)
        z0 = np.zeros(d.ambient_dim)
        m0 = abs(evaluate(psi, z0))
        powers = tuple(m0 ** k for k in range(1, k_max + 1))
        crossing = next((k for k, v in enumerate(powers, start=1)
                         if v < 1.0 - ceiling), None)
        betas: dict[int, float] = {}
        if d.metric_supported:
            # evidence rows only, never a verdict input: sample coarsely
            small = cfg.with_(samples=max(256, cfg.samples // 16),
                              refine_restarts=1, refine_iters=12)
            ks = []
            for k in (1, 2, 4, 8, 16):
                if k > k_max or not power_within_caps(psi, k):
                    break
                ks.append(k)
            if ks:
                # Q of psi^k is k |psi|^(k-1) Q_psi
                rungs = [(psi, lambda v, q, Z, k=k: k * v ** (k - 1) * q, "vq")
                         for k in ks]
                betas = {k: sup[0] for k, sup in zip(ks, _family_sups(d, rungs, small))}
        return IsometryReport(
            "not-isometry",
            "non-constant symbol on a domain with seminorm ceiling below one",
            ceiling=ceiling, modulus_at_zero=m0, modulus_powers=powers,
            crossing_k=crossing, power_betas=betas)

    if not d.metric_supported:
        return IsometryReport(
            INCONCLUSIVE,
            "no metric wired for this domain and the ceiling is not below one")
    parts = _sandwich_parts(d, psi, cfg, ("sup", "bloch"))
    sup_est, norm_est = parts["sup"], parts["bloch"]
    m0 = abs(evaluate(psi, np.zeros(d.ambient_dim)))
    if sup_est.lower > 1.0 + 1e-9:
        return IsometryReport("not-isometry-evidence",
                              "sampled sup-norm exceeds one", modulus_at_zero=m0)
    if norm_est.lower > 1.0 + 1e-9:
        return IsometryReport("not-isometry-evidence",
                              "sampled Bloch norm exceeds one", modulus_at_zero=m0)
    if norm_est.upper < 1.0 - 1e-9:
        return IsometryReport("not-isometry-evidence",
                              "certified Bloch norm stays below one",
                              modulus_at_zero=m0)
    return IsometryReport(INCONCLUSIVE,
                          "necessary conditions hold within sampling resolution",
                          modulus_at_zero=m0)


# ---------------------------------------------------------------------------
# aggregate

@dataclass(frozen=True)
class OperatorReport:
    """Everything about one multiplier in one bundle. The two norm
    sandwiches share components; sigma0_lower <= sigma_upper ordering
    holds because the vanishing-class growth never exceeds the full
    one."""

    domain: str
    symbol_text: str
    sup_norm: EstimateInterval
    bloch_norm: EstimateInterval
    sigma: EstimateInterval
    sigma0: EstimateInterval
    verdicts: dict

    def as_dict(self) -> dict:
        return {"domain": self.domain, "symbol": self.symbol_text,
                "sup_norm": self.sup_norm.as_dict(),
                "bloch_norm": self.bloch_norm.as_dict(),
                "sigma": self.sigma.as_dict(), "sigma0": self.sigma0.as_dict(),
                "verdicts": self.verdicts}


def operator_report(d: DomainDescriptor, psi: SymbolExpr, symbol_text: str,
                    cfg: SamplingConfig = SamplingConfig()) -> OperatorReport:
    parts = _sandwich_parts(d, psi, cfg, ("sup", "bloch", "sigma", "sigma0"))
    nb = _sandwich(parts, "B")
    verdicts = {
        "norm_lower": nb.lower,
        "norm_upper_B": nb.upper,
        "norm_upper_B0*": _sandwich(parts, "B0*").upper,
        "boundedness": boundedness_verdict(d, psi, cfg).as_dict(),
    }
    return OperatorReport(str(d), symbol_text, nb.sup, nb.bloch, nb.sigma,
                          parts["sigma0"], verdicts)
