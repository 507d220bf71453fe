"""Bloch-space calculus: the direction-sup gradient size Q_f, seminorm
and norm estimators, extremal growth bounds, and decay diagnostics.

Q_f(z) is the supremum over nonzero directions u of
|grad f(z) . u| / H_z(u, u*)^(1/2); its closed forms live in the
geometry table of `metric`, and `q_value_oracle` checks them over random
directions and the maximizer M^(-1) conj(g) from a metric solve.

A sampled supremum (`_sup_estimates`) is the max of a batched objective
over stratified samples, raised by golden-section line searches from the
best samples. Every one is drawn and refined by `_family_sups`, whose
members are functions of |psi| and Q_psi, of one symbol or of many, that
share a domain, a config and one draw. The scan takes each distinct
symbol's jet once; then the restarts of all members search in lockstep,
each line cut to its closed-form chord, with one batched gauge check and
one call of the members' family jet per step.

The component table (`_components`) turns such sups of one or many
symbols into `EstimateInterval`s: the sup-norm, the seminorm, the Bloch
norm and the boundary weights, each with the certified upper end its
caller passes. The isometry power ladder reads `_family_sups` directly.

The extremal growth omega and its floors are reads of the geometry
table: omega is the distance from the origin (`metric.rho_from_origin`,
also exported as `blochkit.omega_bounds`), the full-class floor is
arctanh of the gauge and the *-little floor is `Geometry.growth(little=True)`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import inf, sqrt

import numpy as np

from .domains import (DomainDescriptor, _as_point, _stream, _stream_seed,
                      _unit_directions, sample_interior,
                      sample_near_distinguished_boundary)
from .errors import OutsideDomainError, UsageError
from .estimates import (DecayProfile, DEFAULT_EPS_LADDER, EstimateInterval,
                        MODE_SAMPLED_LOWER, SamplingConfig, _check_ladder, exact)
from .metric import (RHO_UPPER_PAD, geometry, _outside, _require_interior,
                     _require_metric)
from .symbols import (Polynomial, SymbolExpr, evaluate, evaluate_many,
                      gradient, gradient_many, is_constant, jet_family,
                      jet_many)

CONSISTENT = "consistent-with-membership"
AGAINST = "evidence-against"


# ---------------------------------------------------------------------------
# Q values

def q_values(d: DomainDescriptor, f: SymbolExpr, Z: np.ndarray) -> np.ndarray:
    """Batch Q_f over rows of Z (assumed interior)."""
    Z = np.asarray(Z, dtype=np.complex128)
    return geometry(d).q(Z, gradient_many(f, Z))


def q_value(d: DomainDescriptor, f: SymbolExpr, z) -> float:
    """Closed-form Q_f(z) through the metric-inverse quadratic form."""
    z = _as_point(d, z)
    _require_interior(d, z)
    return float(q_values(d, f, z.reshape(1, -1))[0])


@lru_cache(maxsize=16)
def _base_directions(ndirs: int, n: int) -> np.ndarray:
    """Unit directions in C^n drawn once per (ndirs, n) from seed 0, read-only."""
    u = _unit_directions(_stream(0), ndirs, n)
    u.flags.writeable = False
    return u


def q_value_oracle(d: DomainDescriptor, f: SymbolExpr, z, ndirs: int = 4096,
                   seed: int = 0) -> float:
    """Brute-force the direction supremum: max of the raw ratio
    |grad f(z) . u| / H_z(u, u*)^(1/2) over random unit directions plus
    the closed-form maximizing direction u = M^(-1) conj(g)."""
    if ndirs < 1:
        raise UsageError("ndirs must be >= 1")
    z = _as_point(d, z)
    _require_interior(d, z)
    g = gradient(f, z)
    if not np.any(g):
        return 0.0
    geo, n = geometry(d), len(z)
    # the cached set turned by a seeded Haar unitary: Q of a complex
    # Gaussian's QR, its columns times the phases of R's diagonal; key 1
    # keeps it off the set's own stream at seed 0
    rng = _stream(seed, 1)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    phases = np.diagonal(R) / np.abs(np.diagonal(R))
    ustar = np.linalg.solve(geo.matrix(z), np.conj(g))  # nonzero, as g is
    U = np.vstack([_base_directions(ndirs, n) @ (Q * phases).T,
                   ustar / np.linalg.norm(ustar)])
    num = np.abs(U @ g)
    den = np.sqrt(geo.form(z, U))
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# seminorm estimation

def beta_upper_poly(f: Polynomial) -> float:
    """Certified seminorm bound from gradient coefficient sums: on every
    supported domain Q^2 <= |grad f|^2, and |d_j f| <= sum |c| * a_j on
    the closed polydisk."""
    if not isinstance(f, Polynomial):
        raise UsageError("coefficient bound needs a polynomial")
    cols = np.zeros(f.arity)
    for exps, c in f.terms:
        for j, p in enumerate(exps):
            if p:
                cols[j] += abs(c) * p
    return float(np.linalg.norm(cols))


_INVPHI = (sqrt(5.0) - 1.0) / 2.0


def _refine_max(d: DomainDescriptor, rows, starts,
                iters: int) -> tuple[np.ndarray, np.ndarray]:
    """One coordinatewise golden-section pass over 2n real coordinates for
    all rows of `starts` (one array of rows per member of a family) in
    lockstep, each line cut to its chord. Each row runs a golden-section
    search of `iters` steps on its chord [a, b], keeping the side of the
    larger of its two inner values (the left one on ties). A step is one
    gauge check over all rows, then one call rows(P, which) of the
    family's objective, which values member which[i] at P[i]. Returns the
    best value and point per row, the members stacked in order."""
    geo = geometry(d)
    Z = np.concatenate(starts).astype(np.complex128)
    n = Z.shape[1]
    which = np.repeat(np.arange(len(starts)), [len(s) for s in starts])

    def fun(P, which):
        if _outside(geo, P).any():
            raise OutsideDomainError(f"point not interior to {d}")
        return rows(P, which)

    best = fun(Z, which)
    for axis in range(2 * n):
        e = np.zeros(n, dtype=np.complex128)
        e[axis % n] = 1.0 if axis < n else 1.0j
        lo, hi = geo.chord(Z, e)
        live = np.flatnonzero(hi - lo > 1e-14)
        if not len(live):
            continue
        Zl, a, b, wl = Z[live], lo[live], hi[live], which[live]

        def line(T):
            return fun(Zl + T[:, None] * e, wl)

        c, x = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        # both first inner points in one call
        both = np.concatenate([c, x])
        fc, fx = np.split(fun(np.concatenate([Zl, Zl]) + both[:, None] * e,
                              np.concatenate([wl, wl])), 2)
        for _ in range(iters):
            # fc >= fx: the bracket ends at x, c moves to x's slot and the
            # new point takes c's; otherwise the mirror image
            left = fc >= fx
            a, b = np.where(left, a, c), np.where(left, x, b)
            new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
            fnew = line(new)
            c, x = np.where(left, new, x), np.where(left, c, new)
            fc, fx = np.where(left, fnew, fx), np.where(left, fc, fnew)
        t, val = np.where(fc >= fx, c, x), np.where(fc >= fx, fc, fx)
        up = val > best[live]
        best[live[up]], Z[live[up]] = val[up], Zl[up] + t[up, None] * e
    return best, Z


def _descending(vals: np.ndarray, restarts: int) -> np.ndarray:
    """`np.argsort(vals)[::-1]`, of which `_sup_estimates` reads the first
    max(restarts, 1) entries. Without restarts only the top one is read,
    and a maximum that occurs once and is not NaN is the argmax; ties and
    NaNs keep the full sort, whose order among equals argmax does not
    reproduce."""
    if restarts == 0:
        i = int(np.argmax(vals))
        if not np.isnan(vals[i]) and np.count_nonzero(vals == vals[i]) == 1:
            return np.array([i])
    return np.argsort(vals)[::-1]


def _sup_estimates(d: DomainDescriptor, values, rows,
                   cfg: SamplingConfig) -> list[tuple[float, np.ndarray, int]]:
    """Sampled sups of the K members of a family from one stratified
    draw: values(Z) gives every member at every row of Z, shape (K, m),
    and refinement from each member's best points goes through
    rows(P, which) (see `_refine_max`). Returns (max, argmax, evals) per
    member."""
    Z = sample_interior(d, cfg.samples, cfg.seed, cfg.shells)
    scans = values(Z)
    orders = [_descending(vals, cfg.refine_restarts) for vals in scans]
    starts = [Z[order[: cfg.refine_restarts]] for order in orders]
    refined = iter(())
    if any(map(len, starts)):
        refined = zip(*_refine_max(d, rows, starts, cfg.refine_iters))
    out = []
    for vals, order, start in zip(scans, orders, starts):
        best, argmax = float(vals[order[0]]), Z[order[0]].copy()
        for val, pt in islice(refined, len(start)):
            if val > best:
                best, argmax = float(val), pt
        out.append((best, argmax, len(vals)))
    return out


def _family_sups(d: DomainDescriptor, members,
                 cfg: SamplingConfig) -> list[tuple[float, np.ndarray, int]]:
    """Sampled sups of a family of functions part(v, q, Z) of symbols, with
    v = |psi| and q = Q_psi at the rows of Z, from one `_sup_estimates`
    call. Each member is a (psi, part, reads) triple, `reads` holding what
    part reads, "v", "q" or both; the other is passed as None and never
    evaluated. Symbols and parts are told apart by identity. The scan is
    one `jet_many` call per distinct symbol, and each refinement step one
    call of the members' family jet (`jet_family`) over all rows, after
    which each row keeps its own member's part."""
    geo = geometry(d)
    syms, reads = {}, {}
    for psi, _, r in members:
        syms[id(psi)], reads[id(psi)] = psi, reads.get(id(psi), "") + r
    parts = list({id(part): part for _, part, _ in members}.values())
    part_of = np.array([parts.index(part) for _, part, _ in members])

    def sizes(Z, vals, grads):
        return (None if vals is None else np.abs(vals),
                None if grads is None else geo.q(Z, grads))

    def values(Z):
        found = {key: sizes(Z, *jet_many(psi, Z, "v" in reads[key], "q" in reads[key]))
                 for key, psi in syms.items()}
        return np.stack([part(*found[id(psi)], Z) for psi, part, _ in members])

    jet, asked = jet_family([psi for psi, _, _ in members]), "".join(reads.values())
    value, grad = "v" in asked, "q" in asked

    def rows(P, which):
        v, q = sizes(P, *jet(P, which, value, grad))
        if len(parts) == 1:  # as in the battery: nothing to gather
            return parts[0](v, q, P)
        return np.stack([part(v, q, P) for part in parts])[part_of[which], np.arange(len(P))]

    return _sup_estimates(d, values, rows, cfg)


def _components(d: DomainDescriptor, asks,
                cfg: SamplingConfig) -> list[dict[str, EstimateInterval]]:
    """Sampled sups of symbols as intervals, from one `_family_sups` call.
    Each ask is a (psi, certs) pair, and `certs` maps each wanted
    component of psi to its certified upper end (None for +inf):

      "sup"     sup |psi|
      "beta"    the seminorm sup Q_psi
      "bloch"   the Bloch norm |psi(0)| + seminorm
      "sigma"   the boundary weight sup omega Q_psi
      "sigma0"  the same with the vanishing-class growth

    The lower end is the sampled sup, the upper end max(certificate,
    lower). The Bloch norm adds |psi(0)| to both ends of the seminorm
    interval whose certificate is max(certificate - |psi(0)|, 0). A
    seminorm or Bloch-norm certificate below the sampled lower end raises
    UsageError. Constant symbols are exact; `cfg` is read only when some
    symbol is not constant."""
    _require_metric(d)
    geo = geometry(d)
    parts = {"sup": lambda v, q, Z: v,
             "beta": lambda v, q, Z: q,
             "sigma": lambda v, q, Z: q * geo.growth(Z, False),
             "sigma0": lambda v, q, Z: q * geo.growth(Z, True)}
    parts["bloch"] = parts["beta"]
    members = [(psi, parts[name], "v" if name == "sup" else "q")
               for psi, certs in asks if is_constant(psi) is None for name in certs]
    found = iter(_family_sups(d, members, cfg) if members else ())
    out = []
    for psi, certs in asks:
        c = is_constant(psi)
        if c is not None:
            out.append({name: exact(abs(c) if name in ("sup", "bloch") else 0.0)
                        for name in certs})
            continue
        comps = {}
        out.append(comps)
        for (name, cert), (lower, argmax, ns) in zip(certs.items(), found):
            base = 0.0
            if name == "bloch":
                base = abs(evaluate(psi, np.zeros(d.ambient_dim)))
                cert = cert if cert is None else max(cert - base, 0.0)
            upper = inf
            if cert is not None:
                if name in ("beta", "bloch") and cert < lower - 1e-9:
                    raise UsageError("supplied upper bound contradicts sampled lower")
                upper = max(float(cert), lower)
            comps[name] = EstimateInterval(base + lower, base + upper, MODE_SAMPLED_LOWER,
                                           ns, cfg.seed, argmax=tuple(argmax.tolist()))
    return out


def beta_estimate(d: DomainDescriptor, f: SymbolExpr,
                  cfg: SamplingConfig = SamplingConfig(),
                  certified_upper: float | None = None) -> EstimateInterval:
    """Sampled lower estimate of the seminorm sup_z Q_f(z).

    Constant symbols are exact zero. The upper end is +inf unless the
    caller supplies a certified bound.
    """
    return _components(d, [(f, {"beta": certified_upper})], cfg)[0]["beta"]


def bloch_norm_estimate(d: DomainDescriptor, f: SymbolExpr,
                        cfg: SamplingConfig = SamplingConfig(),
                        certified_upper: float | None = None) -> EstimateInterval:
    """|f(0)| + seminorm, same interval discipline as beta_estimate."""
    return _components(d, [(f, {"bloch": certified_upper})], cfg)[0]["bloch"]


def lipschitz_beta_estimate(d: DomainDescriptor, f: SymbolExpr,
                            npairs: int = 200, seed: int = 42) -> float:
    """Certified seminorm lower bound from difference quotients
    |f(z) - f(w)| / rho(z, w) over sampled pairs."""
    _require_metric(d)
    A = sample_interior(d, npairs, seed)
    B = sample_interior(d, npairs, _stream_seed(seed, 7))
    gap = np.abs(evaluate_many(f, A) - evaluate_many(f, B))
    # the padded closed-form distance is an upper distance, so each
    # quotient is a lower bound
    sep = geometry(d).distance(B, A) + RHO_UPPER_PAD
    return float(np.max(gap / sep, initial=0.0))


# ---------------------------------------------------------------------------
# extremal growth omega

def omega_empirical_lower(d: DomainDescriptor, z, *, little: bool = False) -> float:
    """Certified lower bound for the extremal growth at z from one test
    function: the logarithmic witness of the largest factor, of Bloch
    norm 1, which reaches arctanh of the gauge. With little=True, the
    floor `Geometry.growth(little=True)` from the *-little class."""
    geo = geometry(d)
    z = _as_point(d, z)
    _require_interior(d, z)
    if little:
        return float(geo.growth(z[None], little=True)[0])
    return float(np.arctanh(geo.gauge(z[None]))[0])


# ---------------------------------------------------------------------------
# decay diagnostics

def _shell_maxima(d: DomainDescriptor, f: SymbolExpr, eps, cfg: SamplingConfig,
                  weight=None) -> tuple[int, tuple[float, ...], bool]:
    """Max of Q_f, times weight(Z) when given, over one
    `sample_near_distinguished_boundary` draw per eps. Returns the draw
    size, the maxima, and whether they never increase (to 1e-9 relative)."""
    count = max(64, cfg.samples // len(eps))
    maxima = []
    for e in eps:
        Z = sample_near_distinguished_boundary(d, count, e, cfg.seed)
        q = q_values(d, f, Z)
        maxima.append(float(np.max(q if weight is None else q * weight(Z))))
    falling = all(b <= a * (1.0 + 1e-9) for a, b in zip(maxima, maxima[1:]))
    return count, tuple(maxima), falling


def little_star_membership_diagnostic(
        d: DomainDescriptor, f: SymbolExpr,
        eps_ladder: tuple[float, ...] = DEFAULT_EPS_LADDER,
        cfg: SamplingConfig = SamplingConfig()) -> tuple[DecayProfile, str]:
    """Sampled Q decay toward the distinguished boundary.

    Heuristic verdict, never a proof: consistent-with-membership when
    the shell maxima do not grow and the final value drops below 0.1 of
    the initial one (identically-zero profiles count as consistent).
    """
    _require_metric(d)
    eps = _check_ladder(eps_ladder)
    count, maxima, falling = _shell_maxima(d, f, eps, cfg)
    profile = DecayProfile(eps, maxima, count)
    if max(maxima) <= 1e-15 or (falling and maxima[-1] < 0.1 * maxima[0]):
        return profile, CONSISTENT
    return profile, AGAINST
