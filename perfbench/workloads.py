"""Seeded inputs, question sets and correctness checks for the workloads.

Every generator draws coefficients and points from the workload seed with
its own numpy stream. The support patterns (which monomials a symbol has)
and the point moduli are fixed here, so term counts after power expansion
are the same for every seed and a run's cost hardly moves with the seed.

A question is one public blochkit call. Questions look their function up on
the `blochkit` package at call time, so the tracer's wrappers see them.
Each question has a check that returns None when the answer is correct and
a one-line reason when it is not; checks may read earlier answers of the
same round (the operator-norm battery is checked against the sandwich).
"""

from __future__ import annotations

import math

import numpy as np

import blochkit as bk

# one radius per sampling shell (the middle of blochkit's default shell
# bands)
SHELL_RADII = (0.25, 0.7, 0.945, 0.9945, 0.99925)
ISOMETRY_POWERS = (1, 2, 4, 8, 16)
TOL = 1e-9

# refine: isometry symbols whose powers expand to hundreds of terms
# (power 16 has 409 terms on ball:2 and 153 on ball:5), and few-term
# cubics for the operator-norm sandwich and the battery lower bound. The
# mix is 3 isometry (~0.7 s), 9 battery (~0.2 s) and 3 sandwich (~0.07 s)
# questions: the 90th latency percentile then sits in the middle of the
# isometry group and the median in the middle of the battery group, not on
# the edge between two groups, where it would jump with machine speed.
ISOMETRY_SUPPORTS = (
    ("ball:2", ("z1", "z2^2", "z1*z2")),
    ("ball:5", ("z1", "z2")),
    ("ball:5", ("z4", "z5^2")),
)
CUBIC_SUPPORTS = (
    ("1", "z1", "z1*z2", "z2^3"),
    ("z2", "z1^2", "z1^2*z2", "z1*z2^2"),
)

# scan: about ten terms of degree up to five in three variables
SCAN_SUPPORTS = (
    ("1", "z1", "z2", "z3", "z1*z2", "z2*z3^2", "z1^3", "z1*z2*z3", "z2^4",
     "z1^2*z3^3"),
    ("z1", "z2^2", "z3^2", "z1*z3", "z1^2*z2", "z2^3*z3", "z1*z2^2*z3",
     "z3^4", "z1^5", "z1*z2^2*z3^2"),
)
SCAN_DOMAINS = ("ball:3", "polydisk:3", "product(ball:2,disk)")

# distance: omega at one point in every shell and at two more in shell 3,
# path-optimised rho at one point per domain (shell index given per
# domain). An omega costs about 0.6 ms in shells 0 and 1, 1.5 ms in shell
# 2, 3 ms in shell 3 and 4 ms in shell 4 on the polydisks, and twice to
# three times that on the product. The extra shell-3 points make the
# polydisk shell-3 omegas and the product shell-2 omega a group of seven
# in the middle of the 24 questions, so the median latency sits inside
# that group, not on the edge between two groups, where it would jump
# with machine speed. The rho questions take half a second or more and
# are an eighth of the questions, so the 90th latency percentile falls
# inside them.
DISTANCE_DOMAINS = (("polydisk:2", 2), ("polydisk:3", 1),
                    ("product(ball:2,disk)", 0))
OMEGA_SHELLS = (0, 1, 2, 3, 3, 3, 4)

# "tiny" only serves the self-test
SIZES = {
    # (domain, cubic symbols, how many of them also get norm_bounds)
    "full": {"isometry": len(ISOMETRY_SUPPORTS),
             "sandwich": (("ball:2", 5, 2), ("polydisk:2", 4, 1)),
             "sandwich_samples": 1000, "battery": 6,
             "scan_symbols": 2, "scan_samples": 50000,
             "omega_points": len(OMEGA_SHELLS)},
    "tiny": {"isometry": 1, "sandwich": (("ball:2", 2, 1),),
             "sandwich_samples": 200, "battery": 3,
             "scan_symbols": 1, "scan_samples": 2000,
             "omega_points": 2},
}


class Question:
    """One public call and its correctness check."""

    __slots__ = ("qid", "ask", "check")

    def __init__(self, qid, ask, check):
        self.qid = qid
        self.ask = ask
        self.check = check


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _child_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(key,))
               .generate_state(1)[0])


def _literal(c: complex) -> str:
    re, im = float(c.real), float(c.imag)
    return f"({re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i)"


def _symbol(support, coeffs, arity: int, const: complex | None = None):
    """Parse a symbol from its text, as a user would write it."""
    parts = [] if const is None else [_literal(const)]
    for mono, c in zip(support, coeffs):
        parts.append(_literal(c) if mono == "1" else f"{_literal(c)}*{mono}")
    return bk.parse_symbol(" + ".join(parts), arity)


def _normal_coeffs(rng, count: int) -> list[complex]:
    return [complex(a, b) for a, b in rng.standard_normal((count, 2))]


def _fail(cond: bool, reason: str):
    return None if cond else reason


def _leq(a: float, b: float) -> bool:
    return a <= b + TOL * max(1.0, abs(b))


def _interval_ok(iv) -> bool:
    return iv.lower <= iv.upper and not math.isnan(iv.lower)


# ---------------------------------------------------------------------------
# refine

def _isometry_symbol(rng, support, arity):
    # |psi(0)| in [0.80, 0.88] makes |psi(0)|^k fall below 1 - ceiling
    # within 16 powers on ball:2 (ceiling 0.816) and ball:5 (0.577)
    m0 = rng.uniform(0.80, 0.88)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    c0 = complex(m0 * math.cos(phase), m0 * math.sin(phase))
    coeffs = _normal_coeffs(rng, len(support))
    scale = 0.1 / sum(abs(c) for c in coeffs)
    return _symbol(support, [c * scale for c in coeffs], arity, const=c0)


def _check_isometry(certs):
    def check(rep, answers):
        if rep.verdict != "not-isometry":
            return f"verdict {rep.verdict}"
        if rep.crossing_k is None or rep.crossing_k > 16:
            return f"crossing power {rep.crossing_k}"
        for k, b in rep.power_betas.items():
            if not (0.0 <= b and _leq(b, certs[k])):
                return f"power {k}: sampled seminorm {b!r} above certified {certs[k]!r}"
        return None
    return check


def _check_sandwich(d, psi):
    sup_cert = bk.supnorm_upper(psi)
    bloch_cert = abs(bk.evaluate(psi, np.zeros(d.ambient_dim))) + bk.beta_upper_poly(psi)
    sigma_cert = bk.sigma_upper_poly(d, psi)

    def check(nb, answers):
        for name, iv in (("sup", nb.sup), ("bloch", nb.bloch), ("sigma", nb.sigma)):
            if not _interval_ok(iv):
                return f"{name} interval inverted"
        if not nb.lower <= nb.upper:
            return "sandwich inverted"
        for name, lower, cert in (("sup", nb.sup.lower, sup_cert),
                                  ("bloch", nb.bloch.lower, bloch_cert),
                                  ("sigma", nb.sigma.lower, sigma_cert)):
            if not _leq(lower, cert):
                return f"{name} lower {lower!r} above certified {cert!r}"
        return None
    return check


def _check_battery(d, psi, sandwich_qid):
    # certified operator-norm ceiling max(||psi||_B, ||psi||_inf + sigma)
    # from certified pieces; infinite off disk and ball
    cert = max(abs(bk.evaluate(psi, np.zeros(d.ambient_dim))) + bk.beta_upper_poly(psi),
               bk.supnorm_upper(psi) + bk.sigma_upper_poly(d, psi))

    def check(emp, answers):
        if not (0.0 <= emp < math.inf and _leq(emp, cert)):
            return f"battery lower {emp!r} outside [0, certified {cert!r}]"
        if sandwich_qid is None:
            return None
        nb = answers.get(sandwich_qid)
        if nb is None:
            return "sandwich question failed"
        return _fail(_leq(emp, nb.upper),
                     f"battery lower {emp!r} above sandwich upper {nb.upper!r}")
    return check


def refine(seed: int, size: dict) -> list[Question]:
    qs = []
    rng = _rng(seed, 1)
    iso_cfg = bk.SamplingConfig(samples=1024, seed=_child_seed(seed, 2),
                                refine_restarts=2, refine_iters=20)
    for i, (spec, support) in enumerate(ISOMETRY_SUPPORTS[:size["isometry"]]):
        d = bk.parse_domain(spec)
        psi = _isometry_symbol(rng, support, d.ambient_dim)
        certs = {k: bk.beta_upper_poly(bk.combine("power", psi, k))
                 for k in ISOMETRY_POWERS}
        qs.append(Question(f"isometry/{spec}/{i}",
                           lambda d=d, psi=psi: bk.isometry_verdict(d, psi, iso_cfg),
                           _check_isometry(certs)))
    cfg = bk.SamplingConfig(samples=size["sandwich_samples"],
                            seed=_child_seed(seed, 3),
                            refine_restarts=2, refine_iters=20)
    for spec, symbols, sandwiches in size["sandwich"]:
        d = bk.parse_domain(spec)
        for i in range(symbols):
            support = CUBIC_SUPPORTS[i % len(CUBIC_SUPPORTS)]
            psi = _symbol(support, _normal_coeffs(rng, len(support)), 2)
            qid = None
            if i < sandwiches:
                qid = f"norm_bounds/{spec}/{i}"
                qs.append(Question(qid,
                                   lambda d=d, psi=psi: bk.norm_bounds(d, psi, cfg),
                                   _check_sandwich(d, psi)))
            qs.append(Question(
                f"empirical_opnorm_lower/{spec}/{i}",
                # the battery keeps its default seed: it is part of the
                # method, and its term counts set the question's cost
                lambda d=d, psi=psi: bk.empirical_opnorm_lower(
                    d, psi, cfg, nfuncs=size["battery"]),
                _check_battery(d, psi, qid)))
    return qs


# ---------------------------------------------------------------------------
# scan

def _check_beta(cert):
    def check(iv, answers):
        return _fail(_interval_ok(iv) and _leq(iv.lower, cert),
                     f"seminorm lower {iv.lower!r} above certified {cert!r}")
    return check


def _check_sigma(cert):
    def check(iv, answers):
        return _fail(_interval_ok(iv) and _leq(iv.lower, cert),
                     f"boundary weight lower {iv.lower!r} above certified {cert!r}")
    return check


def _check_cloud(cert, count):
    def check(cloud, answers):
        if cloud.points.shape != (count,) or not np.all(np.isfinite(cloud.points)):
            return "cloud has missing or non-finite points"
        top = float(np.max(np.abs(cloud.points)))
        return _fail(_leq(top, cert), f"cloud modulus {top!r} above certified {cert!r}")
    return check


VERDICTS = ("bounded", "bounded-evidence", "unbounded-evidence", "inconclusive")


def _check_boundedness(cert):
    def check(rep, answers):
        if rep.verdict not in VERDICTS:
            return f"verdict {rep.verdict}"
        if not all(math.isfinite(m) and m >= 0.0 for m in rep.maxima):
            return "shell maxima not finite"
        return _fail(_leq(rep.supnorm_lower, cert),
                     f"sup-norm lower {rep.supnorm_lower!r} above certified {cert!r}")
    return check


def scan(seed: int, size: dict) -> list[Question]:
    qs = []
    rng = _rng(seed, 11)
    cfg = bk.SamplingConfig(samples=size["scan_samples"],
                            seed=_child_seed(seed, 12), refine_restarts=0)
    for spec in SCAN_DOMAINS:
        d = bk.parse_domain(spec)
        for i in range(size["scan_symbols"]):
            support = SCAN_SUPPORTS[i % len(SCAN_SUPPORTS)]
            coeffs = np.asarray(_normal_coeffs(rng, len(support))) / math.sqrt(len(support))
            psi = _symbol(support, coeffs, d.ambient_dim)
            beta_cert = bk.beta_upper_poly(psi)
            sup_cert = bk.supnorm_upper(psi)
            tag = f"{spec}/{i}"
            qs += [
                Question(f"beta_estimate/{tag}",
                         lambda d=d, psi=psi, c=beta_cert: bk.beta_estimate(
                             d, psi, cfg, certified_upper=c),
                         _check_beta(beta_cert)),
                Question(f"sigma_estimate/{tag}",
                         lambda d=d, psi=psi: bk.sigma_estimate(d, psi, cfg),
                         _check_sigma(bk.sigma_upper_poly(d, psi))),
                Question(f"spectrum_cloud/{tag}",
                         lambda d=d, psi=psi: bk.spectrum_cloud(d, psi, cfg),
                         _check_cloud(sup_cert, cfg.samples)),
                Question(f"boundedness_verdict/{tag}",
                         lambda d=d, psi=psi: bk.boundedness_verdict(d, psi, cfg),
                         _check_boundedness(sup_cert)),
            ]
    return qs


# ---------------------------------------------------------------------------
# distance

def _point(rng, d, radius: float) -> np.ndarray:
    """A point with every disk or polydisk coordinate of modulus `radius`
    and every ball factor of norm `radius`. The seed picks the phases and
    the ball directions; the moduli stay fixed because the cost of a
    path-optimised distance moves with them."""
    pieces = []
    for s, t, f in d.factor_slices():
        n = t - s
        if f.kind is bk.Kind.BALL:
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pieces.append(radius * u / np.linalg.norm(u))
        else:
            pieces.append(radius * np.exp(2j * math.pi * rng.random(n)))
    return np.concatenate(pieces)


def coordinate_bound(d, z) -> float:
    """max over factors of arctanh of the factor's size: a lower bound for
    the distance from the origin, computed without blochkit."""
    best = 0.0
    for s, t, f in d.factor_slices():
        sub = z[s:t]
        if f.kind is bk.Kind.BALL:
            best = max(best, math.atanh(float(np.linalg.norm(sub))))
        else:
            best = max(best, max(math.atanh(abs(c)) for c in sub))
    return best


def _check_rho(coord):
    def check(iv, answers):
        if not _interval_ok(iv):
            return "rho interval inverted"
        return _fail(_leq(coord, iv.upper),
                     f"coordinate bound {coord!r} above rho upper {iv.upper!r}")
    return check


def distance(seed: int, size: dict) -> list[Question]:
    qs = []
    rng = _rng(seed, 21)
    for spec, rho_shell in DISTANCE_DOMAINS:
        d = bk.parse_domain(spec)
        z = _point(rng, d, SHELL_RADII[rho_shell])
        qs.append(Question(
            f"rho_from_origin/{spec}",
            lambda d=d, z=z: bk.rho_from_origin(d, z, optimize_path=True),
            _check_rho(coordinate_bound(d, z))))
        for j, shell in enumerate(OMEGA_SHELLS[:size["omega_points"]]):
            z = _point(rng, d, SHELL_RADII[shell])
            qs.append(Question(f"omega_bounds/{spec}/{j}",
                               lambda d=d, z=z: bk.omega_bounds(d, z),
                               _check_rho(coordinate_bound(d, z))))
    return qs


WORKLOADS = {"refine": refine, "scan": scan, "distance": distance}


def build(workload: str, seed: int, size: str) -> list[Question]:
    return WORKLOADS[workload](seed, SIZES[size])


# ---------------------------------------------------------------------------
# digest form of an answer

def canonical(result):
    """A JSON-ready form of an answer that keeps every float bit."""
    if isinstance(result, bk.EstimateInterval):
        return [result.lower, result.upper, result.mode, result.samples,
                canonical(result.argmax)]
    if hasattr(result, "as_dict"):
        return canonical(result.as_dict())
    if isinstance(result, dict):
        return {str(k): canonical(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [canonical(v) for v in result]
    if isinstance(result, complex):
        return [result.real, result.imag]
    if isinstance(result, (np.floating, np.integer)):
        return result.item()
    return result
