"""Theorem verification suites.

Each suite runs one family of numbered release-gate checks, each draw
on its own key of one entry seed (`domains._stream`), and returns
CheckResult rows the CLI folds into a report. The acceptance tests call
the same functions, so the CLI gate and the test gate cannot drift apart.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import atanh, inf, sqrt

import numpy as np

from .bloch import (_components, omega_empirical_lower, q_value,
                    q_value_oracle)
from .constants import (REGISTRY, bloch_constant, bloch_constant_candidates,
                        has_disk_factor, in_class_D)
from .domains import (DomainDescriptor, _stream, _stream_seed, ball, cartan1,
                      cartan2, cartan3, cartan4, disk, exceptional16,
                      exceptional27, polydisk, product, sample_interior)
from .errors import UsageError
from .estimates import SamplingConfig
from .metric import (QUAD_ABS_TOL, path_length, rho_from_origin,
                     segment_from_origin)
from .operators import (_opnorms, compactness_verdict, grid_coverage,
                        isometry_verdict, spectrum_cloud)
from .report import AnalysisReport
from .symbols import (Polynomial, SymbolExpr, _poly_from_dict, combine,
                      constant, coordinate, evaluate, evaluate_many,
                      supnorm_upper)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ref: str
    measured: float | None
    threshold: str
    passed: bool
    detail: str = ""


def _random_poly(rng: np.random.Generator, arity: int, degree: int,
                 nterms: int = 4, nonconstant: bool = False) -> Polynomial:
    d: dict = {}
    for _ in range(nterms):
        for _ in range(16):
            exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=arity))
            if sum(exps) <= degree:
                break
        else:
            exps = (0,) * arity
        c = complex(rng.standard_normal(), rng.standard_normal())
        d[exps] = d.get(exps, 0) + c
    if nonconstant and all(sum(e) == 0 for e in d):
        j = int(rng.integers(arity))
        exps = tuple(1 if i == j else 0 for i in range(arity))
        d[exps] = d.get(exps, 0) + 1.0
    return _poly_from_dict(arity, d)


# ---------------------------------------------------------------------------
# suites

def suite_q_oracle(seed: int = 42) -> list[CheckResult]:
    domains = [disk(), ball(2), ball(3), ball(4),
               polydisk(2), polydisk(3), polydisk(4)]
    rng = _stream(seed, 11)
    per = -(-1000 // len(domains))
    points = {i: sample_interior(d, per, _stream_seed(seed, 12 + i))
              for i, d in enumerate(domains)}
    worst_gap = 0.0
    worst_over = -inf
    for i in range(1000):
        j = i % len(domains)
        d = domains[j]
        f = _random_poly(rng, d.ambient_dim, degree=4)
        z = points[j][i // len(domains)]
        qc = q_value(d, f, z)
        qo = q_value_oracle(d, f, z, ndirs=4096,
                            seed=int(rng.integers(2 ** 31)))
        worst_over = max(worst_over, qo - qc)
        if qc > 1e-15:
            worst_gap = max(worst_gap, (qc - qo) / qc)
    c1 = CheckResult(
        "q-closed-form-vs-oracle", "q:direction-sup", worst_gap,
        "oracle <= closed form and relative gap <= 1e-3 on 1000 instances",
        worst_over <= 1e-9 and worst_gap <= 1e-3,
        f"worst oracle overshoot {worst_over:.3e}, worst relative gap {worst_gap:.3e}")

    rng2 = _stream(seed, 19)
    dd = disk()
    Z = sample_interior(dd, 1000, _stream_seed(seed, 20))
    worst = 0.0
    for i in range(1000):
        deg = int(rng2.integers(1, 7))
        coeffs = rng2.standard_normal(deg + 1) + 1j * rng2.standard_normal(deg + 1)
        f = _poly_from_dict(1, {(k,): coeffs[k] for k in range(deg + 1)})
        z = complex(Z[i, 0])
        # independent derivative route: direct power-rule accumulation
        fprime = sum(k * coeffs[k] * z ** (k - 1) for k in range(1, deg + 1))
        expected = (1.0 - abs(z) ** 2) * abs(fprime)
        worst = max(worst, abs(q_value(dd, f, Z[i]) - expected))
    c2 = CheckResult(
        "q-disk-reduction", "q:disk-closed-form", worst,
        "matches (1-|z|^2)|f'(z)| to 1e-12 on 1000 instances",
        worst <= 1e-12, f"worst absolute difference {worst:.3e}")
    return [c1, c2]


def suite_omega(seed: int = 42) -> list[CheckResult]:
    d2 = ball(2)
    worst = 0.0
    for r in np.linspace(1e-3, 0.999, 100):
        seg = segment_from_origin(d2, np.array([r, 0.0], dtype=complex))
        worst = max(worst, abs(path_length(d2, seg) - atanh(r)))
    c1 = CheckResult(
        "radial-distance-quadrature", "growth:radial-distance", worst,
        "quadrature matches arctanh r to 1e-4 at 100 radii",
        worst <= 1e-4, f"worst quadrature error {worst:.3e}")

    Z = sample_interior(d2, 50, _stream_seed(seed, 21))
    worst_ratio = inf
    for z in Z:
        exact = atanh(float(np.linalg.norm(z)))
        lo = omega_empirical_lower(d2, z)
        if exact > 1e-12:
            worst_ratio = min(worst_ratio, lo / exact)
    c2 = CheckResult(
        "ball-witness-floor", "growth:ball-witness", worst_ratio,
        "witness lower bound reaches >= 95% of the exact growth at 50 points",
        worst_ratio >= 0.95, f"worst ratio to exact {worst_ratio:.6f}")

    ok_lower = True
    ok_upper = True
    worst_l = -inf
    worst_u = -inf
    for arity, key in ((2, 22), (3, 23)):
        dp = polydisk(arity)
        P = sample_interior(dp, 250, _stream_seed(seed, key))
        for z in P:
            lemma = max(atanh(abs(c)) for c in z)
            emp = omega_empirical_lower(dp, z)
            closed = rho_from_origin(dp, z).upper
            segment = path_length(dp, segment_from_origin(dp, z)) + QUAD_ABS_TOL
            worst_l = max(worst_l, lemma - emp)
            worst_u = max(worst_u, emp - closed, closed - segment)
            ok_lower &= lemma <= emp + 1e-9
            ok_upper &= emp <= closed <= segment
    c3 = CheckResult(
        "polydisk-sandwich-lower", "growth:polydisk-lower", worst_l,
        "max_k arctanh|z_k| <= witness lower + 1e-9 at 500 points",
        ok_lower, f"worst lemma-minus-witness {worst_l:.3e}")
    c4 = CheckResult(
        "polydisk-sandwich-upper", "growth:polydisk-upper", worst_u,
        "witness lower <= closed-form distance <= straight-segment length "
        "+ quadrature tolerance at 500 points",
        ok_upper, f"worst excess over the next bound {worst_u:.3e}")
    return [c1, c2, c3, c4]


def suite_product_rule(seed: int = 42) -> list[CheckResult]:
    domains = [disk(), ball(2), polydisk(2)]
    rng = _stream(seed, 31)
    points = {i: sample_interior(d, -(-1000 // 3), _stream_seed(seed, 32 + i))
              for i, d in enumerate(domains)}
    worst = -inf
    ok = True
    for i in range(1000):
        j = i % 3
        d = domains[j]
        psi = _random_poly(rng, d.ambient_dim, degree=3)
        f = _random_poly(rng, d.ambient_dim, degree=3)
        z = points[j][i // 3]
        lhs = q_value(d, combine("product", psi, f), z)
        rhs = (abs(evaluate(psi, z)) * q_value(d, f, z)
               + abs(evaluate(f, z)) * q_value(d, psi, z))
        worst = max(worst, lhs - rhs)
        ok &= lhs <= rhs + 1e-12
    return [CheckResult(
        "q-product-rule", "q:product-rule", worst,
        "Q_{psi f} <= |psi| Q_f + |f| Q_psi + 1e-12 on 1000 triples",
        ok, f"worst lhs-minus-rhs {worst:.3e}")]


def suite_growth_lemma(seed: int = 42) -> list[CheckResult]:
    d = ball(2)
    rng = _stream(seed, 41)
    cfg = SamplingConfig(samples=3000, seed=_stream_seed(seed, 42),
                         refine_restarts=3, refine_iters=30)
    fs = [_random_poly(rng, 2, degree=4, nonconstant=True) for _ in range(50)]
    found = _components(d, [(f, {"beta": None}) for f in fs], cfg)
    worst = -inf
    ok = True
    for i, (f, parts) in enumerate(zip(fs, found)):
        bhat = parts["beta"].lower
        Z = sample_interior(d, 20, _stream_seed(seed, 430 + i))
        f0 = abs(evaluate(f, np.zeros(2)))
        vals = np.abs(evaluate_many(f, Z))
        for k in range(20):
            bound = f0 + atanh(float(np.linalg.norm(Z[k]))) * 1.05 * bhat
            worst = max(worst, float(vals[k]) - bound)
            ok &= vals[k] <= bound + 1e-12
    return [CheckResult(
        "growth-modulus-bound", "growth:modulus-bound", worst,
        "|f(z)| <= |f(0)| + growth(z) * 1.05 * sampled seminorm on 1000 pairs",
        ok, f"worst modulus-minus-bound {worst:.3e}")]


def suite_norm_sandwich(seed: int = 42) -> list[CheckResult]:
    rng = _stream(seed, 51)
    cfg = SamplingConfig(samples=1500, seed=_stream_seed(seed, 52),
                         refine_restarts=2, refine_iters=25)
    symbols = [_random_poly(rng, 2, degree=3, nonconstant=True)
               for _ in range(20)]
    ok_upper = True
    ok_member = True
    worst_u = -inf
    worst_m = -inf
    for d in (ball(2), polydisk(2)):
        for nb, emp in _opnorms(d, symbols, cfg, nfuncs=6, seed=cfg.seed):
            worst_u = max(worst_u, emp - nb.upper)
            ok_upper &= emp <= nb.upper + 1e-9
            # the f = 1 battery member reproduces the Bloch-norm
            # component of the sandwich lower bound
            worst_m = max(worst_m, nb.bloch.lower - emp)
            ok_member &= nb.bloch.lower <= emp + 1e-9
    c1 = CheckResult(
        "opnorm-empirical-below-upper", "norm:sandwich-upper", worst_u,
        "battery lower bound <= sandwich upper on 20 symbols x 2 domains",
        ok_upper, f"worst empirical-minus-upper {worst_u:.3e}")
    c2 = CheckResult(
        "opnorm-covers-bloch-component", "norm:sandwich-lower", worst_m,
        "Bloch-norm component <= battery lower + 1e-9 (f = 1 member)",
        ok_member, f"worst component-minus-empirical {worst_m:.3e}")
    return [c1, c2]


def suite_spectrum(seed: int = 42) -> list[CheckResult]:
    d = ball(2)
    cfg = SamplingConfig(samples=100000, seed=_stream_seed(seed, 61))
    cloud = spectrum_cloud(d, coordinate(1, 2), cfg)
    maxmod = float(np.max(np.abs(cloud.points)))
    c1 = CheckResult(
        "spectrum-range-containment", "spectrum:range-closure", maxmod,
        "all 1e5 cloud points have modulus < 1",
        maxmod < 1.0, f"max cloud modulus {maxmod:.6f}")
    _, empty = grid_coverage(cloud.points, radius=0.95, n=20)
    c2 = CheckResult(
        "spectrum-coverage", "spectrum:coverage", float(empty),
        "no empty cell in a 20x20 grid over the radius-0.95 disk",
        empty == 0, f"{empty} empty cells")
    small = SamplingConfig(samples=2000, seed=_stream_seed(seed, 62))
    sc = spectrum_cloud(d, constant(0.3 + 0.4j, 2), small)
    c3 = CheckResult(
        "spectrum-constant-singleton", "spectrum:singleton",
        1.0 if sc.is_singleton else 0.0,
        "constant symbol yields a single-point cloud",
        sc.is_singleton, f"bbox {sc.bbox}")
    return [c1, c2, c3]


def suite_compactness(seed: int = 42) -> list[CheckResult]:
    d = ball(2)
    cfg = SamplingConfig(samples=2048, seed=_stream_seed(seed, 71))
    zero_ok = compactness_verdict(d, constant(0.0, 2), cfg).verdict == "compact"
    c1 = CheckResult(
        "compactness-zero-symbol", "compact:zero-symbol",
        1.0 if zero_ok else 0.0, "zero symbol verdict is compact", zero_ok)
    rng = _stream(seed, 72)
    ok = True
    bad = ""
    for i in range(50):
        psi = _random_poly(rng, 2, degree=3, nonconstant=True)
        rep = compactness_verdict(d, psi, cfg)
        good = (rep.verdict == "not-compact"
                and "point_a" in rep.witness and "point_b" in rep.witness
                and rep.witness["value_a"] != rep.witness["value_b"])
        if not good and not bad:
            bad = f"instance {i}: {rep.verdict}"
        ok &= good
    c2 = CheckResult(
        "compactness-nonzero-witness", "compact:nonzero-witness",
        1.0 if ok else 0.0,
        "50 nonzero symbols are not-compact with two-point witnesses",
        ok, bad or "all witnessed")
    return [c1, c2]


def suite_isometry(seed: int = 42) -> list[CheckResult]:
    rng = _stream(seed, 81)
    cfg = SamplingConfig(samples=1024, seed=_stream_seed(seed, 82),
                         refine_restarts=2, refine_iters=20)
    ok_const = True
    bad = ""
    for d in REGISTRY:
        c = cmath.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        rep = isometry_verdict(d, constant(c, d.ambient_dim), cfg)
        if rep.verdict != "isometry":
            ok_const = False
            bad = bad or f"{d}: {rep.verdict}"
    c1 = CheckResult(
        "isometry-unimodular-constants", "isometry:unimodular",
        1.0 if ok_const else 0.0,
        "unimodular constants pass on every registry domain", ok_const, bad)

    ok_fail = True
    ok_cross = True
    detail = ""
    for d in (ball(2), ball(5), cartan2(2)):
        n = d.ambient_dim
        cands: list[SymbolExpr] = [coordinate(1, n)]
        while len(cands) < 21:
            psi = _random_poly(rng, n, degree=3, nonconstant=True)
            scale = supnorm_upper(psi)
            if scale <= 1e-9:
                continue
            psi = combine("product", constant(1.0 / scale, n), psi)
            m0 = abs(evaluate(psi, np.zeros(n)))
            if m0 > 0.88:
                psi = combine("product", constant(0.88 / m0, n), psi)
            cands.append(psi)
        for psi in cands:
            rep = isometry_verdict(d, psi, cfg)
            if rep.verdict != "not-isometry":
                ok_fail = False
                detail = detail or f"{d}: verdict {rep.verdict}"
            if rep.crossing_k is None or rep.crossing_k > 16:
                ok_cross = False
                detail = detail or f"{d}: crossing {rep.crossing_k}"
    c2 = CheckResult(
        "isometry-nonconstant-fail", "isometry:class-fail",
        1.0 if ok_fail else 0.0,
        "21 non-constant symbols fail on three small-ceiling domains",
        ok_fail, detail)
    c3 = CheckResult(
        "isometry-power-crossing", "isometry:power-crossing",
        1.0 if ok_cross else 0.0,
        "|psi(0)|^k falls below 1 - ceiling within 16 powers", ok_cross, detail)
    return [c1, c2, c3]


def suite_constants(seed: int = 42) -> list[CheckResult]:
    ok = True
    bad = ""

    def expect(d: DomainDescriptor, v: float):
        nonlocal ok, bad
        if bloch_constant(d) != v:
            ok = False
            bad = bad or f"{d}: {bloch_constant(d)} != {v}"

    for m, n in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2),
                 (4, 4), (5, 3), (6, 2)]:
        expect(cartan1(m, n), sqrt(2.0 / (m + n)))
    for n in range(1, 11):
        expect(cartan2(n), sqrt(2.0 / (n + 1)))
    for n in range(2, 12):
        expect(cartan3(n), sqrt(1.0 / (n - 1)))
    for n in range(3, 13):
        expect(cartan4(n), sqrt(2.0 / n))
    for n in range(1, 11):
        expect(ball(n), sqrt(2.0 / (n + 1)))
        expect(polydisk(n), 1.0)
    exc_vals = {bloch_constant(exceptional16()), bloch_constant(exceptional27())}
    if exc_vals != {1.0 / sqrt(6.0), 1.0 / 3.0}:
        ok = False
        bad = bad or f"exceptional pair {sorted(exc_vals)}"
    swapped = sorted(bloch_constant_candidates(exceptional16()))
    if swapped != sorted((1.0 / sqrt(6.0), 1.0 / 3.0)):
        ok = False
        bad = bad or "swapped assignment broken"
    c1 = CheckResult(
        "constants-closed-forms", "constants:closed-forms",
        1.0 if ok else 0.0,
        "registry matches the closed forms exactly across all classes", ok, bad)

    rng = _stream(seed, 91)
    pool = [disk(), ball(2), ball(3), ball(5), polydisk(2), polydisk(3),
            cartan1(2, 2), cartan1(3, 2), cartan2(2), cartan2(3), cartan3(3),
            cartan3(4), cartan4(3), cartan4(5), exceptional16(), exceptional27()]
    ok_prod = True
    for _ in range(50):
        i, j = rng.integers(len(pool)), rng.integers(len(pool))
        p = product(pool[int(i)], pool[int(j)])
        if bloch_constant(p) != max(bloch_constant(pool[int(i)]),
                                    bloch_constant(pool[int(j)])):
            ok_prod = False
    c2 = CheckResult(
        "constants-product-max", "constants:product-max",
        1.0 if ok_prod else 0.0,
        "product constant equals the factor max on 50 random pairs", ok_prod)

    ok_class = True
    class_pool = pool + [cartan1(1, 1), cartan2(1), cartan3(2), cartan4(1),
                         ball(1), polydisk(1),
                         product(ball(2), polydisk(2)),
                         product(cartan2(2), ball(3)),
                         product(disk(), ball(5))]
    for d in class_pool:
        if in_class_D(d) != (not has_disk_factor(d)):
            ok_class = False
    c3 = CheckResult(
        "constants-class-membership", "constants:class-membership",
        1.0 if ok_class else 0.0,
        "small-ceiling membership matches the no-disk-factor test", ok_class)

    try:
        cartan3(1)
        range_ok = False
    except UsageError:
        range_ok = True
    c4 = CheckResult(
        "constants-dimension-ranges", "constants:dimension-ranges",
        1.0 if range_ok else 0.0,
        "out-of-range dimensions are rejected", range_ok)
    return [c1, c2, c3, c4]


SUITES = {
    "q-oracle": suite_q_oracle,
    "omega": suite_omega,
    "product-rule": suite_product_rule,
    "growth-lemma": suite_growth_lemma,
    "norm-sandwich": suite_norm_sandwich,
    "spectrum": suite_spectrum,
    "compactness": suite_compactness,
    "isometry": suite_isometry,
    "constants": suite_constants,
}


def run_suite(name: str, seed: int = 42) -> tuple[list[CheckResult], AnalysisReport]:
    if name != "all" and name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    names = list(SUITES) if name == "all" else [name]
    checks: list[CheckResult] = []
    for n in names:
        checks.extend(SUITES[n](seed))
    report = AnalysisReport(command="verify", domain=None, symbol=None,
                            seed=seed, samples=None)
    for c in checks:
        report.add(c.name, c.measured, mode="check", ref=c.ref)
        report.verdicts[c.name] = "pass" if c.passed else "fail"
    report.verdicts["suite"] = name
    report.verdicts["overall"] = (
        "pass" if all(c.passed for c in checks) else "fail")
    return checks, report
