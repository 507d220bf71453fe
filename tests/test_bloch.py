import math

import numpy as np
import pytest

from blochkit import (
    ball,
    beta_estimate,
    beta_upper_poly,
    bloch_norm_estimate,
    combine,
    constant,
    coordinate,
    disk,
    evaluate,
    lipschitz_beta_estimate,
    little_star_membership_diagnostic,
    omega_bounds,
    omega_empirical_lower,
    parse_symbol,
    polydisk,
    product,
    q_value,
    q_value_oracle,
    q_values,
    rho_from_origin,
    sample_interior,
    sigma_estimate,
    sigma_upper_poly,
)
from blochkit import bloch, metric
from blochkit.bloch import _INVPHI, AGAINST, CONSISTENT, _refine_max
from blochkit.metric import geometry
from blochkit.estimates import SamplingConfig
from blochkit.errors import OutsideDomainError, UsageError
from blochkit.symbols import LogFrac, Polynomial, format_complex

from conftest import mkpoly

ATANH_HALF = 0.5493061443340548


# ---------------------------------------------------------------- Q values


def test_q_disk_closed_form():
    sq = mkpoly(1, {(2,): 1.0})
    # (1 - |z|^2) |f'(z)| with f = z^2 at z = 0.5
    assert q_value(disk(), sq, 0.5) == pytest.approx(0.75, abs=1e-14)
    lin = coordinate(1, 1)
    assert q_value(disk(), lin, 0.3 + 0.4j) == pytest.approx(0.75, abs=1e-14)


def test_q_polydisk_weighted_gradient():
    f = mkpoly(2, {(1, 1): 1.0})  # z1*z2
    assert q_value(polydisk(2), f, (0.5, 0.0)) == pytest.approx(0.5, abs=1e-14)


def test_q_ball_coordinate():
    f = coordinate(1, 2)
    for r in (0.0, 0.3, 0.6, 0.9):
        assert q_value(ball(2), f, (r, 0.0)) == pytest.approx(1 - r * r, abs=1e-12)


def test_q_log_symbol_peaks_at_parameter():
    # The h-form symbol attains invariant derivative one at its own parameter.
    for w in (0.3, 0.5j, 0.2 + 0.4j, -0.7):
        h = LogFrac(1, 1, w, "h")
        assert q_value(disk(), h, w) == pytest.approx(1.0, abs=1e-12)


def test_q_constant_is_zero():
    assert q_value(ball(2), constant(3.0, 2), (0.1, 0.2)) == pytest.approx(0.0, abs=1e-15)


def test_q_invariance_under_constant_shift_and_scaling():
    f = mkpoly(2, {(1, 0): 0.7, (0, 2): -0.4j})
    z = (0.2, 0.3j)
    base = q_value(ball(2), f, z)
    shifted = combine("sum", f, constant(2.5 - 1j, 2))
    assert q_value(ball(2), shifted, z) == pytest.approx(base, abs=1e-12)
    c = -1.5 + 2j
    scaled = combine("product", constant(c, 2), f)
    assert q_value(ball(2), scaled, z) == pytest.approx(abs(c) * base, rel=1e-12)


def test_q_values_batch_matches_scalar():
    f = mkpoly(2, {(2, 1): 1.0, (0, 1): 0.5})
    Z = sample_interior(ball(2), 20, seed=3)
    vals = q_values(ball(2), f, Z)
    for i, z in enumerate(Z):
        assert vals[i] == pytest.approx(q_value(ball(2), f, z), rel=1e-12)


def test_q_via_metric_agrees_with_closed_form():
    # with one random direction the oracle's max is reached at the
    # maximizer M^(-1) conj(g) from its solve against the metric matrix
    rng = np.random.default_rng(1)
    for d in (disk(), ball(2), polydisk(3), product(ball(2), disk())):
        f = mkpoly(
            d.ambient_dim,
            {
                tuple(int(k) for k in rng.integers(0, 3, d.ambient_dim)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(4)
            },
        )
        for z in sample_interior(d, 10, seed=2):
            assert q_value_oracle(d, f, z, ndirs=1) == pytest.approx(
                q_value(d, f, z), rel=1e-9, abs=1e-12
            )


def test_q_oracle_never_exceeds_closed_form():
    rng = np.random.default_rng(5)
    for d in (disk(), ball(3), polydisk(2)):
        f = mkpoly(
            d.ambient_dim,
            {
                tuple(int(k) for k in rng.integers(0, 4, d.ambient_dim)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(4)
            },
        )
        for z in sample_interior(d, 5, seed=6):
            qc = q_value(d, f, z)
            qo = q_value_oracle(d, f, z, ndirs=2048, seed=0)
            assert qo <= qc + 1e-9
            if qc > 1e-12:
                assert (qc - qo) / qc <= 1e-3


def test_q_oracle_exact_on_disk_with_one_direction():
    f = mkpoly(1, {(3,): 1.0, (1,): -0.5j})
    for z in (0.2, 0.5j, -0.3 + 0.3j):
        assert q_value_oracle(disk(), f, z, ndirs=1, seed=0) == pytest.approx(
            q_value(disk(), f, z), abs=1e-12
        )


# ---------------------------------------------------------------- seminorms


def test_beta_constant_is_exactly_zero():
    est = beta_estimate(ball(2), constant(4.2, 2), None)
    assert est.mode == "exact"
    assert est.lower == est.upper == 0.0


def test_beta_disk_coordinate_reaches_one(fast_cfg):
    est = beta_estimate(disk(), coordinate(1, 1), fast_cfg)
    assert est.mode == "sampled-lower"
    assert est.lower == pytest.approx(1.0, abs=1e-9)
    assert est.lower <= 1.0 + 1e-9
    assert abs(complex(est.argmax[0])) < 1e-3  # supremum attained at the center


def test_beta_upper_poly_certificate(fast_cfg):
    f = mkpoly(2, {(1, 0): 0.7 + 0.2j, (0, 1): -0.3j, (2, 1): 0.4})
    cert = beta_upper_poly(f)
    est = beta_estimate(ball(2), f, fast_cfg, certified_upper=cert)
    assert est.lower <= cert + 1e-12
    assert est.upper == pytest.approx(cert)


def test_beta_certificate_contradiction_raises(fast_cfg):
    with pytest.raises(UsageError):
        beta_estimate(disk(), coordinate(1, 1), fast_cfg, certified_upper=0.5)


def test_beta_log_symbol_bounded_by_parameter(fast_cfg):
    # The f-form symbol with parameter w has seminorm at most |w|.
    est = beta_estimate(polydisk(2), parse_symbol("fw(1,0.5)", 2), fast_cfg)
    assert est.lower <= 0.5 + 1e-9
    assert est.lower == pytest.approx(0.5, abs=1e-6)


def test_bloch_norm_adds_center_value(fast_cfg):
    f = combine("sum", constant(1.0, 1), coordinate(1, 1))
    est = bloch_norm_estimate(disk(), f, fast_cfg)
    assert est.lower == pytest.approx(2.0, abs=1e-6)
    const = bloch_norm_estimate(disk(), constant(2.5j, 1), None)
    assert const.lower == const.upper == pytest.approx(2.5)


def test_lipschitz_estimate(fast_cfg):
    assert lipschitz_beta_estimate(disk(), constant(1.0, 1)) == pytest.approx(0.0, abs=1e-15)
    v = lipschitz_beta_estimate(disk(), coordinate(1, 1), npairs=200, seed=42)
    assert 0.95 <= v <= 1.0 + 1e-9
    # each closed-form distance is padded by RHO_UPPER_PAD = 1e-8
    assert v == pytest.approx(0.997760734657811, rel=1e-9)


def test_lipschitz_bounded_by_coefficient_certificate():
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = mkpoly(
            2,
            {
                tuple(int(k) for k in rng.integers(0, 3, 2)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(3)
            },
        )
        v = lipschitz_beta_estimate(ball(2), f, npairs=100, seed=1)
        assert v <= beta_upper_poly(f) + 1e-9


# ---------------------------------------------------------------- refinement

REFINE_CASES = (
    (disk(), mkpoly(1, {(1,): 0.4, (3,): 1.0 - 0.5j})),
    (ball(2), mkpoly(2, {(1, 0): 0.7 + 0.2j, (0, 1): -0.3j, (2, 1): 0.4})),
    (polydisk(2), mkpoly(2, {(1, 1): 1.0, (0, 2): 0.5j})),
    (product(ball(2), disk()), mkpoly(3, {(1, 0, 1): 1.0, (0, 2, 0): -0.6})),
)


def _golden_max(fun, lo, hi, iters):
    """Scalar golden-section maximisation on [lo, hi]: the reference for
    one row of `_refine_max`."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    e = a + _INVPHI * (b - a)
    fc, fe = fun(c), fun(e)
    for _ in range(iters):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = fun(e)
    return (c, fc) if fc >= fe else (e, fe)


def _pointwise_refine(d, objective, z, iters):
    """Reference: the coordinatewise pass one point at a time, each line
    searched by the scalar `_golden_max` on its chord."""
    geo = geometry(d)
    n = len(z)
    best = objective(z[None])[0]
    for axis in range(2 * n):
        e = np.zeros(n, dtype=np.complex128)
        e[axis % n] = 1.0 if axis < n else 1.0j
        lo, hi = (float(v[0]) for v in geo.chord(z[None], e))
        if hi - lo <= 1e-14:
            continue
        t, val = _golden_max(lambda t: objective((z + t * e)[None])[0], lo, hi, iters)
        if val > best:
            best, z = val, z + t * e
    return best, z


def _family(objectives):
    """rows(P, which) of a family whose member k is objectives[k], each
    called on its own rows."""
    def rows(P, which):
        out = np.empty(len(P))
        for k, objective in enumerate(objectives):
            mine = which == k
            if mine.any():
                out[mine] = objective(P[mine])
        return out
    return rows


@pytest.mark.parametrize("d,f", REFINE_CASES, ids=[str(d) for d, _ in REFINE_CASES])
def test_lockstep_refinement_equals_one_row_runs(d, f):
    def exact(Z):
        return q_values(d, f, Z)

    def rounded(Z):
        # plateaus, so ties between golden points occur
        return np.round(q_values(d, f, Z), 2)

    Z0 = sample_interior(d, 4, seed=9)
    # the last input searches two objectives jointly, from 4 and 3 starts
    for objectives in ([exact], [rounded], [exact, rounded]):
        starts = [Z0[k:] for k in range(len(objectives))]
        best, points = _refine_max(d, _family(objectives), starts, 20)
        row = 0
        for objective, start in zip(objectives, starts):
            for i in range(len(start)):
                b1, p1 = _refine_max(d, _family([objective]), [start[i:i + 1]], 20)
                assert best[row:row + 1].tobytes() == b1.tobytes()
                assert points[row:row + 1].tobytes() == p1.tobytes()
                b2, p2 = _pointwise_refine(d, objective, start[i], 20)
                assert best[row:row + 1].tobytes() == np.float64(b2).tobytes()
                assert points[row].tobytes() == p2.tobytes()
                row += 1
            alone = _refine_max(d, _family([objective]), [start], 20)
            group = slice(row - len(start), row)
            assert best[group].tobytes() == alone[0].tobytes()
            assert points[group].tobytes() == alone[1].tobytes()
        assert row == len(best)


@pytest.mark.parametrize("d,f", REFINE_CASES, ids=[str(d) for d, _ in REFINE_CASES])
def test_refinement_raises_the_scan_within_the_certificates(d, f, fast_cfg):
    scan_cfg = fast_cfg.with_(refine_restarts=0)
    for estimate in (beta_estimate, sigma_estimate):
        scanned = estimate(d, f, scan_cfg).lower
        refined = estimate(d, f, fast_cfg).lower
        assert refined >= scanned
    if d.kind.value in ("disk", "ball"):
        assert beta_estimate(d, f, fast_cfg).lower <= beta_upper_poly(f)
        assert sigma_estimate(d, f, fast_cfg).lower <= sigma_upper_poly(d, f)


def _beta_part(v, q, Z):
    return q


def _sup_part(v, q, Z):
    return v


def _sigma_part(v, q, Z):
    return q * geometry(polydisk(2)).growth(Z)


def _rung_part(v, q, Z):
    return 3 * v ** 2 * q


FAMILY_SYMBOLS = (
    mkpoly(2, {(1, 0): 0.7 + 0.2j, (0, 1): -0.3j, (2, 1): 0.4}),
    mkpoly(2, {(0, 3): 1.0}),  # one term
    parse_symbol("fw(2,0.4+0.3i)", 2),
    parse_symbol("(0.5 + z1*z2) * h(1,0.6) + 0.2*z2^2", 2),  # a product tree
    constant(0.3 - 0.4j, 2),
)


@pytest.mark.parametrize("restarts", [0, 3])
def test_family_members_match_their_one_member_calls(restarts):
    # a mixed family (polynomials, a log-fraction, a product tree and a
    # constant; one symbol with three parts) refines every member as its
    # own one-member call does, bit for bit
    d = polydisk(2)
    p, one_term, log, tree, const = FAMILY_SYMBOLS
    members = [(p, _beta_part, "q"), (log, _sup_part, "v"), (one_term, _sigma_part, "q"),
               (tree, _rung_part, "vq"), (p, _sup_part, "v"), (const, _beta_part, "q"),
               (tree, _beta_part, "q"), (p, _rung_part, "vq"), (const, _sup_part, "v")]
    cfg = SamplingConfig(samples=400, seed=5, refine_restarts=restarts, refine_iters=10)
    found = bloch._family_sups(d, members, cfg)
    assert len(found) == len(members)
    for member, (best, argmax, evals) in zip(members, found):
        (alone, alone_argmax, alone_evals), = bloch._family_sups(d, [member], cfg)
        assert best.hex() == alone.hex()
        assert argmax.tobytes() == alone_argmax.tobytes()
        assert evals == alone_evals == 400
    # the polynomials alone take the family kernel
    polys = [m for m in members if isinstance(m[0], Polynomial)]
    for member, (best, argmax, _) in zip(polys, bloch._family_sups(d, polys, cfg)):
        (alone, alone_argmax, _), = bloch._family_sups(d, [member], cfg)
        assert best.hex() == alone.hex()
        assert argmax.tobytes() == alone_argmax.tobytes()


def test_refinement_calls_no_contains_and_few_objectives(monkeypatch):
    d = ball(3)
    fs = [mkpoly(3, {(1, 0, 0): 0.5, (1, 1, 0): 1.0 - 1.0j, (0, 0, 3): 0.3}),
          mkpoly(3, {(0, 2, 0): 0.8j, (1, 0, 1): -0.4}),
          mkpoly(3, {(0, 0, 1): 1.0, (2, 1, 0): 0.3 + 0.3j})]
    n, iters = d.ambient_dim, 15
    counts = {"contains": 0, "gauge": 0, "rows": 0, "members": set()}
    # bloch checks single points through metric._require_interior, which
    # reads metric's binding of contains
    real_contains, real_outside = metric.contains, bloch._outside
    real_refine = bloch._refine_max

    def counted_contains(*args):
        counts["contains"] += 1
        return real_contains(*args)

    def counted_outside(*args):
        counts["gauge"] += 1
        return real_outside(*args)

    def counted_refine(d, rows, starts, iters):
        def counted(P, which):
            counts["rows"] += 1
            counts["members"].update(which.tolist())
            return rows(P, which)
        return real_refine(d, counted, starts, iters)

    monkeypatch.setattr(metric, "contains", counted_contains)
    monkeypatch.setattr(bloch, "_outside", counted_outside)
    monkeypatch.setattr(bloch, "_refine_max", counted_refine)
    # the seminorms of every f and the sup-norm of the first, as one family
    family = [(f, _beta_part, "q") for f in fs] + [(fs[0], _sup_part, "v")]
    for restarts in (1, 3, 8):
        cfg = SamplingConfig(samples=500, seed=3, refine_restarts=restarts,
                             refine_iters=iters)
        gauges, calls = [], []
        for run, k in ((lambda: bloch._family_sups(d, family[:1], cfg), 1),
                       (lambda: bloch._family_sups(d, family, cfg), len(family))):
            counts.update(contains=0, gauge=0, rows=0, members=set())
            run()
            assert counts["contains"] == 0
            assert counts["members"] == set(range(k))
            assert 0 < counts["rows"] <= 2 * n * (iters + 2)
            gauges.append(counts["gauge"])
            calls.append(counts["rows"])
        # K members share every gauge check and every objective call of one
        assert 0 < gauges[0] == gauges[1]
        assert calls[0] == calls[1]


@pytest.mark.parametrize("vals", [
    [1.0, 3.0, 0.0, 2.0],             # one maximum: the argmax
    [1.0, 3.0, 0.0, 3.0, 2.0],        # tied maxima
    [1.0, np.nan, 3.0, np.nan, 2.0],  # NaNs
    [-np.inf, -np.inf],
], ids=["unique", "tied", "nan", "all-equal"])
def test_top_of_a_scan_is_the_argsort_top(vals):
    vals = np.array(vals)
    order = np.argsort(vals)[::-1]
    assert bloch._descending(vals, 0)[0] == order[0]
    for restarts in (1, 3):
        np.testing.assert_array_equal(bloch._descending(vals, restarts), order)


def test_scan_without_restarts_reports_the_argsort_top_point():
    d = ball(2)
    cfg = SamplingConfig(samples=8, seed=3, refine_restarts=0)
    Z = sample_interior(d, 8, 3)
    for vals in ([0, 5, 1, 5, 2, 0, 5, 1], [0, np.nan, 1, 9, 2, 0, np.nan, 1]):
        vals = np.array(vals, dtype=float)
        (best, point, evals), = bloch._sup_estimates(d, lambda Z: vals[None], None, cfg)
        top = np.argsort(vals)[::-1][0]
        assert point.tobytes() == Z[top].tobytes()
        assert evals == 8 and (best == vals[top] or np.isnan(best))


# ---------------------------------------------------------------- growth scale


@pytest.mark.parametrize("d, z, value", [
    (polydisk(3), (0.7 + 0.2j, -0.5j, 0.3), 1.1190206383140673),
    # log-fractions act on one coordinate, so the ball factor's part lies
    # on its first axis; the ball is rotation invariant
    (product(ball(2), disk()), (0.6 - 0.3j, 0.0, -0.4 + 0.5j), 1.1114644652268604),
], ids=["polydisk:3", "product(ball:2,disk)"])
def test_summed_witness_reaches_the_closed_form(d, z, value):
    # w = sum_f (L_f / ||L||_2) h_f with L_f = arctanh of the factor's size:
    # w(z) = ||L||_2 and Q_w <= 1, so omega(z) >= ||L||_2 = rho(0, z)
    z = np.asarray(z, dtype=complex)
    factors = [k for k, c in enumerate(z) if c != 0]
    L = np.array([math.atanh(abs(z[k])) for k in factors])
    weights = L / np.linalg.norm(L)
    text = " + ".join(f"{float(w)!r}*h({k + 1},{format_complex(z[k])})"
                      for w, k in zip(weights, factors))
    w = parse_symbol(text, d.ambient_dim)
    rho = rho_from_origin(d, z)
    assert rho.lower == pytest.approx(value, rel=1e-15)
    assert abs(evaluate(w, z) - rho.lower) <= 1e-12
    assert beta_estimate(d, w, SamplingConfig(samples=20000)).lower <= 1 + 1e-9


def test_omega_empirical_lower_center_and_witnesses(fast_cfg):
    assert omega_empirical_lower(disk(), 0.0) == pytest.approx(0.0, abs=1e-12)
    # coordinate witness on the polydisk is exact
    v = omega_empirical_lower(polydisk(2), (0.5, 0.3))
    assert v >= ATANH_HALF - 1e-12
    assert v <= math.atanh(0.5) + math.atanh(0.3) + 1e-9
    # ball witness reproduces the exact value
    vb = omega_empirical_lower(ball(2), (0.3, 0.4))
    assert vb == pytest.approx(ATANH_HALF, rel=1e-6)
    # a config passed where the sampling config used to go would bind
    # to `little`; it is refused instead
    with pytest.raises(TypeError):
        omega_empirical_lower(ball(2), (0.3, 0.4), fast_cfg)


def test_omega_little_variant_at_most_full():
    for z in ((0.3, 0.4), (0.1, 0.7)):
        full = omega_empirical_lower(ball(2), z)
        little = omega_empirical_lower(ball(2), z, little=True)
        assert little <= full + 1e-12
        assert little >= 0.9 * full


def test_omega_bounds_exact_on_disk_and_ball():
    est = omega_bounds(disk(), 0.5)
    assert est.mode == "exact"
    assert est.lower == pytest.approx(ATANH_HALF, abs=1e-12)
    est2 = omega_bounds(ball(3), (0.3, 0.0, 0.4))
    assert est2.lower == est2.upper == pytest.approx(ATANH_HALF, abs=1e-12)
    # inside |z| < 1 but within the membership margin, as on the polydisk
    edge = 1.0 - 1e-13
    for d, z in ((disk(), edge), (ball(2), (edge, 0.0)), (polydisk(2), (edge, 0.0))):
        with pytest.raises(OutsideDomainError):
            omega_bounds(d, z)


def test_omega_bounds_interval_on_polydisk():
    est = omega_bounds(polydisk(2), (0.5, 0.5))
    assert est.lower <= est.upper
    assert est.lower >= ATANH_HALF - 1e-9


# the extremal growth on the ball and the polydisk is the distance from
# the origin: arctanh of the euclidean size, and the l2 norm of the
# coordinate values arctanh|z_k|


def test_omega_exact_ball():
    assert rho_from_origin(ball(2), (0.3, 0.4)).lower == pytest.approx(ATANH_HALF, abs=1e-12)
    assert rho_from_origin(ball(1), 0.0).lower == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(OutsideDomainError):
        rho_from_origin(ball(2), (1.0, 0.0))


def test_omega_polydisk_bounds_axis_point():
    est = rho_from_origin(polydisk(2), (0.5, 0.0))
    assert est.lower == pytest.approx(ATANH_HALF, abs=1e-12)
    assert est.upper - est.lower <= 2e-8


def test_omega_polydisk_bounds_diagonal():
    est = rho_from_origin(polydisk(2), (0.5, 0.5))
    assert est.lower == est.upper == pytest.approx(math.sqrt(2) * ATANH_HALF, rel=1e-12)
    assert est.upper <= 2 * ATANH_HALF + 1e-9


# ---------------------------------------------------------------- membership diagnostics


def test_little_class_diagnostic_coordinate(fast_cfg):
    profile, verdict = little_star_membership_diagnostic(disk(), coordinate(1, 1), cfg=fast_cfg)
    assert verdict == CONSISTENT
    # boundary samples at |z| = 1 - eps make the profile deterministic
    for eps, mq in zip(profile.eps, profile.max_q):
        assert mq == pytest.approx(1 - (1 - eps) ** 2, abs=1e-12)


def test_little_class_diagnostic_log_symbol(fast_cfg):
    h = parse_symbol("h(1,0.5)", 1)
    profile, verdict = little_star_membership_diagnostic(disk(), h, cfg=fast_cfg)
    assert verdict == AGAINST
    assert profile.max_q[0] > 0.9


def test_little_class_diagnostic_constant(fast_cfg):
    _, verdict = little_star_membership_diagnostic(ball(2), constant(2.0, 2), cfg=fast_cfg)
    assert verdict == CONSISTENT
