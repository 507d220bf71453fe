import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochkit import (
    REGISTRY,
    SamplingConfig,
    ball,
    beta_estimate,
    beta_upper_poly,
    combine,
    constant,
    disk,
    evaluate,
    lipschitz_beta_estimate,
    norm_bounds,
    omega_bounds,
    omega_empirical_lower,
    parse_domain,
    polydisk,
    product,
    q_value,
    q_values,
    rho_from_origin,
    sample_interior,
    sigma_estimate,
    sigma_upper_poly,
    spectrum_cloud,
    supnorm_estimate,
)
from blochkit.metric import geometry
from blochkit.symbols import format_complex, parse_symbol

from conftest import mkpoly


small_complex = st.complex_numbers(
    max_magnitude=0.6, allow_nan=False, allow_infinity=False
)
coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def _poly2(c1, c2, c3):
    return mkpoly(2, {(1, 0): c1, (0, 2): c2, (1, 1): c3})


@given(c1=coeff, c2=coeff, c3=coeff, shift=coeff)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_q_unchanged_by_constant_shift(c1, c2, c3, shift):
    f = _poly2(c1, c2, c3)
    g = combine("sum", f, constant(shift, 2))
    z = (0.25, 0.3j)
    assert q_value(ball(2), g, z) == pytest.approx(q_value(ball(2), f, z), abs=1e-9)


@given(c1=coeff, c2=coeff, scale=coeff)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_q_scales_by_modulus(c1, c2, scale):
    f = _poly2(c1, c2, 0.5)
    g = combine("product", constant(scale, 2), f)
    z = (0.2, 0.4)
    assert q_value(polydisk(2), g, z) == pytest.approx(
        abs(scale) * q_value(polydisk(2), f, z), abs=1e-9, rel=1e-9
    )


@given(a=coeff, b=coeff, c=coeff, d=coeff)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_q_product_rule(a, b, c, d):
    f = mkpoly(2, {(1, 0): a, (0, 1): b})
    g = mkpoly(2, {(2, 0): c, (0, 0): d})
    fg = combine("product", f, g)
    Z = sample_interior(ball(2), 8, seed=2)
    qf = q_values(ball(2), f, Z)
    qg = q_values(ball(2), g, Z)
    qfg = q_values(ball(2), fg, Z)
    for i, z in enumerate(Z):
        bound = abs(evaluate(f, z)) * qg[i] + abs(evaluate(g, z)) * qf[i]
        assert qfg[i] <= bound + 1e-9


@given(a=coeff, b=coeff)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sampled_seminorm_below_coefficient_bound(a, b):
    f = mkpoly(2, {(1, 0): a, (1, 1): b})
    cert = beta_upper_poly(f)
    cfg = SamplingConfig(samples=300, seed=5, refine_restarts=1, refine_iters=10)
    est = beta_estimate(ball(2), f, cfg)
    assert est.lower <= cert + 1e-9


@given(c=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_format_complex_round_trip(c):
    f = parse_symbol(format_complex(c), 1)
    assert evaluate(f, 0.0) == pytest.approx(complex(c), rel=1e-12, abs=1e-12)


@given(z=small_complex, w=small_complex)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_q_disk_formula_under_hypothesis(z, w):
    f = mkpoly(1, {(2,): w, (1,): 1.0})
    expected = (1 - abs(z) ** 2) * abs(2 * w * z + 1)
    assert q_value(disk(), f, z) == pytest.approx(expected, abs=1e-10)


GROWTH_DOMAINS = (disk(), ball(2), polydisk(2), product(ball(2), disk()))
unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(k=st.integers(0, len(GROWTH_DOMAINS) - 1),
       raw=st.lists(unit_complex, min_size=3, max_size=3),
       radius=st.floats(0.0, 0.9999))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_growth_sandwich(k, raw, radius):
    d = GROWTH_DOMAINS[k]
    z = _point(d, raw, radius)
    # arctanh of every factor's size, each polydisk coordinate one factor
    L = []
    for s, t, f in d.factor_slices():
        sizes = np.abs(z[s:t]) if f.kind.value == "polydisk" else [np.linalg.norm(z[s:t])]
        L += [math.atanh(float(r)) for r in sizes]
    rho = rho_from_origin(d, z)
    witness = omega_empirical_lower(d, z)
    assert rho.lower == rho.upper == pytest.approx(math.hypot(*L), rel=1e-12)
    little = float(geometry(d).growth(z.reshape(1, -1), little=True)[0])
    # the witness floor is the one-factor floor, and the little floor is
    # the geometry table's
    assert max(L) <= witness + 1e-9
    assert witness <= max(L) + 1e-12
    assert witness <= rho.upper + 1e-9
    assert omega_empirical_lower(d, z, little=True) == little
    assert little <= rho.lower


def _point(d, raw, radius):
    """The first coordinates of `raw`, each factor scaled to size at most
    `radius`."""
    z = np.asarray(raw[: d.ambient_dim], dtype=complex)
    for s, t, _ in d.factor_slices():
        z[s:t] *= radius / max(1.0, float(np.linalg.norm(z[s:t])))
    return z


def _cert_poly(n, coeffs):
    first, last = np.eye(n, dtype=int)[0], np.eye(n, dtype=int)[-1]
    exps = (first, 2 * last, first + last + (n == 1) * first)
    return mkpoly(n, {tuple(int(x) for x in e): c for e, c in zip(exps, coeffs)})


LIGHT = SamplingConfig(samples=500, seed=3, refine_restarts=0)
HEAVY = SamplingConfig(samples=8000, seed=19, refine_restarts=3, refine_iters=30)


@given(k=st.integers(0, len(GROWTH_DOMAINS) - 1),
       coeffs=st.lists(coeff, min_size=3, max_size=3),
       raw=st.lists(unit_complex, min_size=3, max_size=3),
       radius=st.floats(0.0, 0.9999))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_certified_uppers_hold_against_heavy_sampling(k, coeffs, raw, radius):
    # every finite upper end must bound what heavier sampling with
    # refinement finds; tolerances cover rounding only
    d = GROWTH_DOMAINS[k]
    psi = _cert_poly(d.ambient_dim, coeffs)
    cert = beta_upper_poly(psi)
    beta = beta_estimate(d, psi, HEAVY).lower
    assert beta <= cert + 1e-9
    assert lipschitz_beta_estimate(d, psi) <= cert + 1e-9

    sigma = sigma_estimate(d, psi, LIGHT)
    sigma_heavy = sigma_estimate(d, psi, HEAVY).lower
    assert sigma_heavy <= sigma.upper + 1e-9
    assert sigma_heavy <= sigma_upper_poly(d, psi) + 1e-9

    nb = norm_bounds(d, psi, LIGHT)
    origin = abs(evaluate(psi, np.zeros(d.ambient_dim)))
    assert origin + beta <= nb.upper + 1e-9
    assert supnorm_estimate(d, psi, HEAVY).lower <= nb.upper + 1e-9

    z = _point(d, raw, radius)
    for est in (rho_from_origin(d, z), omega_bounds(d, z)):
        # |psi(z) - psi(0)| <= beta_psi rho(0, z), and the witnesses bound omega
        assert abs(evaluate(psi, z) - evaluate(psi, np.zeros_like(z))) <= (
            cert * est.upper * (1 + 1e-12) + 1e-12)
        assert omega_empirical_lower(d, z) <= est.upper * (1 + 1e-12) + 1e-12


def test_parse_round_trip_registry():
    for d in REGISTRY:
        assert parse_domain(str(d)) == d


# ------------------------------------------------- sample-doubling monotonicity


DOUBLING_SYMBOL = mkpoly(2, {(1, 0): 0.7 + 0.2j, (0, 1): -0.3j, (2, 1): 0.4})


def _cfg(n):
    return SamplingConfig(samples=n, seed=11, refine_restarts=3, refine_iters=25)


@pytest.mark.parametrize("sizes", [(500, 1000), (1000, 2000), (2000, 4000)])
def test_doubling_never_decreases_beta(sizes):
    lo = beta_estimate(ball(2), DOUBLING_SYMBOL, _cfg(sizes[0])).lower
    hi = beta_estimate(ball(2), DOUBLING_SYMBOL, _cfg(sizes[1])).lower
    assert hi >= lo - 1e-12


@pytest.mark.parametrize("sizes", [(500, 1000), (1000, 2000), (2000, 4000)])
def test_doubling_never_decreases_sigma(sizes):
    lo = sigma_estimate(ball(2), DOUBLING_SYMBOL, _cfg(sizes[0])).lower
    hi = sigma_estimate(ball(2), DOUBLING_SYMBOL, _cfg(sizes[1])).lower
    assert hi >= lo - 1e-12


@pytest.mark.parametrize("sizes", [(500, 1000), (2000, 4000)])
def test_doubling_never_decreases_supnorm(sizes):
    lo = supnorm_estimate(polydisk(2), DOUBLING_SYMBOL, _cfg(sizes[0])).lower
    hi = supnorm_estimate(polydisk(2), DOUBLING_SYMBOL, _cfg(sizes[1])).lower
    assert hi >= lo - 1e-12


# ------------------------------------------------- interval and spectrum invariants


def test_sigma_intervals_ordered_across_domains(fast_cfg):
    from blochkit import coordinate

    for d in (disk(), ball(2), polydisk(2)):
        psi = coordinate(1, d.ambient_dim)
        s = sigma_estimate(d, psi, fast_cfg)
        assert s.lower <= s.upper + 1e-12
        s0 = sigma_estimate(d, psi, fast_cfg, which="sigma0")
        assert s0.lower <= s.upper + 1e-9


def test_spectrum_resolvent_formula():
    cfg = SamplingConfig(samples=400, seed=6)
    psi = mkpoly(1, {(1,): 0.5})
    cloud = spectrum_cloud(disk(), psi, cfg)
    lam = 2.0 + 1.0j
    dist = cloud.distance(lam)
    assert dist > 0
    assert cloud.resolvent_scale(lam, 3.0) == pytest.approx(3.0 / dist**2, rel=1e-12)
    member = complex(cloud.points[0])
    assert cloud.distance(member) == pytest.approx(0.0, abs=1e-15)
    assert math.isinf(cloud.resolvent_scale(member, 1.0))
