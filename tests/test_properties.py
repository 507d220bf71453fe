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
    omega_empirical_lower,
    parse_domain,
    polydisk,
    product,
    q_value,
    q_values,
    rho_from_origin,
    sample_interior,
    sigma_estimate,
    spectrum_cloud,
    supnorm_estimate,
)
from blochkit.metric import RHO_UPPER_PAD, geometry
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
    z = np.asarray(raw[: d.ambient_dim], dtype=complex)
    for s, t, _ in d.factor_slices():
        z[s:t] *= radius / max(1.0, float(np.linalg.norm(z[s:t])))
    geo, Z = geometry(d), z.reshape(1, -1)
    lower = float(geo.omega_lower(Z)[0])
    witness = omega_empirical_lower(d, z)
    rho_upper = rho_from_origin(d, z).upper
    assert lower <= witness + 1e-9
    assert witness <= rho_upper + 1e-9
    assert rho_upper <= float(geo.omega_upper(Z)[0]) + RHO_UPPER_PAD
    assert float(geo.omega_lower(Z, little=True)[0]) <= lower


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
