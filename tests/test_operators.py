import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from blochkit import (
    EstimateInterval,
    SamplingConfig,
    ball,
    beta_estimate,
    beta_upper_poly,
    bloch_norm_estimate,
    boundedness_verdict,
    cartan1,
    combine,
    compactness_verdict,
    constant,
    coordinate,
    disk,
    empirical_opnorm_lower,
    evaluate_many,
    exceptional16,
    grid_coverage,
    isometry_verdict,
    norm_bounds,
    operator_report,
    parse_domain,
    polydisk,
    q_value,
    q_values,
    sample_interior,
    sigma_estimate,
    sigma_upper_poly,
    spectrum_cloud,
    supnorm_estimate,
)
from blochkit import _kernels, bloch
from blochkit.errors import AmbiguousConstantError, NumericalDomainError, UsageError
from blochkit.operators import (
    _RADIAL_PEAK,
    BOUNDED,
    BOUNDED_EVIDENCE,
    INCONCLUSIVE,
    UNBOUNDED_EVIDENCE,
    _battery,
    _ceiling,
    _power_q,
)
from blochkit.symbols import LogFrac, parse_symbol

from conftest import mkpoly

# independently computed radial peaks of the boundary weight profiles
DISK_COORD_PEAK = 0.44774320468838213  # sup_r atanh(r) (1 - r^2)
BALL2_COORD_PEAK = 0.6627434193070848  # sup_r atanh(r) sqrt(1 - r^2)


# ---------------------------------------------------------------- boundary weights


def test_sigma_disk_coordinate(fast_cfg):
    est = sigma_estimate(disk(), coordinate(1, 1), fast_cfg)
    assert est.mode == "sampled-lower"
    assert est.lower == pytest.approx(DISK_COORD_PEAK, abs=1e-8)
    assert est.lower <= est.upper


def test_sigma_ball_coordinate(fast_cfg):
    est = sigma_estimate(ball(2), coordinate(1, 2), fast_cfg)
    assert est.lower == pytest.approx(BALL2_COORD_PEAK, abs=1e-8)


def test_sigma_constant_is_zero():
    est = sigma_estimate(ball(2), constant(3.0, 2), None)
    assert est.mode == "exact"
    assert est.lower == est.upper == 0.0


def test_sigma_upper_poly_values():
    v = sigma_upper_poly(disk(), coordinate(1, 1))
    assert v == pytest.approx(BALL2_COORD_PEAK, abs=1e-8)
    assert math.isinf(sigma_upper_poly(polydisk(2), coordinate(1, 2)))
    with pytest.raises(UsageError):
        sigma_upper_poly(disk(), parse_symbol("fw(1,0.5)", 1))


def test_radial_peak_literal_covers_the_true_maximum():
    # arctanh(r) sqrt(1 - r^2) has derivative (1 - r arctanh r) / sqrt(1 - r^2)
    with mpmath.workdps(50):
        r = mpmath.findroot(lambda r: 1 - r * mpmath.atanh(r), (0.8, 0.9),
                            solver="anderson")
        peak = mpmath.atanh(r) * mpmath.sqrt(1 - r * r)
        assert _RADIAL_PEAK >= peak * (1 + mpmath.mpf("1e-14"))


def test_sigma_polydisk_upper_covers_the_weight_near_the_boundary():
    # omega * Q for psi = z1 at (0, 0.999999) is arctanh(0.999999) * 1 = 7.25,
    # and it grows without bound toward (0, 1); no finite upper is certified
    d, psi = polydisk(2), coordinate(1, 2)
    cfg = SamplingConfig(samples=2000, refine_restarts=0)
    near_boundary = math.atanh(0.999999) * q_value(d, psi, (0.0, 0.999999))
    est = sigma_estimate(d, psi, cfg)
    nb = norm_bounds(d, psi, cfg)
    assert 0 < est.lower
    assert est.upper >= near_boundary and nb.upper >= near_boundary
    assert math.isinf(est.upper) and math.isinf(nb.upper)


def test_sigma0_below_sigma(fast_cfg):
    for d, psi in ((ball(2), coordinate(1, 2)), (polydisk(2), coordinate(1, 2))):
        s = sigma_estimate(d, psi, fast_cfg, which="sigma")
        s0 = sigma_estimate(d, psi, fast_cfg, which="sigma0")
        assert s0.lower <= s.upper + 1e-9


def test_supnorm_estimate(fast_cfg):
    est = supnorm_estimate(polydisk(2), mkpoly(2, {(1, 1): 1.0}), fast_cfg)
    assert est.lower <= 1.0 + 1e-9
    assert est.upper == pytest.approx(1.0)  # coefficient certificate is tight here
    const = supnorm_estimate(disk(), constant(2.0 - 1.5j, 1), None)
    assert const.lower == const.upper == pytest.approx(2.5)


# ---------------------------------------------------------------- boundedness


def test_boundedness_constant_symbol(fast_cfg):
    rep = boundedness_verdict(ball(2), constant(1.5, 2), fast_cfg)
    assert rep.verdict == BOUNDED


def test_boundedness_evidence_for_coordinate(fast_cfg):
    for d in (ball(2), polydisk(2)):
        rep = boundedness_verdict(d, coordinate(1, d.ambient_dim), fast_cfg)
        assert rep.verdict == BOUNDED_EVIDENCE
        assert len(rep.maxima) == len(rep.eps)


def test_boundedness_vanishing_class_rejects_log_symbol(fast_cfg):
    rep = boundedness_verdict(disk(), parse_symbol("h(1,0.5)", 1), fast_cfg, space="B0*")
    assert rep.verdict == UNBOUNDED_EVIDENCE
    assert "vanishing" in rep.note


def test_boundedness_invalid_space(fast_cfg):
    with pytest.raises(UsageError):
        boundedness_verdict(disk(), coordinate(1, 1), fast_cfg, space="L2")


def test_boundedness_empty_ladder_is_a_usage_error(fast_cfg, monkeypatch):
    from blochkit import operators

    def no_draws(*args, **kw):
        raise AssertionError("sampled before checking the ladder")

    monkeypatch.setattr(operators, "sample_interior", no_draws)
    with pytest.raises(UsageError, match="ladder"):
        boundedness_verdict(disk(), coordinate(1, 1), fast_cfg, ())
    # either space needs two or more strictly decreasing rungs
    for ladder in ((0.1,), (0.01, 0.1), (0.1, 0.1)):
        for space in ("B", "B0*"):
            with pytest.raises(UsageError, match="at least two rungs, each below the last"):
                boundedness_verdict(disk(), coordinate(1, 1), fast_cfg, ladder, space)


def test_boundedness_report_dict(fast_cfg):
    rep = boundedness_verdict(ball(2), coordinate(1, 2), fast_cfg)
    d = rep.as_dict()
    assert d["verdict"] == rep.verdict
    assert len(d["maxima"]) == len(d["eps"])


# ---------------------------------------------------------------- norm sandwich


def test_norm_bounds_identity_symbol(fast_cfg):
    nb = norm_bounds(disk(), constant(1.0, 1), fast_cfg)
    assert nb.lower == pytest.approx(1.0, abs=1e-12)
    assert nb.upper == pytest.approx(1.0, abs=1e-12)
    nb2 = norm_bounds(disk(), constant(2.5j, 1), fast_cfg)
    assert nb2.lower == pytest.approx(2.5, abs=1e-9)
    assert nb2.upper == pytest.approx(2.5, abs=1e-9)


def test_norm_bounds_disk_coordinate(fast_cfg):
    nb = norm_bounds(disk(), coordinate(1, 1), fast_cfg)
    assert nb.lower == pytest.approx(1.0, abs=1e-6)
    assert nb.upper == pytest.approx(1.0 + 0.6627434193491817, rel=1e-6)
    assert nb.lower <= nb.upper
    d = nb.as_dict()
    assert set(d.keys()) == {"lower", "upper", "supnorm", "bloch_norm", "boundary_weight", "space"}


def test_empirical_opnorm_exact_for_constants(fast_cfg):
    assert empirical_opnorm_lower(ball(2), constant(1.0, 2), fast_cfg) == pytest.approx(
        1.0, abs=1e-12
    )
    assert empirical_opnorm_lower(ball(2), constant(2.5j, 2), fast_cfg) == pytest.approx(
        2.5, abs=1e-12
    )
    # every battery product constant: no sampled member at all
    assert empirical_opnorm_lower(ball(2), constant(0.0, 2), fast_cfg) == 0.0


def test_empirical_opnorm_within_sandwich(fast_cfg):
    psi = mkpoly(2, {(1, 0): 0.5, (0, 1): 0.25j})
    nb = norm_bounds(ball(2), psi, fast_cfg)
    low = empirical_opnorm_lower(ball(2), psi, fast_cfg)
    assert nb.lower <= low + 1e-9
    assert low <= nb.upper + 1e-9


@pytest.mark.parametrize("spec,least", [("disk", 2), ("ball:2", 3), ("ball:5", 4)])
def test_battery_refuses_fewer_than_its_fixed_members(spec, least):
    # the constant 1 and min(n, 3) coordinates are always in the battery
    d = parse_domain(spec)
    assert len(_battery(d, least, 42)) == least
    for nfuncs in (-5, 0, least - 1):
        with pytest.raises(UsageError, match="nfuncs"):
            _battery(d, nfuncs, 42)
        with pytest.raises(UsageError, match="nfuncs"):
            empirical_opnorm_lower(d, coordinate(1, d.ambient_dim), nfuncs=nfuncs)


@pytest.mark.parametrize("spec,psi", [
    ("ball:2", mkpoly(2, {(1, 0): 0.5, (1, 1): 0.3 - 0.2j, (0, 3): 0.4j})),
    ("polydisk:2", mkpoly(2, {(0, 0): 0.2, (2, 1): -0.7, (0, 1): 0.1 + 0.5j})),
    ("ball:5", mkpoly(5, {(1, 0, 0, 0, 1): 0.6j, (0, 0, 2, 0, 0): -0.3, (0, 1, 0, 0, 0): 0.2})),
])
def test_families_match_their_members_bit_for_bit(spec, psi, fast_cfg):
    # the battery and the power ladder search every member in one joint
    # refinement; each member's figure must be that of its own estimate
    d = parse_domain(spec)
    reference = 0.0
    for f, denom in _battery(d, 8, 42):
        assert denom == _ceiling(d, f, "bloch") > 0
        num = bloch_norm_estimate(d, combine("product", psi, f), fast_cfg).lower
        reference = max(reference, num / denom)
    assert repr(empirical_opnorm_lower(d, psi, fast_cfg, nfuncs=8)) == repr(reference)
    betas = isometry_verdict(d, psi, fast_cfg).power_betas
    if d.kind.value == "ball":
        small = fast_cfg.with_(samples=max(256, fast_cfg.samples // 16),
                               refine_restarts=1, refine_iters=12)

        def rung(k):
            # the chain rule: Q of psi^k is k |psi|^(k-1) Q_psi
            def objective(Z):
                return k * np.abs(evaluate_many(psi, Z)) ** (k - 1) * q_values(d, psi, Z)
            return objective

        ladder = {k: bloch._sup_estimates(d, lambda Z: rung(k)(Z)[None],
                                          lambda w: rung(k), small)[0][0]
                  for k in (1, 2, 4, 8, 16)}
        assert repr(betas) == repr(ladder)
        # and the seminorms of the expanded powers, to rounding
        for k, beta in betas.items():
            power = combine("power", psi, k)
            assert beta == pytest.approx(beta_estimate(d, power, small).lower, rel=1e-13)
            assert beta <= beta_upper_poly(power)
    else:
        assert betas == {}  # a disk factor: no power ladder


@pytest.mark.parametrize("restarts", [1, 2])
def test_power_ladder_keeps_the_bits_of_one_rung_calls(restarts):
    # the five rungs are one part with a per-row k; on ball:5, for a symbol
    # in z1 and z2 only, each rung's sup is, to the bit, a one-member call
    # of its own k v^(k-1) q
    d = ball(5)
    psi = parse_symbol("(0.84+0.05i) + (0.04+0.03i)*z1 + (-0.03+0.02i)*z2", 5)
    cfg = SamplingConfig(samples=4096, seed=7, refine_restarts=2, refine_iters=20)
    small = cfg.with_(samples=256, refine_restarts=restarts, refine_iters=12)
    ks = (1, 2, 4, 8, 16)
    ladder = bloch._family_sups(d, [(psi, _power_q, "vq", k) for k in ks], small)
    for k, (beta, argmax, _) in zip(ks, ladder):
        (alone, alone_argmax, _), = bloch._family_sups(
            d, [(psi, lambda v, q, Z, _, k=k: k * v ** (k - 1) * q, "vq", None)], small)
        assert beta.hex() == alone.hex()
        assert argmax.tobytes() == alone_argmax.tobytes()
    if restarts == 1:  # the verdict's own sampling
        betas = isometry_verdict(d, psi, cfg).power_betas
        assert [betas[k].hex() for k in ks] == [beta.hex() for beta, _, _ in ladder]


def test_battery_is_built_once_per_domain_count_and_seed():
    first = _battery(ball(2), 6, 42)
    assert isinstance(first, tuple) and _battery(ball(2), 6, 42) is first
    other = _battery(ball(2), 6, 43)
    assert other is not first and other != first
    assert other[:3] == first[:3]  # the constant and the coordinates
    _battery.cache_clear()
    assert _battery(ball(2), 6, 42) == first


SANDWICH_CASES = (
    ("ball:2", mkpoly(2, {(0, 0): 0.3j, (1, 0): 0.5, (1, 1): 0.3 - 0.2j, (0, 3): 0.4j})),
    ("polydisk:2", mkpoly(2, {(0, 0): 0.2, (2, 1): -0.7, (0, 1): 0.1 + 0.5j})),
    ("product(ball:2,disk)", mkpoly(3, {(1, 0, 1): 1.0, (0, 2, 0): -0.6})),
    ("disk", LogFrac(1, 1, 0.6, "f")),
)


@pytest.mark.parametrize("spec,psi", SANDWICH_CASES, ids=[s for s, _ in SANDWICH_CASES])
def test_sandwich_components_match_their_own_estimates(spec, psi, fast_cfg):
    # norm_bounds and operator_report search all components in one joint
    # refinement; each must be bit for bit its own estimator's interval
    d = parse_domain(spec)
    ceiling = _ceiling(d, psi, "bloch")
    alone = {"sup": supnorm_estimate(d, psi, fast_cfg),
             "bloch": bloch_norm_estimate(d, psi, fast_cfg, certified_upper=ceiling),
             "sigma": sigma_estimate(d, psi, fast_cfg),
             "sigma0": sigma_estimate(d, psi, fast_cfg, which="sigma0")}
    sandwiches = {}
    for space, sigma in (("B", "sigma"), ("B0*", "sigma0")):
        nb = sandwiches[space] = norm_bounds(d, psi, fast_cfg, space=space)
        for got, name in ((nb.sup, "sup"), (nb.bloch, "bloch"), (nb.sigma, sigma)):
            assert repr(got) == repr(alone[name])
    rep = operator_report(d, psi, "psi", fast_cfg)
    for got, name in ((rep.sup_norm, "sup"), (rep.bloch_norm, "bloch"),
                      (rep.sigma, "sigma"), (rep.sigma0, "sigma0")):
        assert repr(got) == repr(alone[name])
    assert rep.verdicts["norm_lower"] == sandwiches["B"].lower
    assert rep.verdicts["norm_upper_B"] == sandwiches["B"].upper
    assert rep.verdicts["norm_upper_B0*"] == sandwiches["B0*"].upper


def test_disk_factor_branch_reads_its_own_estimates(tiny_cfg, monkeypatch):
    calls = []
    real = bloch._sup_estimates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bloch, "_sup_estimates", counted)
    d = polydisk(2)
    for psi, verdict in ((coordinate(1, 2), INCONCLUSIVE),
                         (mkpoly(2, {(1, 0): 2.0}), "not-isometry-evidence"),
                         (mkpoly(2, {(0, 0): 0.5, (1, 1): 0.3j}), "not-isometry-evidence")):
        calls.clear()
        rep = isometry_verdict(d, psi, tiny_cfg)
        assert len(calls) == 1  # the sup-norm and the Bloch norm in one call
        assert rep.verdict == verdict
        sup = supnorm_estimate(d, psi, tiny_cfg)
        norm = bloch_norm_estimate(d, psi, tiny_cfg,
                                   certified_upper=_ceiling(d, psi, "bloch"))
        expected = ("sampled sup-norm exceeds one" if sup.lower > 1.0 + 1e-9
                    else "sampled Bloch norm exceeds one" if norm.lower > 1.0 + 1e-9
                    else "certified Bloch norm stays below one" if norm.upper < 1.0 - 1e-9
                    else "necessary conditions hold within sampling resolution")
        assert rep.reason == expected


@pytest.mark.parametrize("spec", ["ball:3", "polydisk:3", "product(ball:2,disk)"])
def test_single_components_evaluate_only_what_they_read(spec, monkeypatch):
    # a lone seminorm or weight samples no value sum of psi's jet, and a
    # lone sup-norm no gradient sum, in the scan (the term loop) or in the
    # refinement steps (the power table)
    d = parse_domain(spec)
    psi = parse_symbol("0.3 + z1*z2 - 0.5*z3^2 + (0.2+0.1i)*z1^3", 3)
    cfg = SamplingConfig(samples=50000, seed=42, refine_restarts=1, refine_iters=3)
    asks = {"beta": lambda: beta_estimate(d, psi, cfg),
            "bloch": lambda: bloch_norm_estimate(d, psi, cfg),
            "sigma": lambda: sigma_estimate(d, psi, cfg),
            "sigma0": lambda: sigma_estimate(d, psi, cfg, which="sigma0"),
            "sup": lambda: supnorm_estimate(d, psi, cfg)}
    expected = {name: repr(ask()) for name, ask in asks.items()}
    computed = set()

    def spy(schedule, at):
        def run(*args):
            # psi has three coordinates: one value sum, three gradient sums
            computed.update((schedule.__name__, "value" if len(sums.counts) == 1 else "grad")
                            for sums in args[at])
            return schedule(*args)
        return run

    # the blocks of sums are the second argument of the table, the first of the loop
    for schedule, at in ((_kernels._table, 1), (_kernels._loop, 0)):
        monkeypatch.setattr(_kernels, schedule.__name__, spy(schedule, at))
    for name, ask in asks.items():
        # a fresh memo, or a repeat ask would read the draw's Q from it
        computed.clear()
        bloch._ON_DRAW.clear()
        assert repr(ask()) == expected[name]
        read = "value" if name == "sup" else "grad"
        # the Bloch norm adds |psi(0)|, one value at one point
        extra = {("_table", "value")} if name == "bloch" else set()
        assert computed == {("_loop", read), ("_table", read)} | extra, name


# ---------------------------------------------------------------- the draw memo

_SCAN_PSI = "0.3 + z1*z2 - 0.5*z3^2 + (0.2+0.1i)*z1^3"


def test_single_components_on_one_draw_match_a_fresh_memo():
    # beta first fills the memo with Q on the draw; every later ask must
    # give, to the bit, what it gives on an empty memo
    d, psi = ball(3), parse_symbol(_SCAN_PSI, 3)
    cfg = SamplingConfig(samples=20000, seed=42, refine_restarts=1, refine_iters=3)
    asks = [lambda: beta_estimate(d, psi, cfg),
            lambda: sigma_estimate(d, psi, cfg),
            lambda: sigma_estimate(d, psi, cfg, which="sigma0"),
            lambda: supnorm_estimate(d, psi, cfg)]
    bloch._ON_DRAW.clear()
    warm = [repr(ask()) for ask in asks]
    assert bloch._ON_DRAW
    for ask, got in zip(asks, warm):
        bloch._ON_DRAW.clear()
        assert repr(ask()) == got


def test_draw_memo_keeps_at_most_four_entries():
    d = ball(2)
    cfg = SamplingConfig(samples=3000, seed=5, refine_restarts=0)
    bloch._ON_DRAW.clear()
    for k in range(10):
        beta_estimate(d, parse_symbol(f"z1^{k + 1} + 0.5*z2", 2), cfg)
        assert len(bloch._ON_DRAW) <= 4
    assert len(bloch._ON_DRAW) == 4


def test_draw_memo_entries_die_with_the_draw():
    from blochkit import domains

    d, psi = polydisk(2), parse_symbol("z1*z2 + z2^2", 2)
    bloch._ON_DRAW.clear()
    sigma_estimate(d, psi, SamplingConfig(samples=3000, seed=5, refine_restarts=0))
    assert len(bloch._ON_DRAW) == 2  # Q of psi and the growth
    domains._draw.cache_clear()
    assert not bloch._ON_DRAW


def test_draw_memo_never_remembers_a_writeable_array():
    geo, psi = bloch.geometry(ball(2)), parse_symbol("z1*z2 + z2^2", 2)
    Z = np.array(sample_interior(ball(2), 100, 3))
    bloch._ON_DRAW.clear()
    got = bloch._on_draw("q", Z, geo, psi)
    assert not bloch._ON_DRAW
    assert np.array_equal(got, q_values(ball(2), psi, Z))


def test_beta_then_sigma_run_the_gradient_sums_once(monkeypatch):
    d, psi = ball(3), parse_symbol(_SCAN_PSI, 3)
    cfg = SamplingConfig(samples=20000, seed=42, refine_restarts=0)
    rows = []
    real = _kernels._loop

    def loop(blocks, Z):
        rows.extend(len(Z) for sums in blocks if len(sums.counts) == 3)
        return real(blocks, Z)

    monkeypatch.setattr(_kernels, "_loop", loop)
    bloch._ON_DRAW.clear()
    beta_estimate(d, psi, cfg)
    sigma_estimate(d, psi, cfg)
    assert sum(rows) == cfg.samples


def test_b0_star_verdict_draws_each_boundary_rung_once(monkeypatch, fast_cfg):
    real = bloch.sample_near_distinguished_boundary
    draws = []

    def spy(d, count, eps, seed):
        draws.append((count, eps, seed))
        return real(d, count, eps, seed)

    monkeypatch.setattr(bloch, "sample_near_distinguished_boundary", spy)
    for psi in (coordinate(1, 2), parse_symbol("z1^2 + 0.3*z1*z2", 2)):
        draws.clear()
        rep = boundedness_verdict(ball(2), psi, fast_cfg, space="B0*")
        assert len(draws) == len(set(draws)) == len(rep.eps)


def test_constant_components_do_not_read_the_config():
    d, psi = ball(2), constant(2.0 - 1.5j, 2)
    assert beta_estimate(d, psi, None) == EstimateInterval(0.0, 0.0, "exact")
    assert bloch_norm_estimate(d, psi, None) == EstimateInterval(2.5, 2.5, "exact")
    nb = norm_bounds(d, psi, None, space="B0*")
    assert (nb.lower, nb.upper, nb.sigma.upper) == (2.5, 2.5, 0.0)


@pytest.mark.parametrize("k_max", [0, -3, 65, 10**9])
def test_isometry_depth_is_checked_before_any_work(k_max):
    # a constant symbol would otherwise be answered at once, and a depth of
    # 10**9 would list 10**9 modulus powers
    start = time.perf_counter()
    for psi in (parse_symbol("0.5+0.4*z1", 2), constant(1.0, 2)):
        with pytest.raises(UsageError, match=r"k_max must lie in \[1, 64\]"):
            isometry_verdict(ball(2), psi, None, k_max=k_max)
    assert time.perf_counter() - start < 0.1


def test_isometry_depth_at_the_degree_cap(tiny_cfg):
    rep = isometry_verdict(ball(2), parse_symbol("0.5+0.4*z1", 2), tiny_cfg, k_max=64)
    assert len(rep.modulus_powers) == 64
    assert rep.modulus_powers[-1] == pytest.approx(abs(0.5) ** 64, rel=1e-12)
    assert rep.power_betas.keys() == {1, 2, 4, 8, 16}


@pytest.mark.parametrize("spec,text", [
    # the term cap: psi^16 would have C(21, 5) = 20349 terms
    ("ball:5", "0.5 + 0.05*(z1 + z2 + z3 + z4 + z5)"),
    # the degree cap: 5 * 16 > 64
    ("ball:2", "0.5 + 0.1*z1^5 + 0.2*z1*z2^2"),
])
def test_power_ladder_stops_where_the_expansion_would(spec, text, tiny_cfg):
    d = parse_domain(spec)
    psi = parse_symbol(text, d.ambient_dim)
    start = time.perf_counter()
    rep = isometry_verdict(d, psi, tiny_cfg)
    assert time.perf_counter() - start < 1.0
    assert set(rep.power_betas) == {1, 2, 4, 8}
    assert isometry_verdict(d, psi, tiny_cfg, k_max=5).power_betas.keys() == {1, 2, 4}
    # the rungs are those whose expansion stays within the caps
    combine("power", psi, 8)
    with pytest.raises(UsageError):
        combine("power", psi, 16)


# ---------------------------------------------------------------- spectra


def test_spectrum_constant_is_singleton():
    from blochkit import SamplingConfig

    cloud = spectrum_cloud(disk(), constant(5.0, 1), SamplingConfig(samples=300, seed=1))
    assert cloud.is_singleton
    assert cloud.hull_area == pytest.approx(0.0)
    assert cloud.distance(5.0) == pytest.approx(0.0)
    assert cloud.distance(0.0) == pytest.approx(5.0)
    assert cloud.resolvent_scale(0.0, 2.0) == pytest.approx(2.0 / 25.0)
    assert math.isinf(cloud.resolvent_scale(5.0, 2.0))


def test_spectrum_square_fills_disk():
    from blochkit import SamplingConfig

    cloud = spectrum_cloud(disk(), mkpoly(1, {(2,): 1.0}), SamplingConfig(samples=60000, seed=3))
    assert not cloud.is_singleton
    mods = np.abs(cloud.points)
    assert mods.max() < 1.0
    counts, empty = grid_coverage(cloud.points, radius=0.95, n=20)
    assert empty == 0
    assert counts.sum() > 0
    assert 3.0 <= cloud.hull_area <= math.pi


def test_spectrum_points_are_range_values():
    from blochkit import SamplingConfig, evaluate

    psi = mkpoly(1, {(1,): 0.5, (0,): 0.25})
    cfg = SamplingConfig(samples=500, seed=9)
    cloud = spectrum_cloud(disk(), psi, cfg)
    Z = sample_interior(disk(), 500, seed=9)
    for z in Z[:50]:
        expected = complex(evaluate(psi, z))
        assert np.abs(cloud.points - expected).min() <= 1e-12


def test_spectrum_collinear_cloud_keeps_its_two_ends():
    # every real part of 1e20 + z rounds to 1e20, so the cloud is a segment
    cloud = spectrum_cloud(disk(), mkpoly(1, {(0,): 1e20, (1,): 1.0}),
                           SamplingConfig(samples=50000, seed=1))
    ims = cloud.points.imag
    assert not cloud.is_singleton and np.all(cloud.points.real == 1e20)
    assert cloud.hull_area == 0.0
    assert cloud.hull_vertices.tolist() == [complex(1e20, ims.min()), complex(1e20, ims.max())]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
def test_spectrum_at_the_end_of_the_float_range():
    cfg = SamplingConfig(samples=2000)
    with pytest.raises(NumericalDomainError):
        spectrum_cloud(disk(), parse_symbol("1e308 + 1e308*z1", 1), cfg)
    # finite values whose hull area is not
    cloud = spectrum_cloud(disk(), parse_symbol("1e200*z1", 1), cfg)
    assert cloud.hull_area == np.finfo(float).max and len(cloud.hull_vertices) > 3


def _qhull(xy):
    """(vertex rows counterclockwise from the least (x, y), area) of
    qhull's hull of xy, None when qhull rejects the cloud."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(xy)
    except QhullError:
        return None
    rows = xy[hull.vertices]
    start = min(range(len(rows)), key=lambda k: tuple(rows[k]))
    return np.roll(rows, -start, axis=0), hull.volume


def _floor_area(rows):
    """The shoelace area of the polygon through rows, counterclockwise,
    in Fractions, rounded down to a float."""
    pts = [(Fraction(x), Fraction(y)) for x, y in rows.tolist()]
    exact = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])) / 2
    area = float(exact)
    return math.nextafter(area, 0.0) if Fraction(area) > exact else area


def _exact_hull(xy):
    """Andrew's monotone chain in Fractions, one point at a time: the
    vertex rows counterclockwise from the least (x, y)."""
    pts = sorted(set(map(tuple, xy.tolist())))

    def turn(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = [(Fraction(u), Fraction(v)) for u, v in (o, a, b)]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return pts if len(pts) < 3 else chain(pts)[:-1] + chain(pts[::-1])[:-1]


def _clouds(rng):
    for k in range(60):
        m = int(rng.integers(3, 40)) if k % 3 == 0 else int(rng.integers(40, 20000))
        kind = k % 5
        if kind == 0:
            xy = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-6, 6)
        elif kind == 1:
            z = np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
            v = np.polyval(rng.standard_normal(5) + 1j * rng.standard_normal(5), z)
            xy = np.column_stack([v.real, v.imag])
        elif kind == 2:
            # a small square far from the origin
            xy = rng.random((m, 2)) + rng.uniform(-1e4, 1e4, 2)
        elif kind == 3:
            # gridded, with duplicates and collinear points on the hull
            xy = rng.integers(-5, 6, (m, 2)) * 0.1
        else:
            xy = np.round(rng.standard_normal((m, 2)), 1)
        yield xy
    line = np.arange(12.0)
    yield np.zeros((12, 2))
    yield np.column_stack([line, 3.0 * line - 1.0])
    yield np.column_stack([line, np.zeros(12)])
    yield np.array([[0.0, 0.0], [1.0, 0.0]])
    yield np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    yield np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])


def _edge_clouds():
    """Clouds whose hulls a float orientation test can get wrong."""
    rng = np.random.default_rng(5)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # exact duplicates of hull vertices; (0, 0) only after the inner points
    yield np.concatenate([square[1:], rng.random((30, 2)), square[[2, 0, 2, 0]]])
    # rows within rounding of the line y = 0.1 x + 0.3 and mostly off it
    t = np.linspace(0.0, 1.0, 40)
    line = np.column_stack([t, 0.1 * t + 0.3])
    yield line
    yield np.concatenate([line, [[0.5, -1.0]], rng.random((30, 2)) * [1.0, 0.3] - [0.0, 0.5]])
    k = np.arange(1.0, 30.0)
    yield np.column_stack([0.1 * k, 0.3 * k])
    yield np.column_stack([np.concatenate([0.1 * k, [1.0]]), np.concatenate([0.7 * k, [0.0]])])
    yield np.full((7, 2), 0.3)
    yield np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2]])
    # small enough that the products underflow, with vertical edges, and
    # then that they underflow to zero
    for scale in (1e-160, 1e-170):
        yield np.concatenate([line, [[0.0, -1.0], [1.0, -1.0]]]) * scale


def test_hull_prefilter_keeps_qhulls_hull_bitwise():
    # the candidates' hull has the same vertices, in the same order and
    # the same twin among exact duplicates, and the same area bits
    from blochkit.operators import _hull, _hull_candidates

    for xy in (*_clouds(np.random.default_rng(17)), *_edge_clouds()):
        keep = _hull_candidates(xy)
        assert np.all(np.diff(keep) > 0)
        verts, area = _hull(xy[keep])
        whole, whole_area = _hull(xy)
        assert np.array_equal(keep[verts], whole)
        assert np.float64(area).tobytes() == np.float64(whole_area).tobytes()


def test_hull_is_exact_on_near_degenerate_clouds():
    from blochkit.operators import _hull

    for xy in _edge_clouds():
        verts, area = _hull(xy)
        assert xy[verts].tolist() == [list(p) for p in _exact_hull(xy)]
        # the first of exact duplicates
        assert all((xy[:k] != xy[k]).any(axis=1).all() for k in verts)
        assert area == (_floor_area(xy[verts]) if len(verts) > 2 else 0.0)


# ten terms of degree up to five in three variables, as in the scan workload
SCAN_LIKE = ("(0.2-0.1i) + (0.5+0.3i)*z1 + (-0.4+0.2i)*z2 + (0.3-0.6i)*z3 + (0.1+0.7i)*z1*z2"
             " + (-0.5-0.2i)*z2*z3 + (0.6+0.1i)*z1^2 + (-0.2+0.4i)*z3^2 + (0.3+0.3i)*z1*z2*z3"
             " + (0.4-0.5i)*z2^3",
             "(0.1+0.4i)*z1 + (0.3-0.2i)*z2^2 + (-0.4-0.1i)*z3^2 + (0.2+0.2i)*z1*z3"
             " + (-0.3+0.5i)*z1^2*z2 + (0.5+0.1i)*z2^3*z3 + (0.1-0.3i)*z1*z2^2*z3"
             " + (0.4+0.2i)*z3^4 + (-0.2-0.4i)*z1^5 + (0.3+0.1i)*z1*z2^2*z3^2")


def test_spectrum_cloud_hull_matches_plain_qhull():
    # the vertices are qhull's, counterclockwise from the least (x, y);
    # the area is theirs exactly, rounded down, where qhull's can be off
    # by a few ulp either way
    from blochkit.operators import _hull

    domains = (ball(3), polydisk(3), parse_domain("product(ball:2,disk)"))
    cases = [(SamplingConfig(samples=20000, seed=11, refine_restarts=0),
              "(0.5+0.3i)*z1 + (-0.4+0.2i)*z2^2 + (0.3+0.3i)*z1*z2*z3", domains[:2])]
    cases += [(SamplingConfig(samples=50000, seed=12, refine_restarts=0), text, domains)
              for text in SCAN_LIKE]
    hulls = []
    for cfg, text, ds in cases:
        psi = parse_symbol(text, 3)
        for d in ds:
            cloud = spectrum_cloud(d, psi, cfg)
            rows = np.column_stack([cloud.hull_vertices.real, cloud.hull_vertices.imag])
            hulls.append((np.column_stack([cloud.points.real, cloud.points.imag]),
                          rows, cloud.hull_area))
    for xy in _clouds(np.random.default_rng(17)):
        verts, area = _hull(xy)
        hulls.append((xy, xy[verts], area))
    for xy, rows, area in hulls:
        plain = _qhull(xy)
        if plain is None:  # the cloud is a point or a segment
            assert len(rows) < 3 and area == 0.0
            continue
        assert np.array_equal(rows, plain[0])
        assert area == _floor_area(rows)
        assert abs(area - plain[1]) <= 1e-12 * area


def test_grid_coverage_synthetic():
    half = 0.95 / math.sqrt(2.0)
    xs = (np.arange(20) + 0.5) * (2 * half / 20) - half
    full = (xs[None, :] + 1j * xs[:, None]).ravel()
    _, empty = grid_coverage(full, radius=0.95, n=20)
    assert empty == 0
    _, lonely = grid_coverage(np.array([0.1 + 0.1j]), radius=0.95, n=20)
    assert lonely == 399


# ---------------------------------------------------------------- compactness


def test_compactness_zero_symbol(fast_cfg):
    rep = compactness_verdict(disk(), constant(0.0, 1), fast_cfg)
    assert rep.verdict == "compact"


def test_compactness_nonzero_constant(fast_cfg):
    rep = compactness_verdict(disk(), constant(5.0, 1), fast_cfg)
    assert rep.verdict == "not-compact"
    assert "singleton" in rep.witness["reason"]


def test_compactness_two_point_witness(fast_cfg):
    rep = compactness_verdict(ball(2), coordinate(1, 2), fast_cfg)
    assert rep.verdict == "not-compact"
    for key in ("point_a", "value_a", "point_b", "value_b"):
        assert key in rep.witness


def test_compactness_evidence_for_vanishing_symbol(fast_cfg):
    tiny = LogFrac(2, 1, 1e-13, "f")
    rep = compactness_verdict(ball(2), tiny, fast_cfg)
    assert rep.verdict == "compact-evidence"


# ---------------------------------------------------------------- isometry


def test_isometry_unimodular_constant(tiny_cfg):
    rep = isometry_verdict(ball(2), constant(0.6 + 0.8j, 2), tiny_cfg)
    assert rep.verdict == "isometry"
    rep2 = isometry_verdict(ball(2), constant(0.5, 2), tiny_cfg)
    assert rep2.verdict == "not-isometry"


def test_isometry_ceiling_route_with_power_crossing(tiny_cfg):
    psi = mkpoly(2, {(0, 0): 0.5, (1, 0): 0.4})
    rep = isometry_verdict(ball(2), psi, tiny_cfg, k_max=16)
    assert rep.verdict == "not-isometry"
    assert rep.ceiling == pytest.approx(math.sqrt(2.0 / 3.0))
    assert rep.modulus_at_zero == pytest.approx(0.5)
    assert rep.crossing_k == 3  # 0.5^3 drops below 1 - ceiling
    assert set(rep.power_betas) == {1, 2, 4, 8, 16}


def test_isometry_coordinate_crosses_immediately(tiny_cfg):
    rep = isometry_verdict(ball(2), coordinate(1, 2), tiny_cfg)
    assert rep.verdict == "not-isometry"
    assert rep.crossing_k == 1


def test_isometry_ambiguous_constant_raises(tiny_cfg):
    psi = mkpoly(16, {(1,) + (0,) * 15: 1.0})
    with pytest.raises(AmbiguousConstantError):
        isometry_verdict(exceptional16(), psi, tiny_cfg)


def test_isometry_disk_factor_branch(tiny_cfg):
    z1 = coordinate(1, 2)
    rep = isometry_verdict(polydisk(2), z1, tiny_cfg)
    assert rep.verdict == INCONCLUSIVE
    big = mkpoly(2, {(1, 0): 2.0})
    rep2 = isometry_verdict(polydisk(2), big, tiny_cfg)
    assert rep2.verdict == "not-isometry-evidence"
    assert "sup-norm" in rep2.reason
    small = mkpoly(2, {(1, 0): 0.2})
    rep3 = isometry_verdict(polydisk(2), small, tiny_cfg)
    assert rep3.verdict == "not-isometry-evidence"
    assert "below one" in rep3.reason


# ---------------------------------------------------------------- combined report


def test_operator_report_structure(fast_cfg):
    rep = operator_report(disk(), coordinate(1, 1), "z1", fast_cfg)
    assert set(rep.verdicts.keys()) == {
        "boundedness",
        "norm_lower",
        "norm_upper_B",
        "norm_upper_B0*",
    }
    assert rep.sigma0.lower <= rep.sigma.upper + 1e-9
    d = rep.as_dict()
    assert d["symbol"] == "z1"
    assert d["domain"] == "disk"
