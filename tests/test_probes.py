import numpy as np
import pytest

from blochkit import SamplingConfig, ball, cartan1, coordinate, disk, polydisk, run_probe
from blochkit.errors import UnsupportedDomainError, UsageError
from blochkit.probes import PROBES


CFG = SamplingConfig(samples=400, seed=3, refine_restarts=1, refine_iters=10)


def test_probe_names():
    assert set(PROBES) == {
        "omega-vs-rho",
        "omega-vs-omega0",
        "omega0-blowup",
        "norm-sharpness",
    }


def test_unknown_probe_rejected():
    with pytest.raises(UsageError):
        run_probe("nonsense", ball(2), CFG)


def test_probe_requires_metric_domain():
    with pytest.raises(UnsupportedDomainError):
        run_probe("omega-vs-rho", cartan1(2, 2), CFG)


def test_omega_vs_rho_intervals():
    from blochkit.probes import probe_omega_vs_rho

    rep = probe_omega_vs_rho(polydisk(2), CFG, npoints=8)
    assert rep.verdicts["probe"] == "exploratory"
    assert rep.results
    for row in rep.results:
        if row.lower is None or row.upper is None:
            continue
        assert row.lower <= row.upper + 1e-9
        # growth witness never exceeds the distance upper bound
        assert row.value <= row.upper + 1e-6


def test_omega_vs_omega0_little_close_to_full_on_ball():
    rep = run_probe("omega-vs-omega0", ball(2), CFG)
    assert len(rep.results) > 0
    for row in rep.results:
        assert row.lower <= row.value + 1e-9  # little variant below the full one
        assert row.lower >= 0.95 * row.value - 1e-9


def test_omega0_blowup_rows():
    rep = run_probe("omega0-blowup", disk(), CFG)
    assert rep.results
    for row in rep.results:
        assert "eps=" in row.name
        if row.lower is not None and row.upper is not None:
            assert row.lower <= row.upper + 1e-12


@pytest.mark.parametrize("d", [ball(2), polydisk(2)])
def test_omega0_blowup_keeps_each_direction_along_the_ladder(d, monkeypatch):
    from blochkit import probes

    seen = []

    def record(d, z, **kw):
        seen.append(z)
        return 0.0

    monkeypatch.setattr(probes, "omega_empirical_lower", record)
    ladder, ndirs = (0.3, 0.03, 0.003), 5
    probes.probe_omega0_blowup(d, CFG, ladder, ndirs)
    Z = np.array(seen).reshape(len(ladder), ndirs, -1)
    for k, eps in enumerate(ladder):
        # point j of rung k is point j of the first rung times a positive scale
        scale = (1.0 - eps) / (1.0 - ladder[0])
        np.testing.assert_allclose(Z[k], Z[0] * scale, rtol=0, atol=1e-15)
    for bad in ((0.1, 1.0), ()):
        with pytest.raises(UsageError):
            probes.probe_omega0_blowup(d, CFG, bad)


def test_norm_sharpness_gap_nonnegative():
    rep = run_probe(
        "norm-sharpness", ball(2), CFG, psi=coordinate(1, 2), symbol_text="z1"
    )
    rows = {r.name: r for r in rep.results}
    assert "gap-upper-minus-empirical" in rows
    assert rows["gap-upper-minus-empirical"].value >= -1e-9
    assert rows["empirical-lower"].value <= rows["sandwich-upper"].value + 1e-9
    assert rows["sandwich-lower"].value <= rows["empirical-lower"].value + 1e-9
