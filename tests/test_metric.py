import math

import numpy as np
import pytest

from blochkit import (
    ball,
    bergman_metric,
    cartan1,
    disk,
    metric_matrix,
    path_length,
    polydisk,
    product,
    rho_from_origin,
    sample_interior,
    segment_from_origin,
)
from blochkit.domains import _METRIC_KINDS
from blochkit.errors import OutsideDomainError, UnsupportedMetricError, UsageError
from blochkit.metric import (
    _GEOMETRY,
    HermitianMetric,
    PiecewisePath,
    geometry,
    metric_form,
    omega_upper_closed,
)


# ---------------------------------------------------------------- matrices


def test_metric_matrix_disk():
    np.testing.assert_allclose(metric_matrix(disk(), 0.0), [[1.0]], atol=1e-14)
    np.testing.assert_allclose(metric_matrix(disk(), 0.5), [[(1 - 0.25) ** -2]], atol=1e-14)


def test_metric_matrix_polydisk():
    M = metric_matrix(polydisk(2), (0.5, 0.0))
    np.testing.assert_allclose(M, np.diag([16.0 / 9.0, 1.0]), atol=1e-14)


def test_metric_matrix_ball():
    np.testing.assert_allclose(metric_matrix(ball(2), (0.0, 0.0)), np.eye(2), atol=1e-14)
    r = 0.6
    M = metric_matrix(ball(2), (r, 0.0))
    s = 1 - r * r
    np.testing.assert_allclose(M, np.diag([1 / s**2, 1 / s]), atol=1e-12)


def test_metric_matrix_product_block_diagonal():
    d = product(ball(2), disk())
    z = np.array([0.3, 0.2j, 0.5], dtype=complex)
    M = metric_matrix(d, z)
    assert M.shape == (3, 3)
    np.testing.assert_allclose(M[:2, 2], 0.0, atol=1e-14)
    np.testing.assert_allclose(M[2, :2], 0.0, atol=1e-14)
    np.testing.assert_allclose(M[:2, :2], metric_matrix(ball(2), z[:2]), atol=1e-13)
    np.testing.assert_allclose(M[2, 2], metric_matrix(disk(), z[2])[0, 0], atol=1e-13)


def test_metric_hermitian_positive_definite_sampled():
    for d in (ball(3), polydisk(2), product(ball(2), disk())):
        for z in sample_interior(d, 25, seed=8):
            M = metric_matrix(d, z)
            np.testing.assert_allclose(M, M.conj().T, atol=1e-10)
            assert np.linalg.eigvalsh(M).min() > 0


def test_metric_form_matches_matrix():
    rng = np.random.default_rng(5)
    for d in (disk(), ball(2), ball(3), polydisk(3), product(ball(2), disk())):
        n = d.ambient_dim
        U = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        for z in sample_interior(d, 10, seed=9):
            M = metric_matrix(d, z)
            expected = np.real(np.einsum("ki,ij,kj->k", U.conj(), M, U))
            for u, e in zip(U, expected):
                assert metric_form(d, z, u) == pytest.approx(e, rel=1e-12)
            np.testing.assert_allclose(geometry(d).form(z, U), expected, rtol=1e-12)


def test_geometry_table_covers_the_metric_kinds():
    assert set(_GEOMETRY) == _METRIC_KINDS


def test_bergman_metric_object():
    m = bergman_metric(ball(2), (0.1, 0.2))
    u = np.array([1.0, 1j])
    assert m.form(u) > 0
    np.testing.assert_allclose(m.matrix, metric_matrix(ball(2), (0.1, 0.2)), atol=1e-14)


def test_hermitian_metric_validation():
    with pytest.raises(UsageError):
        HermitianMetric(np.zeros(2, dtype=complex), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(UsageError):
        HermitianMetric(np.zeros(2, dtype=complex), np.diag([1.0, -0.5]))


def test_metric_unsupported_domain():
    with pytest.raises(UnsupportedMetricError):
        metric_matrix(cartan1(2, 2), np.zeros(4, dtype=complex))


# ---------------------------------------------------------------- paths


def test_disk_radial_length_is_arctanh():
    for r in (0.1, 0.5, 0.7, 0.95):
        seg = segment_from_origin(disk(), r)
        assert path_length(disk(), seg) == pytest.approx(math.atanh(r), abs=1e-6)


def test_ball_radial_length():
    seg = segment_from_origin(ball(2), np.array([0.6, 0.0], dtype=complex))
    assert path_length(ball(2), seg) == pytest.approx(math.atanh(0.6), abs=1e-6)


def test_degenerate_path_has_zero_length():
    assert path_length(disk(), PiecewisePath(((0.3,), (0.3,)))) == pytest.approx(0.0, abs=1e-12)


def test_path_additivity():
    p01 = PiecewisePath.through([(0.0,), (0.3,)])
    p12 = PiecewisePath.through([(0.3,), (0.3 + 0.4j,)])
    whole = PiecewisePath.through([(0.0,), (0.3,), (0.3 + 0.4j,)])
    total = path_length(disk(), p01) + path_length(disk(), p12)
    assert path_length(disk(), whole) == pytest.approx(total, abs=1e-7)


def test_path_validation_errors():
    with pytest.raises(UsageError):
        PiecewisePath.through([(0.0,)])
    with pytest.raises(UsageError):
        path_length(disk(), PiecewisePath(((0.0, 0.0), (0.2, 0.2))))
    with pytest.raises(OutsideDomainError):
        path_length(disk(), PiecewisePath(((0.0,), (1.2,))))
    with pytest.raises(UnsupportedMetricError):
        path_length(cartan1(2, 2), PiecewisePath((tuple(np.zeros(4)), tuple(0.1 * np.ones(4)))))


def test_polydisk_segment_bounded_by_coordinate_sum():
    z = np.array([0.5, 0.5], dtype=complex)
    seg = segment_from_origin(polydisk(2), z)
    length = path_length(polydisk(2), seg)
    assert length <= 2 * math.atanh(0.5) + 1e-9
    assert length >= math.atanh(0.5) - 1e-9


# ---------------------------------------------------------------- distance


def test_rho_exact_on_disk_and_ball():
    est = rho_from_origin(disk(), 0.5)
    assert est.mode == "exact"
    assert est.lower == pytest.approx(math.atanh(0.5), abs=1e-12)
    est2 = rho_from_origin(ball(2), (0.3, 0.4))
    assert est2.lower == est2.upper == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_rho_interval_on_polydisk():
    est = rho_from_origin(polydisk(2), (0.5, 0.5))
    assert est.mode == "analytic-bounds"
    assert est.lower == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert est.lower <= est.upper
    assert est.upper <= 2 * math.atanh(0.5) + 1e-9


def test_rho_axis_point_interval_is_tight():
    est = rho_from_origin(polydisk(2), (0.5, 0.0))
    assert est.lower == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert est.upper - est.lower <= 2e-8


def test_rho_path_optimization_never_increases_upper():
    base = rho_from_origin(polydisk(2), (0.4, 0.3j))
    opt = rho_from_origin(polydisk(2), (0.4, 0.3j), optimize_path=True)
    assert opt.upper <= base.upper + 1e-12
    assert opt.lower == pytest.approx(base.lower, abs=1e-12)


# ---------------------------------------------------------------- closed upper bounds


def test_omega_upper_closed():
    assert omega_upper_closed(disk(), 0.7) == pytest.approx(math.atanh(0.7), abs=1e-12)
    assert omega_upper_closed(ball(2), (0.3, 0.4)) == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert omega_upper_closed(polydisk(2), (0.5, 0.5)) == pytest.approx(
        2 * math.atanh(0.5), abs=1e-12
    )
    d = product(ball(2), disk())
    z = np.array([0.3, 0.4, 0.25], dtype=complex)
    expected = math.atanh(0.5) + math.atanh(0.25)
    assert omega_upper_closed(d, z) == pytest.approx(expected, abs=1e-12)
