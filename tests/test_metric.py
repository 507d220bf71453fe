import math
import time

import mpmath
import numpy as np
import pytest
from scipy import integrate

from blochkit import (
    ball,
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
from blochkit.domains import _ROWS, EIG_MARGIN, Kind, contains
from blochkit.errors import OutsideDomainError, UnsupportedMetricError, UsageError
from blochkit.metric import (
    _GEOMETRY,
    QUAD_ABS_TOL,
    PiecewisePath,
    _outside,
    geometry,
)

METRIC_DOMAINS = (disk(), ball(3), polydisk(3), product(ball(2), disk()))


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
    for d in (ball(2),) + METRIC_DOMAINS:
        n = d.ambient_dim
        U = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        for z in sample_interior(d, 10, seed=9):
            M = metric_matrix(d, z)
            expected = np.real(np.einsum("ki,ij,kj->k", U.conj(), M, U))
            for u, e in zip(U, expected):
                assert float(geometry(d).form(z, u)) == pytest.approx(e, rel=1e-12)
            np.testing.assert_allclose(geometry(d).form(z, U), expected, rtol=1e-12)
        # a (k, m, n) stack of points against a (k, 1, n) stack of directions
        Z = sample_interior(d, 12, seed=10).reshape(3, 4, n)
        H = geometry(d).form(Z, U[:3, None, :])
        assert H.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            e = np.real(np.vdot(U[i], metric_matrix(d, Z[i, j]) @ U[i]))
            assert H[i, j] == pytest.approx(e, rel=1e-12)


def test_domain_table_covers_the_kinds_and_geometry_the_gauges():
    # one row per kind but the product, which composes its factors' rows
    assert set(_ROWS) == set(Kind) - {Kind.PRODUCT}
    assert set(_GEOMETRY) == {k for k, row in _ROWS.items() if row.gauge is not None}


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


def _reference_length(d, nodes):
    form = geometry(d).form
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        u = b - a
        val, _ = integrate.quad(lambda t: float(form(a + t * u, u)) ** 0.5, 0.0, 1.0,
                                epsabs=1e-12, epsrel=0.0, limit=500)
        total += val
    return total


@pytest.mark.parametrize("d", METRIC_DOMAINS, ids=str)
def test_path_length_matches_reference_quadrature(d):
    for nseg in (1, 3, 9):
        for seed in range(4):
            nodes = sample_interior(d, nseg + 1, seed=100 * nseg + seed)
            got = path_length(d, PiecewisePath.through(nodes))
            assert got == pytest.approx(_reference_length(d, nodes), abs=QUAD_ABS_TOL)


def test_radial_lengths_near_the_boundary():
    d = ball(2)
    for r in (0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8, 1 - 1e-9):
        length = path_length(d, segment_from_origin(d, np.array([r, 0.0])))
        assert length == pytest.approx(math.atanh(r), abs=QUAD_ABS_TOL)


@pytest.mark.parametrize("d", METRIC_DOMAINS, ids=str)
def test_batched_membership_matches_contains(d):
    n = d.ambient_dim
    geo = geometry(d)
    edge = 1.0 - EIG_MARGIN

    def directions(rng, count):
        raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        return raw / geo.gauge(raw)[:, None]  # gauge is 1-homogeneous

    rng = np.random.default_rng(12)
    unit = directions(rng, 10_000)
    radii = rng.uniform(0.95, 1.05, len(unit))
    radii[:2000] = edge + rng.choice([-1e-9, 1e-9, -1e-13, 1e-13], 2000)
    # and radii within 4 ulps of the edge, where rounding decides
    rng = np.random.default_rng(5)
    near = directions(rng, 4000)
    ulps = rng.integers(-4, 5, len(near))
    Z = np.vstack([radii[:, None] * unit,
                   (edge + ulps * np.spacing(edge))[:, None] * near])
    expected = np.array([not contains(d, z) for z in Z])
    np.testing.assert_array_equal(_outside(geo, Z), expected)
    assert 0 < expected.sum() < len(Z)


def _line_interval(d, z, e, step=0.25, iters=40):
    """Bisection reference for the chord: the feasible t-range of z + t e,
    each end the last parameter `contains` admitted."""
    def inside(t):
        return contains(d, z + t * e)

    def edge(sign):
        t_in, t_out = 0.0, sign * step
        while inside(t_out):
            t_in, t_out = t_out, t_out * 2.0
            if abs(t_out) > 8.0:
                break
        for _ in range(iters):
            mid = 0.5 * (t_in + t_out)
            if inside(mid):
                t_in = mid
            else:
                t_out = mid
        return t_in

    return edge(-1.0), edge(1.0)


@pytest.mark.parametrize("d", METRIC_DOMAINS, ids=str)
def test_chord_matches_bisection(d):
    rng = np.random.default_rng(31)
    n = d.ambient_dim
    geo = geometry(d)
    raw = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    unit = raw / geo.gauge(raw)[:, None]
    Z = np.vstack([np.zeros(n), 0.5 * unit[0], (1.0 - 1e-9) * unit[1]])
    axes = np.vstack([np.eye(n), 1j * np.eye(n)])
    dirs = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for e in np.vstack([axes, dirs / np.linalg.norm(dirs, axis=1)[:, None]]):
        lo, hi = geo.chord(Z, e)
        for z, a, b in zip(Z, lo, hi):
            ref = _line_interval(d, z, e, iters=52)
            assert contains(d, z + a * e) and contains(d, z + b * e)
            assert abs(a - ref[0]) <= 1e-12 and abs(b - ref[1]) <= 1e-12
            assert not contains(d, z + (a - 1e-9) * e)
            assert not contains(d, z + (b + 1e-9) * e)


def test_path_with_one_node_outside_raises():
    d = polydisk(2)
    nodes = [(0.0, 0.0), (0.5, 0.2j), (0.3, 1.01), (0.1, 0.1)]
    with pytest.raises(OutsideDomainError):
        path_length(d, PiecewisePath.through(nodes))


def test_path_length_returns_promptly_at_the_edge():
    # a quadrature point this close to the boundary is rounded by about
    # 1e-16 / 1e-11 of its distance from it, which limits the accuracy
    r = 1 - 1e-11
    start = time.perf_counter()
    length = path_length(disk(), segment_from_origin(disk(), r))
    assert time.perf_counter() - start < 1.0
    assert length == pytest.approx(math.atanh(r), abs=1e-6)


@pytest.mark.xfail(strict=True, reason="rounding of quadrature points this close to "
                                       "the boundary exceeds the quadrature tolerance")
def test_path_length_stays_on_the_upper_side_at_the_edge():
    r = 1 - 1e-11
    length = path_length(disk(), segment_from_origin(disk(), r))
    assert length >= math.atanh(r) - QUAD_ABS_TOL


# ---------------------------------------------------------------- distance


def test_rho_exact_on_disk_and_ball():
    est = rho_from_origin(disk(), 0.5)
    assert est.mode == "exact"
    assert est.lower == pytest.approx(math.atanh(0.5), abs=1e-12)
    est2 = rho_from_origin(ball(2), (0.3, 0.4))
    assert est2.lower == est2.upper == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_rho_interval_on_polydisk():
    est = rho_from_origin(polydisk(2), (0.5, 0.5))
    assert est.mode == "exact"
    assert est.lower == est.upper == pytest.approx(math.sqrt(2) * math.atanh(0.5), rel=1e-12)


def test_rho_axis_point_interval_is_tight():
    est = rho_from_origin(polydisk(2), (0.5, 0.0))
    assert est.lower == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert est.upper - est.lower <= 2e-8


def test_rho_optimize_path_keyword_is_ignored():
    base = rho_from_origin(polydisk(2), (0.4, 0.3j))
    opt = rho_from_origin(polydisk(2), (0.4, 0.3j), optimize_path=True)
    assert opt.lower.hex() == base.lower.hex()
    assert opt.upper.hex() == base.upper.hex()


# ---------------------------------------------------------------- closed-form distance

def _blocks(d):
    """Column ranges of the disk and ball factors, one per polydisk coordinate."""
    for s, t, f in d.factor_slices():
        yield from ([(k, k + 1) for k in range(s, t)] if f.kind.value == "polydisk"
                    else [(s, t)])


def _mp_distance(d, a, b):
    """Bergman distance from the float inputs: l2 over the factors of
    arctanh of the Moebius pseudo-distance, with 1 - |phi_a(b)|^2 from
    Rudin's identity. 2000-bit arithmetic keeps 200 bits after its
    cancellation down to |phi|^2 of about 1e-540."""
    with mpmath.workprec(2000):
        total = mpmath.mpf(0)
        for i, j in _blocks(d):
            x = [mpmath.mpc(complex(c)) for c in a[i:j]]
            y = [mpmath.mpc(complex(c)) for c in b[i:j]]
            xx = mpmath.fsum(abs(c) ** 2 for c in x)
            yy = mpmath.fsum(abs(c) ** 2 for c in y)
            yx = mpmath.fsum(p * mpmath.conj(q) for p, q in zip(y, x))
            phi2 = 1 - (1 - xx) * (1 - yy) / abs(1 - yx) ** 2
            total += mpmath.atanh(mpmath.sqrt(phi2)) ** 2
        return mpmath.sqrt(total)


def _factor_points(d, rng, count, radius):
    """Rows with every factor (every polydisk coordinate) of euclidean size
    uniform in [0, radius] and the size `radius` itself in the first row."""
    Z = np.zeros((count, d.ambient_dim), dtype=complex)
    for i, j in _blocks(d):
        u = rng.standard_normal((count, j - i)) + 1j * rng.standard_normal((count, j - i))
        r = rng.uniform(0.0, radius, count)
        r[0] = radius
        Z[:, i:j] = r[:, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
    return Z


@pytest.mark.parametrize("d", METRIC_DOMAINS, ids=str)
def test_distance_matches_mpmath(d):
    rng = np.random.default_rng(5)
    n = d.ambient_dim
    A = _factor_points(d, rng, 40, 0.9995)
    B = _factor_points(d, rng, 40, 0.9995)
    near = A[:20] + 1e-9 * (rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))) / 2
    edge = np.zeros(n, dtype=complex)
    edge[0] = 1 - 1e-11
    half = np.zeros(n, dtype=complex)
    half[0] = -0.5
    pairs = ([(a, b) for a, b in zip(A, B)]  # factor sizes up to 0.9995
             + [(a, b) for a, b in zip(A[:20], near)]  # pairs about 1e-9 apart
             + [(np.zeros(n), b) for b in B[:20]]  # from the origin
             + [(np.zeros(n), 1e-200 * b) for b in B[1:6]]  # |z|^2 would underflow
             + [(np.zeros(n), edge), (half, edge), (edge, half)])
    geo = geometry(d)
    for a, b in pairs:
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        assert contains(d, a) and contains(d, b)
        ref = _mp_distance(d, a, b)
        got = [float(geo.distance(b.reshape(1, -1), a.reshape(1, -1))[0])]
        if not a.any():
            got.append(float(geo.distance(b.reshape(1, -1))[0]))
        for value in got:
            assert abs(value - ref) <= 1e-12 * ref, (a, b, value, ref)


def test_distance_from_origin_is_arctanh_of_the_norm_on_disk_and_ball():
    # growth is distance(0, .), and on disk and ball it keeps the bits of
    # arctanh(np.linalg.norm(z))
    for d in (disk(), ball(2), ball(5)):
        Z = sample_interior(d, 5000, seed=3)
        expected = np.arctanh(np.linalg.norm(Z, axis=1))
        np.testing.assert_array_equal(geometry(d).growth(Z).view(np.uint64),
                                      expected.view(np.uint64))
