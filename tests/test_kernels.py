import numpy as np
import pytest

from blochkit import _kernels as kernels
from blochkit import backend_name, ball, sample_interior


def _random_case(seed, nterms=6, arity=3, npoints=40):
    rng = np.random.default_rng(seed)
    pows = rng.integers(0, 4, size=(nterms, arity)).astype(np.int64)
    coeffs = rng.standard_normal(nterms) + 1j * rng.standard_normal(nterms)
    Z = 0.4 * (rng.standard_normal((npoints, arity)) + 1j * rng.standard_normal((npoints, arity)))
    return pows, coeffs, Z


def _schedules(pows, coeffs, Z):
    """(values, gradients) from the power table and from the term loop,
    called directly whatever the point count."""
    jet = kernels._jet(*kernels._key(pows, coeffs))
    blocks = [jet.value, jet.grad]
    for vals, grad in (kernels._table(jet.powers, blocks, Z), kernels._loop(blocks, Z)):
        yield vals[:, 0], grad


def test_numpy_eval_matches_direct_sum():
    pows, coeffs, Z = _random_case(0)
    for vals, _ in _schedules(pows, coeffs, Z):
        for i in range(Z.shape[0]):
            direct = sum(c * np.prod(Z[i] ** p) for p, c in zip(pows, coeffs))
            assert vals[i] == pytest.approx(direct, rel=1e-12)


def test_numpy_grad_matches_finite_difference():
    pows, coeffs, Z = _random_case(1, npoints=10)
    for _, G in _schedules(pows, coeffs, Z):
        h = 1e-7
        for i in range(Z.shape[0]):
            for k in range(Z.shape[1]):
                e = np.zeros(Z.shape[1], dtype=complex)
                e[k] = h
                fp = kernels.poly_eval(pows, coeffs, (Z[i] + e)[None, :])[0]
                fm = kernels.poly_eval(pows, coeffs, (Z[i] - e)[None, :])[0]
                num = (fp - fm) / (2 * h)
                assert abs(num - G[i, k]) <= 1e-5 * max(1.0, abs(G[i, k]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _table_cases():
    rng = np.random.default_rng(7)
    limit = kernels.TABLE_MAX_POINTS
    for seed in range(3):
        yield _random_case(seed)
    # a constant with a negative-zero imaginary part (the in-order sum starts
    # from +0, so the value's imaginary part is +0), a constant term, a single term
    points = np.array([[0.0, 0.0], [0.3 - 0.2j, -0.1j]])
    yield np.array([[0, 0]]), np.array([complex(-1.0, -0.0)]), points
    yield np.array([[0, 0], [2, 1]]), np.array([complex(-1.0, -0.0), 0.5 + 2j]), points
    yield np.array([[3, 0, 1]]), np.array([2 - 1j]), 0.5 * np.ones((3, 3)) + 0.1j
    # a coordinate no term uses, and a term using no coordinate
    pows = rng.integers(0, 5, size=(12, 4))
    pows[:, 2] = 0
    pows[0] = 0
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    yield pows, coeffs, 0.4 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    # degree 64, the point count at the switch and one above it
    pows = np.array([[64, 0], [0, 64], [32, 32], [63, 1], [1, 0], [0, 0]])
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for m in (limit, limit + 1):
        Z = 0.99 * np.exp(2j * np.pi * rng.random((m, 2)))
        Z[0] = 0.0
        yield pows, coeffs, Z


def test_table_kernel_matches_loop_bitwise():
    for pows, coeffs, Z in _table_cases():
        pows = np.asarray(pows, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        Z = np.asarray(Z, dtype=np.complex128)
        (table_vals, table_grad), (loop_vals, loop_grad) = _schedules(pows, coeffs, Z)
        for vals in (table_vals, kernels.poly_eval(pows, coeffs, Z)):
            assert vals.shape == loop_vals.shape
            np.testing.assert_array_equal(_bits(vals), _bits(loop_vals))
        for grad in (table_grad, kernels.poly_grad(pows, coeffs, Z)):
            assert grad.shape == loop_grad.shape
            np.testing.assert_array_equal(_bits(grad), _bits(loop_grad))


def _scan_case():
    # a 10-term degree-5 symbol on ball:3
    rng = np.random.default_rng(3)
    pows = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                     [0, 1, 1], [2, 0, 0], [0, 0, 2], [1, 1, 1], [2, 1, 2]])
    coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    return pows, coeffs


def test_rows_do_not_depend_on_the_batch():
    # above 16 384 rows numpy multiplies an unchunked loop's temporaries in
    # place; in chunks every row keeps the bits it has alone
    pows, coeffs = _scan_case()
    Z = sample_interior(ball(3), 50000, 42)
    head = np.ascontiguousarray(Z[:32])
    np.testing.assert_array_equal(_bits(kernels.poly_eval(pows, coeffs, Z)[:32]),
                                  _bits(kernels.poly_eval(pows, coeffs, head)))
    np.testing.assert_array_equal(_bits(kernels.poly_grad(pows, coeffs, Z)[:32]),
                                  _bits(kernels.poly_grad(pows, coeffs, head)))


@pytest.mark.parametrize("m", [kernels.LOOP_CHUNK + 1, 2 * kernels.LOOP_CHUNK + 1])
def test_lone_last_row_of_a_chunked_batch_keeps_its_bits(m):
    # the loop's last chunk holds one row; multiplying its terms in place
    # (out=) rounds that lone complex element differently in about one
    # polynomial in six
    rng = np.random.default_rng(m)
    for _ in range(40):
        n, t = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        pows = rng.integers(0, 6, size=(t, n)).astype(np.int64)
        coeffs = rng.standard_normal(t) + 1j * rng.standard_normal(t)
        Z = 0.5 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        alone = Z[-1:].copy()
        vals, grad = kernels.poly_jet(pows, coeffs, Z)
        one_vals, one_grad = kernels.poly_jet(pows, coeffs, alone)
        for batch, single in ((vals, one_vals), (grad, one_grad),
                              (kernels.poly_eval(pows, coeffs, Z), one_vals),
                              (kernels.poly_grad(pows, coeffs, Z), one_grad)):
            np.testing.assert_array_equal(_bits(batch[-1:]), _bits(single))


@pytest.mark.parametrize("m", [33, 8193, 20000])
def test_loop_matches_table_bitwise_sweep(m):
    # 1-5 coordinates, up to 30 terms, exponents up to 7, a few rows
    # holding exact zeros of either sign, and scattered zero coordinates
    rng = np.random.default_rng(1000 + m)
    zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), -0.5j, -0.5])
    for _ in range(8):
        n, t = int(rng.integers(1, 6)), int(rng.integers(1, 31))
        pows = rng.integers(0, 8, size=(t, n)).astype(np.int64)
        coeffs = rng.standard_normal(t) + 1j * rng.standard_normal(t)
        Z = 0.5 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        Z[rng.integers(0, m, size=8)] = rng.choice(zeros, size=(8, n))
        scattered = rng.random((m, n)) < 0.05
        Z[scattered] = rng.choice(zeros[:4], size=scattered.sum())
        (table_vals, table_grad), (loop_vals, loop_grad) = _schedules(pows, coeffs, Z)
        np.testing.assert_array_equal(_bits(loop_vals), _bits(table_vals))
        np.testing.assert_array_equal(_bits(loop_grad), _bits(table_grad))


def test_first_powers_of_signed_zeros_keep_the_tables_bits():
    # the loop multiplies z^1 as the column z, the table as z ** 1, which
    # is +0 for a zero of either sign; the sums agree bit for bit
    parts = np.array([0.0, -0.0, 0.5, -0.5, 1e-320, -1e-320])
    col = np.empty(len(parts) ** 2, dtype=np.complex128)
    col.real, col.imag = np.repeat(parts, len(parts)), np.tile(parts, len(parts))
    rng = np.random.default_rng(5)
    Z = rng.choice(col, size=(2000, 3))
    pows = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 1], [2, 1, 0], [0, 0, 1]])
    for coeffs in (np.ones(5, dtype=complex), rng.standard_normal(5) + 1j * rng.standard_normal(5),
                   np.array([1.0, -1.0, 1j, -1j, 0.0])):
        (table_vals, table_grad), (loop_vals, loop_grad) = _schedules(pows, coeffs, Z)
        np.testing.assert_array_equal(_bits(loop_vals), _bits(table_vals))
        np.testing.assert_array_equal(_bits(loop_grad), _bits(table_grad))


@pytest.mark.parametrize("pows", [[[2, 1, 3]], [[3]]])
def test_one_point_matches_its_row_in_a_batch(pows):
    # numpy multiplies a lone complex element without the fused multiply-add
    # of its vector loop: a one-term value, or a one-coordinate gradient, at
    # one point must still keep its bits from a batch and from a family
    rng = np.random.default_rng(5)
    pows = np.array(pows, dtype=np.int64)
    n = pows.shape[1]
    other = (rng.integers(0, 4, size=(4, n)), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    for _ in range(20):
        coeffs = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        Z = 0.4 * (rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n)))
        vals, grad = kernels.poly_jet(pows, coeffs, Z)
        alone = Z[:1].copy()
        np.testing.assert_array_equal(_bits(kernels.poly_eval(pows, coeffs, alone)), _bits(vals[:1]))
        np.testing.assert_array_equal(_bits(kernels.poly_grad(pows, coeffs, alone)), _bits(grad[:1]))
        family = kernels.poly_jet_family([(pows, coeffs), other])(alone, np.array([0]))
        np.testing.assert_array_equal(_bits(family[0]), _bits(vals[:1]))
        np.testing.assert_array_equal(_bits(family[1]), _bits(grad[:1]))


@pytest.mark.parametrize("m", [1, 32, 33, 20000])
def test_jet_matches_eval_and_grad_bitwise(m):
    rng = np.random.default_rng(m)
    Z = sample_interior(ball(3), m, 7) if m > 1 else np.array([[0.3 - 0.1j, 0.2j, -0.4]])
    cases = [_scan_case(), (np.array([[2, 0, 1]]), np.array([0.7 - 0.3j])),
             (np.array([[0, 0, 0]]), np.array([complex(-1.0, -0.0)]))]
    pows = rng.integers(0, 4, size=(7, 3))
    cases.append((pows, rng.standard_normal(7) + 1j * rng.standard_normal(7)))
    for pows, coeffs in cases:
        pows = np.asarray(pows, dtype=np.int64)
        vals, grad = kernels.poly_jet(pows, coeffs, Z)
        assert vals.shape == (m,) and grad.shape == (m, 3)
        np.testing.assert_array_equal(_bits(vals), _bits(kernels.poly_eval(pows, coeffs, Z)))
        np.testing.assert_array_equal(_bits(grad), _bits(kernels.poly_grad(pows, coeffs, Z)))


def _family_members():
    rng = np.random.default_rng(11)
    members = []
    # term counts 1, 4, 9 and 17; widths and top exponents differ, and the
    # one-term member leaves a coordinate unused
    for terms, top in ((1, 2), (4, 6), (9, 3), (17, 12)):
        pows = rng.integers(0, top + 1, size=(terms, 3)).astype(np.int64)
        if terms == 1:
            pows[0] = (2, 0, 1)
        coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        members.append((pows, coeffs))
    return members


@pytest.mark.parametrize("m", [1, 31, 32, 33, 100])
def test_family_kernel_matches_each_member_bitwise(m):
    # the value blocks are two terms wide or more, as each member's own,
    # and the one-term member's value is padded to the widest member
    members = _family_members()
    rng = np.random.default_rng(m)
    Z = 0.55 * (rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3)))
    which = rng.integers(0, len(members), size=m)
    which[: len(members)] = np.arange(len(members))[:m]
    jet = kernels.poly_jet_family(members)
    vals, grad = jet(Z, which)
    assert vals.shape == (m,) and grad.shape == Z.shape
    assert jet(Z, which, grad=False)[1] is None and jet(Z, which, value=False)[0] is None
    np.testing.assert_array_equal(_bits(jet(Z, which, grad=False)[0]), _bits(vals))
    np.testing.assert_array_equal(_bits(jet(Z, which, value=False)[1]), _bits(grad))
    for i in range(m):
        pows, coeffs = members[which[i]]
        np.testing.assert_array_equal(_bits(vals[i:i + 1]),
                                      _bits(kernels.poly_eval(pows, coeffs, Z[i:i + 1])))
        np.testing.assert_array_equal(_bits(grad[i:i + 1]),
                                      _bits(kernels.poly_grad(pows, coeffs, Z[i:i + 1])))


def test_backend_name_reports_active_kernel():
    assert backend_name() == "numpy"
