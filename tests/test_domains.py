import numpy as np
import pytest

from blochkit import (
    REGISTRY,
    ball,
    cartan1,
    cartan2,
    cartan3,
    cartan4,
    contains,
    disk,
    exceptional16,
    exceptional27,
    parse_domain,
    polydisk,
    product,
    sample_interior,
    sample_near_distinguished_boundary,
)
from blochkit import domains
from blochkit.errors import ParseError, UnsupportedDomainError, UsageError


AMBIENT = [
    (disk(), 1),
    (ball(3), 3),
    (polydisk(4), 4),
    (cartan1(3, 2), 6),
    (cartan2(3), 9),
    (cartan3(4), 16),
    (cartan4(5), 5),
    (exceptional16(), 16),
    (exceptional27(), 27),
    (product(ball(2), disk()), 3),
    (product(cartan1(2, 2), polydisk(2)), 6),
]


@pytest.mark.parametrize("d,dim", AMBIENT)
def test_ambient_dim(d, dim):
    assert d.ambient_dim == dim


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ball(0),
        lambda: polydisk(0),
        lambda: cartan1(1, 2),  # requires m >= n
        lambda: cartan1(0, 0),
        lambda: cartan2(0),
        lambda: cartan3(1),  # antisymmetric side needs n >= 2
        lambda: cartan4(2),  # n = 2 splits and is excluded
        lambda: cartan4(0),
        lambda: product(disk()),  # at least two factors
        lambda: product(product(disk(), disk()), disk()),  # no nested products
    ],
)
def test_invalid_descriptors(bad):
    with pytest.raises(UsageError):
        bad()


def test_metric_supported_flags():
    assert disk().metric_supported
    assert ball(4).metric_supported
    assert polydisk(3).metric_supported
    assert product(ball(2), polydisk(2)).metric_supported
    assert not cartan1(2, 2).metric_supported
    assert not exceptional16().metric_supported
    assert not product(cartan2(2), disk()).metric_supported


def test_canonical_flags():
    # Small parameters duplicating lower-rank families are non-canonical.
    assert disk().canonical
    assert ball(2).canonical
    assert cartan1(3, 2).canonical
    assert not cartan3(4).canonical
    assert cartan2(3).canonical
    assert cartan4(5).canonical


@pytest.mark.parametrize(
    "text,expected",
    [
        ("disk", disk()),
        ("ball:3", ball(3)),
        ("BALL:3", ball(3)),
        ("polydisk:2", polydisk(2)),
        ("cartan1:3,2", cartan1(3, 2)),
        ("cartan4:5", cartan4(5)),
        ("exc1", exceptional16()),
        ("exc2", exceptional27()),
        ("product(ball:2,disk)", product(ball(2), disk())),
        ("product(cartan1:3,2,ball:2)", product(cartan1(3, 2), ball(2))),
    ],
)
def test_parse_domain(text, expected):
    assert parse_domain(text) == expected


def test_parse_domain_round_trip_registry():
    for d in REGISTRY:
        assert parse_domain(str(d)) == d


@pytest.mark.parametrize("text", ["", "blob", "ball:", "ball:0", "cartan1:2", "product(disk)"])
def test_parse_domain_rejects(text):
    with pytest.raises(UsageError):
        parse_domain(text)


def test_contains_disk_and_ball():
    assert contains(disk(), 0.5)
    assert contains(disk(), 0.3 + 0.4j)
    assert not contains(disk(), 1.0)
    assert not contains(disk(), 1.0 + 0.2j)
    assert contains(ball(2), (0.6, 0.6))
    assert not contains(ball(2), (0.8, 0.7))


def test_contains_polydisk():
    assert contains(polydisk(2), (0.99, 0.5))
    assert not contains(polydisk(2), (1.0, 0.0))
    assert not contains(polydisk(2), (0.5, 1.2))


def test_contains_matrix_domains():
    # Type I: singular values below one.
    A = np.array([[0.5, 0.0], [0.0, 0.9]])
    assert contains(cartan1(2, 2), A.ravel())
    assert not contains(cartan1(2, 2), np.array([[1.1, 0.0], [0.0, 0.2]]).ravel())
    # Type II requires symmetry, type III antisymmetry.
    S = np.array([[0.1, 0.2], [0.2, 0.1]])
    assert contains(cartan2(2), S.ravel())
    assert not contains(cartan2(2), np.array([[0.1, 0.2], [0.3, 0.1]]).ravel())
    K = np.array([[0.0, 0.3], [-0.3, 0.0]])
    assert contains(cartan3(2), K.ravel())
    assert not contains(cartan3(2), np.array([[0.0, 0.3], [0.3, 0.0]]).ravel())


def test_contains_cartan4():
    inside = np.zeros(5, dtype=complex)
    inside[0] = 0.9
    assert contains(cartan4(5), inside)
    outside = np.zeros(5, dtype=complex)
    outside[0] = 0.7
    outside[1] = 0.7j  # isotropic direction: quartic form goes negative
    assert not contains(cartan4(5), outside)
    assert contains(cartan4(5), np.zeros(5))


def test_contains_exceptional_unsupported():
    with pytest.raises(UnsupportedDomainError):
        contains(exceptional16(), np.zeros(16))


def test_sample_interior_shape_membership_determinism():
    d = ball(3)
    Z = sample_interior(d, 200, seed=5)
    assert Z.shape == (200, 3)
    assert Z.dtype == complex
    assert all(contains(d, z) for z in Z)
    Z2 = sample_interior(d, 200, seed=5)
    np.testing.assert_array_equal(Z, Z2)
    Z3 = sample_interior(d, 200, seed=6)
    assert not np.array_equal(Z, Z3)


def test_sample_interior_product_and_matrix_domains():
    for d in (product(ball(2), disk()), cartan1(2, 2), cartan4(5), polydisk(3)):
        Z = sample_interior(d, 64, seed=1)
        assert Z.shape == (64, d.ambient_dim)
        assert all(contains(d, z) for z in Z)


def test_sample_interior_doubling_is_superset():
    d = polydisk(2)
    small = sample_interior(d, 100, seed=9)
    big = sample_interior(d, 200, seed=9)
    big_rows = {row.tobytes() for row in big}
    missing = [i for i, row in enumerate(small) if row.tobytes() not in big_rows]
    assert not missing, f"{len(missing)} rows of the smaller draw absent from the doubled draw"


@pytest.mark.parametrize("count,shells", [
    (10, (0.0, 1.0)), (10, (0.0, 1.5)), (10, (-0.1, 0.5)), (10, ()), (10, []),
    (0, (0.0, 0.5)), (-3, (0.0, 0.5)),
])
def test_sample_interior_validation(count, shells):
    # a shell at or above 1 drew points outside the ball, and empty shells
    # divided by zero
    with pytest.raises(UsageError):
        sample_interior(ball(2), count, 1, shells)


def test_sample_interior_remembers_its_last_draw():
    d = polydisk(2)
    first = sample_interior(d, 50, seed=4)
    again = sample_interior(d, 50, seed=4)
    assert again.tobytes() == first.tobytes()
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0] = 0.0
    # list and tuple shells, ints and floats, are one key
    assert sample_interior(d, 50, 4, [0, 0.5]) is sample_interior(d, 50, 4, (0.0, 0.5))
    for other in ((ball(2), 50, 4, (0.0, 0.5)), (d, 51, 4, (0.0, 0.5)),
                  (d, 50, 5, (0.0, 0.5)), (d, 50, 4, (0.0, 0.9))):
        sample_interior(d, 50, 4, (0.0, 0.5))
        after = sample_interior(*other)
        domains._draw.cache_clear()
        fresh = sample_interior(*other)
        assert after is not fresh
        assert after.tobytes() == fresh.tobytes()


def test_sample_interior_remembers_its_last_two_draws():
    # a scan alternates 50 000-row and 12 500-row draws on one domain
    d, shells = ball(3), (0.0, 0.5)
    first = sample_interior(d, 50000, 6, shells)
    quarter = sample_interior(d, 12500, 6, shells)
    assert sample_interior(d, 50000, 6, shells) is first
    assert sample_interior(d, 12500, 6, shells) is quarter


def test_sample_interior_stratified_shells():
    # Points spread from the center out to very near the boundary.
    Z = sample_interior(disk(), 1000, seed=3)
    radii = np.abs(Z[:, 0])
    assert radii.min() < 0.3
    assert radii.max() > 0.995
    assert radii.max() < 1.0


def test_boundary_sampler_ball_and_polydisk():
    Zb = sample_near_distinguished_boundary(ball(2), 50, 0.01, seed=2)
    norms = np.linalg.norm(Zb, axis=1)
    np.testing.assert_allclose(norms, 0.99, atol=1e-12)
    Zp = sample_near_distinguished_boundary(polydisk(3), 50, 0.05, seed=2)
    np.testing.assert_allclose(np.abs(Zp), 0.95, atol=1e-12)
    again = sample_near_distinguished_boundary(ball(2), 50, 0.01, seed=2)
    np.testing.assert_array_equal(Zb, again)


def test_boundary_sampler_streams_differ_across_eps():
    # eps values 2^32 / 1e12 apart shared one stream when keyed on int(eps * 1e12)
    a = sample_near_distinguished_boundary(ball(2), 50, 0.1, seed=3)
    b = sample_near_distinguished_boundary(ball(2), 50, 0.1 + 2**32 / 1e12, seed=3)
    assert np.max(np.abs(a / np.linalg.norm(a, axis=1, keepdims=True)
                         - b / np.linalg.norm(b, axis=1, keepdims=True))) > 0.1


def test_boundary_sampler_validation():
    with pytest.raises(UsageError):
        sample_near_distinguished_boundary(disk(), 10, 0.0, seed=0)
    with pytest.raises(UsageError):
        sample_near_distinguished_boundary(disk(), 10, 1.0, seed=0)
    for count in (0, -3):
        with pytest.raises(UsageError):
            sample_near_distinguished_boundary(ball(2), count, 0.1, seed=0)
    with pytest.raises(UnsupportedDomainError):
        sample_near_distinguished_boundary(cartan1(2, 2), 10, 0.1, seed=0)


def test_str_spec_strings():
    assert str(disk()) == "disk"
    assert str(ball(3)) == "ball:3"
    assert str(cartan1(3, 2)) == "cartan1:3,2"
    assert str(product(ball(2), disk())) == "product(ball:2,disk)"


def _rows(rng, m, width, dtype):
    """Rows mixing normal entries of every scale with +-0, subnormal,
    tiny and huge entries."""
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e-160, 1e154, -1e300])
    def part():
        X = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-150, 150, (m, width))
        mask = rng.random((m, width)) < 0.3
        X[mask] = rng.choice(special, mask.sum())
        return X
    return part() + 1j * part() if dtype is complex else part()


@pytest.mark.parametrize("m", [1, 32, 33, 8193, 50000])
def test_row_reduce_matches_numpy_reduce_bitwise(m):
    rng = np.random.default_rng(m)
    for dtype in (float, complex):
        for width in range(1, 10):
            X = _rows(rng, m, width, dtype)
            ops = (np.add, np.hypot) if dtype is float else (np.add,)
            for op in ops:
                for view in (X, np.asfortranarray(X), X.real):
                    got = domains._reduce(op, view)
                    want = op.reduce(view, axis=-1)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (op, dtype, width, m)
            # a leading batch axis counts its rows too
            Y = X.reshape(1, m, width)
            assert domains._reduce(np.add, Y).tobytes() == Y.sum(axis=-1).tobytes()


def test_unit_directions_match_the_complex_sum_and_batched_norm():
    for count, n in ((1, 1), (33, 3), (5000, 2), (20000, 5)):
        got = domains._unit_directions(np.random.default_rng(count), count, n)
        g = np.random.default_rng(count).standard_normal((count, 2 * n))
        u = g[:, :n] + 1j * g[:, n:]
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        assert got.tobytes() == (u / norms).tobytes()
