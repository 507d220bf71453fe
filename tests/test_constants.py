import math

import numpy as np
import pytest

from blochkit import (
    REGISTRY,
    ball,
    beta_estimate,
    beta_upper_poly,
    bloch_constant,
    bloch_constant_candidates,
    cartan1,
    cartan2,
    cartan3,
    cartan4,
    coordinate,
    disk,
    evaluate,
    exceptional16,
    exceptional27,
    has_disk_factor,
    in_class_D,
    polydisk,
    product,
    registry_table,
    resolved_constant,
    standard_form,
)
from blochkit.errors import AmbiguousConstantError

from conftest import mkpoly


# ---------------------------------------------------------------- closed forms


@pytest.mark.parametrize(
    "d,expected",
    [
        (disk(), 1.0),
        (ball(2), math.sqrt(2.0 / 3.0)),
        (ball(3), math.sqrt(2.0 / 4.0)),
        (ball(5), math.sqrt(2.0 / 6.0)),
        (polydisk(2), 1.0),
        (polydisk(4), 1.0),
        (cartan1(2, 2), math.sqrt(2.0 / 4.0)),
        (cartan1(3, 2), math.sqrt(2.0 / 5.0)),
        (cartan2(2), math.sqrt(2.0 / 3.0)),
        (cartan2(3), math.sqrt(2.0 / 4.0)),
        (cartan3(3), math.sqrt(2.0 / 4.0)),
        (cartan3(4), math.sqrt(2.0 / 6.0)),
        (cartan4(3), math.sqrt(2.0 / 3.0)),
        (cartan4(5), math.sqrt(2.0 / 5.0)),
        (cartan4(1), 1.0),
        (exceptional16(), 1.0 / math.sqrt(6.0)),
        (exceptional27(), 1.0 / 3.0),
    ],
)
def test_bloch_constant_closed_forms(d, expected):
    assert bloch_constant(d) == pytest.approx(expected, abs=1e-14)


def test_ball_matches_type_one_column():
    for n in range(1, 8):
        assert bloch_constant(ball(n)) == pytest.approx(bloch_constant(cartan1(n, 1)), abs=1e-14)


def test_swapped_assignment_exchanges_exceptional_values():
    assert bloch_constant_candidates(exceptional16())[1] == pytest.approx(1.0 / 3.0)
    assert bloch_constant_candidates(exceptional27())[1] == pytest.approx(1.0 / math.sqrt(6.0))
    # everything else is unaffected by the assignment choice
    for d in (disk(), ball(4), cartan2(3), cartan4(5)):
        assert bloch_constant_candidates(d) == (bloch_constant(d),) * 2


def test_candidates_pair():
    cands = bloch_constant_candidates(exceptional16())
    assert cands == pytest.approx((1.0 / math.sqrt(6.0), 1.0 / 3.0))
    same = bloch_constant_candidates(ball(3))
    assert same[0] == same[1]


def test_resolved_constant_raises_when_ambiguous():
    assert resolved_constant(ball(2)) == pytest.approx(math.sqrt(2.0 / 3.0))
    with pytest.raises(AmbiguousConstantError):
        resolved_constant(exceptional16())
    with pytest.raises(AmbiguousConstantError):
        resolved_constant(product(exceptional16(), cartan1(7, 6)))
    # a dominating factor can make the product unambiguous again
    assert resolved_constant(product(exceptional16(), disk())) == pytest.approx(1.0)


def test_product_constant_is_max_of_factors():
    rng = np.random.default_rng(0)
    pool = [disk(), ball(2), ball(3), polydisk(2), cartan1(2, 2), cartan2(2), cartan4(3)]
    for _ in range(50):
        a, b = rng.choice(len(pool), size=2, replace=False)
        da, db = pool[a], pool[b]
        expected = max(bloch_constant(da), bloch_constant(db))
        assert bloch_constant(product(da, db)) == pytest.approx(expected, abs=1e-14)


def test_constants_in_unit_interval():
    for d in REGISTRY:
        for c in bloch_constant_candidates(d):
            assert 0.0 < c <= 1.0


# ---------------------------------------------------------------- classification


def test_in_class_D_iff_no_disk_factor():
    for d in REGISTRY:
        assert in_class_D(d) == (not has_disk_factor(d))


def test_disk_factor_detection():
    assert has_disk_factor(disk())
    assert has_disk_factor(polydisk(3))
    assert has_disk_factor(ball(1))
    assert has_disk_factor(cartan1(1, 1))
    assert has_disk_factor(cartan2(1))
    assert has_disk_factor(cartan3(2))
    assert has_disk_factor(cartan4(1))
    assert has_disk_factor(product(ball(2), disk()))
    assert not has_disk_factor(ball(2))
    assert not has_disk_factor(cartan2(2))
    assert not has_disk_factor(product(ball(2), cartan4(3)))


@pytest.mark.parametrize(
    "d,label",
    [
        (disk(), "disk"),
        (ball(2), "ball(2)"),
        (polydisk(2), "polydisk(2)"),
        (cartan1(3, 2), "type-I(3x2)"),
        (cartan2(2), "type-II(2)"),
        (cartan3(3), "type-III(3)"),
        (cartan4(5), "type-IV(5)"),
        (exceptional16(), "exceptional(16)"),
        (exceptional27(), "exceptional(27)"),
        (product(ball(2), polydisk(2)), "product(ball(2), polydisk(2))"),
    ],
)
def test_standard_form_labels(d, label):
    assert standard_form(d) == label


def test_registry_table_rows():
    rows = registry_table()
    assert len(rows) == len(REGISTRY)
    for row in rows:
        assert set(row.keys()) == {
            "domain",
            "class",
            "constant",
            "constant_swapped",
            "in_class_D",
        }
        assert 0.0 < row["constant"] <= 1.0


# ---------------------------------------------------------------- witnesses


def test_disk_witness_attains_the_constant(fast_cfg):
    # The coordinate function has seminorm one, matching the disk value.
    est = beta_estimate(disk(), coordinate(1, 1), fast_cfg)
    assert est.lower >= bloch_constant(disk()) - 1e-6


def test_rescaled_polynomials_respect_seminorm_ceiling(fast_cfg):
    # After normalizing by a certified norm bound, sampled seminorms stay
    # below the ceiling for functions of norm at most one.
    rng = np.random.default_rng(21)
    d = ball(2)
    for _ in range(20):
        terms = {
            tuple(int(k) for k in rng.integers(0, 3, 2)): complex(
                rng.standard_normal(), rng.standard_normal()
            )
            for _ in range(3)
        }
        f = mkpoly(2, terms)
        cert = abs(evaluate(f, (0.0, 0.0))) + beta_upper_poly(f)
        if cert < 1e-9:
            continue
        g = mkpoly(2, {e: c / cert for e, c in terms.items()})
        est = beta_estimate(d, g, fast_cfg.with_(samples=500, refine_restarts=1))
        assert est.lower <= 1.0 + 0.02
