"""Per-domain seminorm ceilings for bounded symbols and the class of
domains where that ceiling sits strictly below one.

Closed forms by class (c below is the ceiling), kept in the ceiling
column of the domain table in `domains`:

    type I  (m x n rectangular):  c = sqrt(2 / (m + n))
    type II (symmetric, n):       c = sqrt(2 / (n + 1))
    type III (antisymmetric, n):  c = sqrt(1 / (n - 1))
    type IV (quadric, n != 2):    c = sqrt(2 / n), with n = 1 the disk
    exceptional (dims 16, 27):    1/sqrt(6) and 1/3
    products:                     max over factors

The two exceptional values are assigned in citation order; the swapped
assignment is carried alongside, and consumers that would change an
answer under the swap must refuse with AmbiguousConstantError instead
of silently picking one.
"""

from __future__ import annotations

from .domains import (DomainDescriptor, _row, ball, cartan1, cartan2,
                      cartan3, cartan4, disk, exceptional16, exceptional27,
                      polydisk, product)
from .errors import AmbiguousConstantError


def bloch_constant(d: DomainDescriptor) -> float:
    """Ceiling c with Q_psi <= c * ||psi||_inf for bounded symbols, the
    exceptional values in citation order (see `bloch_constant_candidates`)."""
    return _row(d).ceiling(d.dims, False)


def bloch_constant_candidates(d: DomainDescriptor) -> tuple[float, float]:
    """(citation-order value, swapped value); equal when the domain has
    no exceptional part or the exceptional part is not the max."""
    ceiling = _row(d).ceiling
    return ceiling(d.dims, False), ceiling(d.dims, True)


def resolved_constant(d: DomainDescriptor) -> float:
    """The ceiling when it does not depend on the exceptional
    assignment; raises AmbiguousConstantError otherwise."""
    a, b = bloch_constant_candidates(d)
    if a != b:
        raise AmbiguousConstantError(
            f"ceiling for {d} depends on the exceptional-domain "
            f"assignment ({a:.6f} vs {b:.6f})")
    return a


def has_disk_factor(d: DomainDescriptor) -> bool:
    """True when some irreducible factor is (isomorphic to) the disk."""
    return _row(d).disk_factor(d.dims)


def in_class_D(d: DomainDescriptor) -> bool:
    """Membership in the class where the ceiling is strictly below one.

    Computed twice: from the ceiling value and from the disk-factor
    test. The two routes must agree.
    """
    a, b = bloch_constant_candidates(d)
    by_value = max(a, b) < 1.0
    by_factor = not has_disk_factor(d)
    if by_value != by_factor:
        raise RuntimeError(
            f"class routes disagree for {d}: value {by_value}, "
            f"factor {by_factor}")
    return by_value


def standard_form(d: DomainDescriptor) -> str:
    """Short class label for display."""
    return _row(d).label(d.dims)


REGISTRY: tuple[DomainDescriptor, ...] = (
    disk(),
    ball(2),
    ball(3),
    ball(5),
    polydisk(2),
    polydisk(4),
    cartan1(2, 2),
    cartan1(3, 2),
    cartan2(2),
    cartan2(3),
    cartan3(3),
    cartan3(4),
    cartan4(3),
    cartan4(5),
    exceptional16(),
    exceptional27(),
    product(ball(2), polydisk(2)),
    product(cartan2(2), ball(3)),
)


def registry_table() -> list[dict]:
    """Rows for the constants listing: spec string, class label, both
    candidate ceilings, class membership."""
    rows = []
    for d in REGISTRY:
        a, b = bloch_constant_candidates(d)
        rows.append({
            "domain": str(d),
            "class": standard_form(d),
            "constant": a,
            "constant_swapped": b,
            "in_class_D": in_class_D(d),
        })
    return rows
