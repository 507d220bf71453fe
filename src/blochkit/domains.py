"""Domain descriptors, membership tests, and interior samplers.

Supported kinds: the unit disk, the euclidean unit ball, the unit
polydisk, the four classical matrix families (cartan1..cartan4), two
exceptional labels (constants only), and finite products.

Every per-kind fact sits once in the table `_ROWS`, one row per kind of
irreducible domain: dimension check, coordinate count, canonical flag,
class label, seminorm ceiling, disk-factor test, membership, and the two
samplers. `_product_row` composes the rows of a product's factors. The
disk, ball and polydisk also carry a gauge (Minkowski functional), and a
point is interior to them when its gauge is below 1 - EIG_MARGIN, the
test the metric layer applies to batches of rows.

Points are flat complex vectors of the ambient dimension; matrix
domains are flattened row-major, so cartan1:3,2 takes 6 coordinates
ordered Z[0,0], Z[0,1], Z[1,0], Z[1,1], Z[2,0], Z[2,1].

Every seeded draw takes its generator from `_stream(seed, *key)`, or a
seed for another call from `_stream_seed`, under a key of this table:

    (i, r), (101, j, i, r)  sample_interior: shell i, draw role r, factor j
    (202, eps bits)         sample_near_distinguished_boundary
    (1,); () at seed 0      bloch.q_value_oracle's rotation; its direction set
    (7,)                    the seed of lipschitz_beta_estimate's second sample
    (31,)                   operators._battery's random members
    (k,), 11 <= k           verify's suites, one key per draw
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from math import sqrt
from typing import Callable

import numpy as np

from ._kernels import TABLE_MAX_POINTS
from .errors import DimensionMismatch, UsageError, UnsupportedDomainError

# strict positivity margin for smallest-eigenvalue membership tests
EIG_MARGIN = 1e-12

# a gauge below this is interior
_EDGE = 1.0 - EIG_MARGIN

DEFAULT_SHELLS = (0.0, 0.5, 0.9, 0.99, 0.999)

EXC16_CITATION = 1.0 / sqrt(6.0)
EXC27_CITATION = 1.0 / 3.0


class Kind(Enum):
    DISK = "disk"
    BALL = "ball"
    POLYDISK = "polydisk"
    CARTAN1 = "cartan1"
    CARTAN2 = "cartan2"
    CARTAN3 = "cartan3"
    CARTAN4 = "cartan4"
    EXC1 = "exc1"
    EXC2 = "exc2"
    PRODUCT = "product"


@dataclass(frozen=True)
class DomainDescriptor:
    kind: Kind
    dims: tuple[int, ...] = ()
    factors: tuple["DomainDescriptor", ...] = ()

    def __post_init__(self):
        if self.kind is Kind.PRODUCT:
            if len(self.factors) < 2:
                raise UsageError("product needs at least two factors")
            if any(f.factors for f in self.factors):
                raise UsageError("product factors must not be products")
            return
        if self.factors:
            raise UsageError(f"{self.kind.value} takes no factors")
        row = _ROWS[self.kind]
        dims = self.dims or row.implicit
        if not row.fits(dims):
            raise UsageError(row.need)
        object.__setattr__(self, "dims", dims)

    @property
    def ambient_dim(self) -> int:
        return _row(self).ambient(self.dims)

    @property
    def canonical(self) -> bool:
        """Whether dims meet the classification's disjointness restrictions."""
        return _row(self).canonical(self.dims)

    @property
    def metric_supported(self) -> bool:
        return _row(self).gauge is not None

    def factor_slices(self) -> list[tuple[int, int, "DomainDescriptor"]]:
        """(start, stop, factor) coordinate slices; a non-product is one slice."""
        if not self.factors:
            return [(0, self.ambient_dim, self)]
        out, start = [], 0
        for f in self.factors:
            out.append((start, start + f.ambient_dim, f))
            start += f.ambient_dim
        return out

    def spec_string(self) -> str:
        if self.factors:
            return "product(" + ",".join(f.spec_string() for f in self.factors) + ")"
        if self.dims == _ROWS[self.kind].implicit:  # a spec without dimensions
            return self.kind.value
        return self.kind.value + ":" + ",".join(str(x) for x in self.dims)

    def __str__(self) -> str:
        return self.spec_string()


def disk() -> DomainDescriptor:
    return DomainDescriptor(Kind.DISK)


def ball(n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.BALL, (n,))


def polydisk(n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.POLYDISK, (n,))


def cartan1(m: int, n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.CARTAN1, (m, n))


def cartan2(n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.CARTAN2, (n,))


def cartan3(n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.CARTAN3, (n,))


def cartan4(n: int) -> DomainDescriptor:
    return DomainDescriptor(Kind.CARTAN4, (n,))


def exceptional16() -> DomainDescriptor:
    return DomainDescriptor(Kind.EXC1)


def exceptional27() -> DomainDescriptor:
    return DomainDescriptor(Kind.EXC2)


def product(*factors: DomainDescriptor) -> DomainDescriptor:
    return DomainDescriptor(Kind.PRODUCT, (), tuple(factors))


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError(f"unbalanced parentheses in domain spec {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError(f"unbalanced parentheses in domain spec {text!r}")
    parts.append("".join(cur))
    return parts


def parse_domain(spec: str) -> DomainDescriptor:
    """Parse a domain spec string, case-insensitively.

    Grammar: disk | ball:n | polydisk:n | cartan1:m,n | cartan2:n |
    cartan3:n | cartan4:n | exc1 | exc2 | product(spec,spec,...).
    """
    text = spec.strip().lower()
    if not text:
        raise UsageError("empty domain spec")
    if text.startswith("product"):
        body = text[len("product"):].strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise UsageError(f"malformed product spec {spec!r}")
        raw = _split_top_level(body[1:-1])
        # a bare integer continues the previous factor's dimension list
        # (cartan1:3,2 inside a product splits at its inner comma)
        merged: list[str] = []
        for part in raw:
            part = part.strip()
            if part.isdigit() and merged:
                merged[-1] += "," + part
            else:
                merged.append(part)
        return product(*[parse_domain(p) for p in merged])
    name, _, dimtext = text.partition(":")
    name = name.strip()
    dims: tuple[int, ...] = ()
    if dimtext:
        try:
            dims = tuple(int(x) for x in dimtext.split(","))
        except ValueError:
            raise UsageError(f"bad dimensions in domain spec {spec!r}") from None
    try:
        kind = Kind(name)
    except ValueError:
        raise UsageError(f"unknown domain kind {name!r}") from None
    return DomainDescriptor(kind, dims)


def _as_point(d: DomainDescriptor, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.shape[0] != d.ambient_dim:
        raise DimensionMismatch(
            f"point has {z.shape[0]} coordinates, domain {d} needs {d.ambient_dim}"
        )
    return z


# ---------------------------------------------------------------------------
# gauges, membership tests and samplers of the table rows


def _reduce(op: np.ufunc, X: np.ndarray) -> np.ndarray:
    """op.reduce(X, axis=-1) for op np.add or np.hypot, to the bit. Above
    TABLE_MAX_POINTS rows it applies op column by column from +0.0, which
    is the order numpy's reduce takes for hypot at any width and for sums
    of real rows up to 7 wide and complex rows up to 3 wide (fewer than 8
    doubles); wider sums regroup pairwise and keep the reduce. On a short
    axis the column loop is several times faster over many rows, and the
    reduce is faster for the few rows of a line-search step."""
    width = X.shape[-1]
    if X.size <= TABLE_MAX_POINTS * width or (op is np.add and width * X.itemsize >= 64):
        return op.reduce(X, axis=-1)
    out = op(0.0, X[..., 0])
    for k in range(1, width):
        op(out, X[..., k], out=out)
    return out


def _size(X: np.ndarray) -> np.ndarray:
    """Euclidean size over the last axis, summed (by `_reduce`) as the
    batched np.linalg.norm(Z, axis=-1) sums it, so that distances from
    the origin are arctanh of that norm to the bit. The 1-D
    np.linalg.norm(z) sums the real and imaginary parts apart and can
    differ in the last bit. Rows below 2^-450, whose squares would
    underflow, are summed scaled by 2^600, which is exact."""
    r = np.sqrt(_reduce(np.add, (X.conj() * X).real))
    if r.min(initial=1.0) < 2.0 ** -450:
        tiny = r < 2.0 ** -450
        Y = X[tiny] * 2.0 ** 600
        r[tiny] = np.sqrt(_reduce(np.add, (Y.conj() * Y).real)) * 2.0 ** -600
    return r


def _max_modulus(Z: np.ndarray) -> np.ndarray:
    # the ndarray method: np.max's dispatch dominates a one-row call
    return np.abs(Z).max(axis=1)


def _by_gauge(gauge: Callable) -> Callable:
    """Membership gauge < 1 - EIG_MARGIN, for one point exactly the test
    the metric layer makes on each row of a batch."""
    return lambda dims, z: float(gauge(z[None])[0]) < _EDGE


def _matrix_member(shape: Callable, sign: int) -> Callable:
    """Membership in {Z : 1 - Z Z^H > 0} by the smallest-eigenvalue
    margin; sign 1 (-1) first requires Z symmetric (antisymmetric)."""
    def member(dims, z):
        Z = z.reshape(shape(dims))
        if sign and np.max(np.abs(Z - sign * Z.T)) > 1e-12:
            return False
        gram = np.eye(Z.shape[0]) - Z @ Z.conj().T
        return float(np.min(np.linalg.eigvalsh(gram))) > EIG_MARGIN
    return member


def _cartan4_member(dims, z) -> bool:
    nz2 = float(np.sum(np.abs(z) ** 2))
    a = abs(np.sum(z * z)) ** 2 + 1.0 - 2.0 * nz2
    return nz2 < 1.0 - EIG_MARGIN and a > EIG_MARGIN


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    g = rng.standard_normal((count, 2 * n))
    u = np.empty((count, n), dtype=np.complex128)
    u.real, u.imag = g[:, :n], g[:, n:]
    norms = _size(u)[:, None]
    norms[norms == 0] = 1.0
    return u / norms


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of SeedSequence(seed, spawn_key=key); keys as tabled above."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _stream_seed(seed: int, *key: int) -> int:
    """An integer seed for another seeded call, from the same keyed stream."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# A band sampler draws len(t) interior rows at radial factors t in [lo, hi),
# taking the generator of draw role r >= 1 of its shell from role(r); a
# boundary sampler draws count rows at radius r = 1 - eps from one generator.

def _ball_band(dims, role, lo, hi, t):
    return _unit_directions(role(1), len(t), dims[0]) * t[:, None]


def _polydisk_band(dims, role, lo, hi, t):
    # every coordinate modulus sits inside the band: probes the torus
    shape = (len(t), dims[0])
    mod = lo + (hi - lo) * role(1).random(shape)
    ang = 2.0 * np.pi * role(2).random(shape)
    return mod * np.exp(1j * ang)


def _matrix_band(shape: Callable, sign: int) -> Callable:
    """Gaussian matrices, symmetrised (sign 1) or antisymmetrised (sign
    -1), scaled to operator norm t."""
    def band(dims, role, lo, hi, t):
        size = (len(t),) + shape(dims)
        g = role(1).standard_normal(size) + 1j * role(2).standard_normal(size)
        if sign:
            g = (g + sign * np.transpose(g, (0, 2, 1))) / 2.0
        ops = np.linalg.norm(g, ord=2, axis=(1, 2))
        ops[ops == 0] = 1.0
        return (g * (t / ops)[:, None, None]).reshape(len(t), -1)
    return band


def _cartan4_band(dims, role, lo, hi, t):
    # largest s with s*u interior along a unit direction u:
    # A(s*u) = c^2 s^4 - 2 s^2 + 1 with c = |sum u_j^2| stays positive
    # for s^2 < 1/(1 + sqrt(1 - c^2)), which also enforces |s*u| < 1
    u = _unit_directions(role(1), len(t), dims[0])
    c2 = np.clip(np.abs(np.sum(u * u, axis=1)) ** 2, 0.0, 1.0)
    return u * (t * (1.0 / np.sqrt(1.0 + np.sqrt(1.0 - c2))))[:, None]


def _ball_boundary(dims, count, r, rng):
    return _unit_directions(rng, count, dims[0]) * r


def _polydisk_boundary(dims, count, r, rng):
    ang = 2.0 * np.pi * rng.random((count, dims[0]))
    return r * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# the domain table


@dataclass(frozen=True)
class _Row:
    """The columns of one kind, functions of its dims tuple: the dimension
    check `fits` (`need` is its error message, `implicit` the dims stored
    when a spec gives none), coordinate count, the classification's
    disjointness restrictions, class label, seminorm ceiling (swapped
    exchanges the exceptional values), whether some irreducible factor is
    the disk, membership, the samplers above, and the gauge that exactly
    the metric-supported kinds have. `ceiling` and `disk_factor` are the
    two routes of `in_class_D`, so neither is derived from the other."""

    ambient: Callable
    label: Callable
    ceiling: Callable
    disk_factor: Callable
    fits: Callable | None = None
    need: str = ""
    implicit: tuple = ()
    canonical: Callable = lambda dims: True
    member: Callable | None = None
    band: Callable | None = None
    boundary: Callable | None = None
    gauge: Callable | None = None


def _square(dims) -> tuple[int, int]:
    return (dims[0], dims[0])


_ROWS: dict[Kind, _Row] = {
    Kind.DISK: _Row(
        fits=lambda d: d == (1,), need="disk takes no dimension", implicit=(1,),
        ambient=lambda d: 1, label=lambda d: "disk",
        ceiling=lambda d, swapped: 1.0, disk_factor=lambda d: True,
        gauge=_size, member=_by_gauge(_size), band=_ball_band, boundary=_ball_boundary),
    Kind.BALL: _Row(
        fits=lambda d: len(d) == 1 and d[0] >= 1, need="ball needs one dimension >= 1",
        ambient=lambda d: d[0], label=lambda d: f"ball({d[0]})",
        ceiling=lambda d, swapped: sqrt(2.0 / (d[0] + 1)), disk_factor=lambda d: d[0] == 1,
        gauge=_size, member=_by_gauge(_size), band=_ball_band, boundary=_ball_boundary),
    Kind.POLYDISK: _Row(
        fits=lambda d: len(d) == 1 and d[0] >= 1, need="polydisk needs one dimension >= 1",
        ambient=lambda d: d[0], label=lambda d: f"polydisk({d[0]})",
        ceiling=lambda d, swapped: 1.0, disk_factor=lambda d: True,
        gauge=_max_modulus, member=_by_gauge(_max_modulus), band=_polydisk_band,
        boundary=_polydisk_boundary),
    Kind.CARTAN1: _Row(  # m x n matrices
        fits=lambda d: len(d) == 2 and d[0] >= d[1] >= 1, need="cartan1 needs m >= n >= 1",
        ambient=lambda d: d[0] * d[1], label=lambda d: f"type-I({d[0]}x{d[1]})",
        ceiling=lambda d, swapped: sqrt(2.0 / (d[0] + d[1])),
        disk_factor=lambda d: d == (1, 1),
        member=_matrix_member(lambda d: d, 0), band=_matrix_band(lambda d: d, 0)),
    Kind.CARTAN2: _Row(  # symmetric n x n matrices
        fits=lambda d: len(d) == 1 and d[0] >= 1, need="cartan2 needs n >= 1",
        ambient=lambda d: d[0] * d[0], canonical=lambda d: d[0] >= 2,
        label=lambda d: f"type-II({d[0]})",
        ceiling=lambda d, swapped: sqrt(2.0 / (d[0] + 1)), disk_factor=lambda d: d[0] == 1,
        member=_matrix_member(_square, 1), band=_matrix_band(_square, 1)),
    Kind.CARTAN3: _Row(  # antisymmetric n x n matrices
        fits=lambda d: len(d) == 1 and d[0] >= 2, need="cartan3 needs n >= 2",
        ambient=lambda d: d[0] * d[0], canonical=lambda d: d[0] >= 5,
        label=lambda d: f"type-III({d[0]})",
        ceiling=lambda d, swapped: sqrt(1.0 / (d[0] - 1)), disk_factor=lambda d: d[0] == 2,
        member=_matrix_member(_square, -1), band=_matrix_band(_square, -1)),
    Kind.CARTAN4: _Row(  # the Lie ball; n = 1 is the disk
        fits=lambda d: len(d) == 1 and d[0] >= 1 and d[0] != 2,
        need="cartan4 needs n >= 1, n != 2",
        ambient=lambda d: d[0], canonical=lambda d: d[0] >= 5,
        label=lambda d: f"type-IV({d[0]})",
        # the generic formula does not apply below the series range
        ceiling=lambda d, swapped: 1.0 if d[0] == 1 else sqrt(2.0 / d[0]),
        disk_factor=lambda d: d[0] == 1,
        member=_cartan4_member, band=_cartan4_band),
    Kind.EXC1: _Row(
        fits=lambda d: d == (), need="exc1 takes no dimension",
        ambient=lambda d: 16, label=lambda d: "exceptional(16)",
        ceiling=lambda d, swapped: EXC27_CITATION if swapped else EXC16_CITATION,
        disk_factor=lambda d: False),
    Kind.EXC2: _Row(
        fits=lambda d: d == (), need="exc2 takes no dimension",
        ambient=lambda d: 27, label=lambda d: "exceptional(27)",
        ceiling=lambda d, swapped: EXC16_CITATION if swapped else EXC27_CITATION,
        disk_factor=lambda d: False),
}


@lru_cache(maxsize=64)
def _product_row(d: DomainDescriptor) -> _Row:
    """The row of a product, composed from its factors' rows: a point is
    interior when every factor part is, the gauge and the ceiling are the
    largest factor values, it has a disk factor when any factor is one,
    the label joins the factor labels, and the boundary sampler fills the
    factor slices in turn from one generator. A column that some factor
    lacks, the product lacks."""
    parts = [(s, t, f.dims, _ROWS[f.kind]) for s, t, f in d.factor_slices()]

    def member(dims, z):
        return all(r.member(fd, z[s:t]) for s, t, fd, r in parts)

    def boundary(dims, count, rad, rng):
        return np.concatenate([r.boundary(fd, count, rad, rng) for _, _, fd, r in parts],
                              axis=1)

    def gauge(Z):
        return np.max(np.stack([r.gauge(Z[:, s:t]) for s, t, _, r in parts]), axis=0)

    def every(column):
        return all(getattr(r, column) is not None for *_, r in parts)

    return _Row(
        ambient=lambda dims: parts[-1][1],
        canonical=lambda dims: all(r.canonical(fd) for _, _, fd, r in parts),
        label=lambda dims: "product(" + ", ".join(r.label(fd) for _, _, fd, r in parts) + ")",
        ceiling=lambda dims, swapped: max(r.ceiling(fd, swapped) for _, _, fd, r in parts),
        disk_factor=lambda dims: any(r.disk_factor(fd) for _, _, fd, r in parts),
        member=member if every("member") else None,
        boundary=boundary if every("boundary") else None,
        gauge=gauge if every("gauge") else None)


def _row(d: DomainDescriptor) -> _Row:
    """The table row of d; a product's is composed from its factors'."""
    return _product_row(d) if d.factors else _ROWS[d.kind]


def contains(d: DomainDescriptor, z) -> bool:
    """Strict interior membership, smallest-eigenvalue margin 1e-12; on
    the disk, ball and polydisk, gauge < 1 - 1e-12."""
    z = _as_point(d, z)
    member = _row(d).member
    if member is None:
        raise UnsupportedDomainError(f"membership test not available for {d}")
    return member(d.dims, z)


def sample_interior(d: DomainDescriptor, count: int, seed: int,
                    shells: tuple[float, ...] = DEFAULT_SHELLS) -> np.ndarray:
    """Stratified interior sample, (count, ambient_dim) complex array.

    Points split evenly across boundary-proximity shells (counts within
    one of count/len(shells)); each shell draws its radial factor from
    [shell, next shell). Per-shell substreams keep the first half of a
    doubled draw identical, so sampled suprema never shrink when the
    sample count grows. A product stratifies each factor on its own
    substream. The array is read-only: the last two draws are remembered
    and handed out again to a call with the same domain, count, seed and
    shells, so a scan that alternates two sample counts on one domain
    draws each once.
    """
    if count < 1:
        raise UsageError("sample count must be >= 1")
    shells = tuple(float(s) for s in shells)
    if not shells or any(not (0.0 <= s < 1.0) for s in shells):
        raise UsageError("shells must be a nonempty list in [0, 1)")
    return _draw(d, count, seed, shells)


@lru_cache(maxsize=2)
def _draw(d: DomainDescriptor, count: int, seed: int,
          shells: tuple[float, ...]) -> np.ndarray:
    if d.factors:
        out = np.empty((count, d.ambient_dim), dtype=np.complex128)
        for i, (s, t, f) in enumerate(d.factor_slices()):
            out[:, s:t] = _stratified(f, count, seed, (101, i), shells)
    else:
        out = _stratified(d, count, seed, (), shells)
    out.flags.writeable = False
    return out


def _stratified(d: DomainDescriptor, count: int, seed: int, key: tuple[int, ...],
                shells: tuple[float, ...]) -> np.ndarray:
    band = _row(d).band
    if band is None:
        raise UnsupportedDomainError(f"no interior sampler for {d}")
    # shell i is the band [shells[i], shells[i + 1]), the last one reaching
    # halfway to 1, and takes count // len(shells) points, one more for
    # the first count % len(shells) shells
    base, rem = divmod(count, len(shells))
    pieces = []
    for i, lo in enumerate(shells):
        hi = shells[i + 1] if i + 1 < len(shells) else (1.0 + lo) / 2.0
        c = base + (1 if i < rem else 0)
        if c == 0:
            continue
        # one stream per draw role, so growing the sample count extends
        # every role's stream instead of shifting the later roles
        role = partial(_stream, seed, *key, i)
        t = lo + (hi - lo) * role(0).random(c)
        pieces.append(band(d.dims, role, lo, hi, t))
    return np.concatenate(pieces, axis=0)


def sample_near_distinguished_boundary(d: DomainDescriptor, count: int,
                                       eps: float, seed: int) -> np.ndarray:
    """Points at distance eps from the distinguished boundary.

    Ball: |z| = 1 - eps (the sphere is its own distinguished boundary).
    Polydisk: every |z_k| = 1 - eps (near the torus). Products: per factor.
    """
    if not (0.0 < eps < 1.0):
        raise UsageError("eps must be in (0, 1)")
    if count < 1:
        raise UsageError("sample count must be >= 1")
    boundary = _row(d).boundary
    if boundary is None:
        raise UnsupportedDomainError(f"no distinguished-boundary sampler for {d}")
    # keyed on the exact bits of eps, so distinct eps draw distinct streams
    rng = _stream(seed, 202, int(np.float64(eps).view(np.uint64)))
    return boundary(d.dims, count, 1.0 - eps, rng)
