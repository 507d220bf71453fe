"""Domain descriptors, membership tests, and interior samplers.

Supported kinds: the unit disk, the euclidean unit ball, the unit
polydisk, the four classical matrix families (cartan1..cartan4), two
exceptional labels (constants only), and finite products.

Points are flat complex vectors of the ambient dimension; matrix
domains are flattened row-major, so cartan1:2,3 takes 6 coordinates
ordered Z[0,0], Z[0,1], Z[0,2], Z[1,0], ...
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, UsageError, UnsupportedDomainError

# strict positivity margin for smallest-eigenvalue membership tests
EIG_MARGIN = 1e-12

DEFAULT_SHELLS = (0.0, 0.5, 0.9, 0.99, 0.999)


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


_METRIC_KINDS = {Kind.DISK, Kind.BALL, Kind.POLYDISK}


@dataclass(frozen=True)
class DomainDescriptor:
    kind: Kind
    dims: tuple[int, ...] = ()
    factors: tuple["DomainDescriptor", ...] = ()

    def __post_init__(self):
        k, d = self.kind, self.dims
        if k is Kind.DISK:
            if d not in ((), (1,)):
                raise UsageError("disk takes no dimension")
            object.__setattr__(self, "dims", (1,))
        elif k in (Kind.BALL, Kind.POLYDISK):
            if len(d) != 1 or d[0] < 1:
                raise UsageError(f"{k.value} needs one dimension >= 1")
        elif k is Kind.CARTAN1:
            if len(d) != 2 or not (d[0] >= d[1] >= 1):
                raise UsageError("cartan1 needs m >= n >= 1")
        elif k is Kind.CARTAN2:
            if len(d) != 1 or d[0] < 1:
                raise UsageError("cartan2 needs n >= 1")
        elif k is Kind.CARTAN3:
            if len(d) != 1 or d[0] < 2:
                raise UsageError("cartan3 needs n >= 2")
        elif k is Kind.CARTAN4:
            if len(d) != 1 or d[0] < 1 or d[0] == 2:
                raise UsageError("cartan4 needs n >= 1, n != 2")
        elif k in (Kind.EXC1, Kind.EXC2):
            if d != ():
                raise UsageError(f"{k.value} takes no dimension")
        elif k is Kind.PRODUCT:
            if len(self.factors) < 2:
                raise UsageError("product needs at least two factors")
            if any(f.kind is Kind.PRODUCT for f in self.factors):
                raise UsageError("product factors must not be products")

    @property
    def ambient_dim(self) -> int:
        k, d = self.kind, self.dims
        if k is Kind.DISK:
            return 1
        if k in (Kind.BALL, Kind.POLYDISK, Kind.CARTAN4):
            return d[0]
        if k is Kind.CARTAN1:
            return d[0] * d[1]
        if k in (Kind.CARTAN2, Kind.CARTAN3):
            return d[0] * d[0]
        if k is Kind.EXC1:
            return 16
        if k is Kind.EXC2:
            return 27
        return sum(f.ambient_dim for f in self.factors)

    @property
    def canonical(self) -> bool:
        """Whether dims meet the classification's disjointness restrictions."""
        k = self.kind
        if k is Kind.CARTAN2:
            return self.dims[0] >= 2
        if k in (Kind.CARTAN3, Kind.CARTAN4):
            return self.dims[0] >= 5
        if k is Kind.PRODUCT:
            return all(f.canonical for f in self.factors)
        return True

    @property
    def metric_supported(self) -> bool:
        if self.kind is Kind.PRODUCT:
            return all(f.metric_supported for f in self.factors)
        return self.kind in _METRIC_KINDS

    def factor_slices(self) -> list[tuple[int, int, "DomainDescriptor"]]:
        """(start, stop, factor) coordinate slices; a non-product is one slice."""
        if self.kind is not Kind.PRODUCT:
            return [(0, self.ambient_dim, self)]
        out, start = [], 0
        for f in self.factors:
            out.append((start, start + f.ambient_dim, f))
            start += f.ambient_dim
        return out

    def spec_string(self) -> str:
        k, d = self.kind, self.dims
        if k is Kind.DISK or k in (Kind.EXC1, Kind.EXC2):
            return k.value
        if k is Kind.PRODUCT:
            return "product(" + ",".join(f.spec_string() for f in self.factors) + ")"
        return k.value + ":" + ",".join(str(x) for x in d)

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
        # (cartan1:2,3 inside a product splits at its inner comma)
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
    table = {
        "disk": Kind.DISK, "ball": Kind.BALL, "polydisk": Kind.POLYDISK,
        "cartan1": Kind.CARTAN1, "cartan2": Kind.CARTAN2,
        "cartan3": Kind.CARTAN3, "cartan4": Kind.CARTAN4,
        "exc1": Kind.EXC1, "exc2": Kind.EXC2,
    }
    if name not in table:
        raise UsageError(f"unknown domain kind {name!r}")
    return DomainDescriptor(table[name], dims)


def _as_point(d: DomainDescriptor, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.shape[0] != d.ambient_dim:
        raise DimensionMismatch(
            f"point has {z.shape[0]} coordinates, domain {d} needs {d.ambient_dim}"
        )
    return z


def _matrix_of(d: DomainDescriptor, z: np.ndarray) -> np.ndarray:
    if d.kind is Kind.CARTAN1:
        m, n = d.dims
        return z.reshape(m, n)
    n = d.dims[0]
    return z.reshape(n, n)


def contains(d: DomainDescriptor, z) -> bool:
    """Strict interior membership, smallest-eigenvalue margin 1e-12."""
    z = _as_point(d, z)
    k = d.kind
    if k is Kind.DISK:
        return abs(z[0]) < 1.0 - EIG_MARGIN
    if k is Kind.BALL:
        return float(np.linalg.norm(z)) < 1.0 - EIG_MARGIN
    if k is Kind.POLYDISK:
        return float(np.max(np.abs(z))) < 1.0 - EIG_MARGIN
    if k in (Kind.CARTAN1, Kind.CARTAN2, Kind.CARTAN3):
        Z = _matrix_of(d, z)
        if k is Kind.CARTAN2 and np.max(np.abs(Z - Z.T)) > 1e-12:
            return False
        if k is Kind.CARTAN3 and np.max(np.abs(Z + Z.T)) > 1e-12:
            return False
        gram = np.eye(Z.shape[0]) - Z @ Z.conj().T
        lo = float(np.min(np.linalg.eigvalsh(gram)))
        return lo > EIG_MARGIN
    if k is Kind.CARTAN4:
        nz2 = float(np.sum(np.abs(z) ** 2))
        a = abs(np.sum(z * z)) ** 2 + 1.0 - 2.0 * nz2
        return nz2 < 1.0 - EIG_MARGIN and a > EIG_MARGIN
    if k is Kind.PRODUCT:
        return all(contains(f, z[s:t]) for s, t, f in d.factor_slices())
    raise UnsupportedDomainError(f"membership test not available for {d}")


def _shell_counts(count: int, nshells: int) -> list[int]:
    base, rem = divmod(count, nshells)
    return [base + (1 if i < rem else 0) for i in range(nshells)]


def _shell_bands(shells: tuple[float, ...]) -> list[tuple[float, float]]:
    out = []
    for i, s in enumerate(shells):
        hi = shells[i + 1] if i + 1 < len(shells) else (1.0 + s) / 2.0
        out.append((s, hi))
    return out


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    g = rng.standard_normal((count, 2 * n))
    u = g[:, :n] + 1j * g[:, n:]
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return u / norms


def _cartan4_reach(u: np.ndarray) -> np.ndarray:
    # largest s with s*u interior along a unit direction u:
    # A(s*u) = c^2 s^4 - 2 s^2 + 1 with c = |sum u_j^2| stays positive
    # for s^2 < 1/(1 + sqrt(1 - c^2)), which also enforces |s*u| < 1
    c2 = np.abs(np.sum(u * u, axis=1)) ** 2
    c2 = np.clip(c2, 0.0, 1.0)
    return 1.0 / np.sqrt(1.0 + np.sqrt(1.0 - c2))


def _role_rng(ss: np.random.SeedSequence, role: int) -> np.random.Generator:
    # one substream per draw role, so growing the sample count extends
    # every role's stream instead of shifting the later roles
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=ss.entropy, spawn_key=ss.spawn_key + (role,))))


def _sample_band(d: DomainDescriptor, c: int, ss: np.random.SeedSequence,
                 lo: float, hi: float) -> np.ndarray:
    n = d.ambient_dim
    t = lo + (hi - lo) * _role_rng(ss, 0).random(c)
    k = d.kind
    if k in (Kind.DISK, Kind.BALL):
        u = _unit_directions(_role_rng(ss, 1), c, n)
        return u * t[:, None]
    if k is Kind.POLYDISK:
        # every coordinate modulus sits inside the band: probes the torus
        mod = lo + (hi - lo) * _role_rng(ss, 1).random((c, n))
        ang = 2.0 * np.pi * _role_rng(ss, 2).random((c, n))
        return mod * np.exp(1j * ang)
    if k in (Kind.CARTAN1, Kind.CARTAN2, Kind.CARTAN3):
        if k is Kind.CARTAN1:
            m, q = d.dims
        else:
            m = q = d.dims[0]
        g = (_role_rng(ss, 1).standard_normal((c, m, q))
             + 1j * _role_rng(ss, 2).standard_normal((c, m, q)))
        if k is Kind.CARTAN2:
            g = (g + np.transpose(g, (0, 2, 1))) / 2.0
        elif k is Kind.CARTAN3:
            g = (g - np.transpose(g, (0, 2, 1))) / 2.0
        ops = np.linalg.norm(g, ord=2, axis=(1, 2))
        ops[ops == 0] = 1.0
        return (g * (t / ops)[:, None, None]).reshape(c, n)
    if k is Kind.CARTAN4:
        u = _unit_directions(_role_rng(ss, 1), c, n)
        return u * (t * _cartan4_reach(u))[:, None]
    raise UnsupportedDomainError(f"no interior sampler for {d}")


def sample_interior(d: DomainDescriptor, count: int, seed: int,
                    shells: tuple[float, ...] = DEFAULT_SHELLS) -> np.ndarray:
    """Stratified interior sample, (count, ambient_dim) complex array.

    Points split evenly across boundary-proximity shells (counts within
    one of count/len(shells)); each shell draws its radial factor from
    [shell, next shell). Per-shell substreams keep the first half of a
    doubled draw identical, so sampled suprema never shrink when the
    sample count grows.
    """
    if count < 1:
        raise UsageError("sample count must be >= 1")
    if d.kind is Kind.PRODUCT:
        slices = d.factor_slices()
        out = np.empty((count, d.ambient_dim), dtype=np.complex128)
        for i, (s, t, f) in enumerate(slices):
            sub = np.random.SeedSequence(entropy=seed, spawn_key=(101, i))
            out[:, s:t] = _stratified(f, count, sub, shells)
        return out
    return _stratified(d, count, np.random.SeedSequence(entropy=seed), shells)


def _stratified(d: DomainDescriptor, count: int, ss: np.random.SeedSequence,
                shells: tuple[float, ...]) -> np.ndarray:
    bands = _shell_bands(tuple(shells))
    counts = _shell_counts(count, len(bands))
    pieces = []
    for i, ((lo, hi), c) in enumerate(zip(bands, counts)):
        if c == 0:
            continue
        shell_ss = np.random.SeedSequence(entropy=ss.entropy,
                                          spawn_key=ss.spawn_key + (i,))
        pieces.append(_sample_band(d, c, shell_ss, lo, hi))
    return np.concatenate(pieces, axis=0)


def sample_near_distinguished_boundary(d: DomainDescriptor, count: int,
                                       eps: float, seed: int) -> np.ndarray:
    """Points at distance eps from the distinguished boundary.

    Ball: |z| = 1 - eps (the sphere is its own distinguished boundary).
    Polydisk: every |z_k| = 1 - eps (near the torus). Products: per factor.
    """
    if not (0.0 < eps < 1.0):
        raise UsageError("eps must be in (0, 1)")
    # keyed on the exact bits of eps, so distinct eps draw distinct streams
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(202, int(np.float64(eps).view(np.uint64))))))
    return _near_boundary(d, count, eps, rng)


def _near_boundary(d, count, eps, rng) -> np.ndarray:
    k = d.kind
    n = d.ambient_dim
    r = 1.0 - eps
    if k in (Kind.DISK, Kind.BALL):
        return _unit_directions(rng, count, n) * r
    if k is Kind.POLYDISK:
        ang = 2.0 * np.pi * rng.random((count, n))
        return r * np.exp(1j * ang)
    if k is Kind.PRODUCT:
        out = np.empty((count, n), dtype=np.complex128)
        for s, t, f in d.factor_slices():
            out[:, s:t] = _near_boundary(f, count, eps, rng)
        return out
    raise UnsupportedDomainError(f"no distinguished-boundary sampler for {d}")
