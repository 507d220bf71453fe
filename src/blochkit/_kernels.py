"""Hot numeric kernels: sparse polynomial values and gradients.

Every sampled supremum reduces to evaluating psi = sum_t c_t prod_j z_j^p_tj
and its gradient at the rows of Z. A polynomial is held as one cached
jet of n + 1 monomial sums: psi, and for each j the sum d_j psi of the
terms with p_j != 0 in order, with exponent p - e_j and coefficient
c p_j, padded with zero terms to one width. A call computes only the
sums it asks for. Each sum starts every term from its coefficient,
multiplies in its factors z_j^p (p != 0) in ascending j and adds the
terms onto +0 in order, so zero padding leaves it unchanged. Two
schedules, chosen by the point count, run the sums and agree bit for bit
whatever the batch:

- the power table (`_table`), for at most TABLE_MAX_POINTS rows such as
  the refinement steps, computes z_j^k once and gathers every term's
  factors from it;
- the term loop (`_loop`), for sample batches, amortizes its per-term
  overhead over the points, LOOP_CHUNK rows at a time: from 16 384
  complex128 rows (256 KiB) on, numpy multiplies a loop's temporaries in
  place, which can round the last bit differently. Each chunk raises
  every distinct factor z_j^p of the asked sums once, and every term
  multiplies its factors from those arrays. The factor z^1 is the column
  z itself. The table's z ** 1 differs from z only where a component is
  a zero of the other sign, and a sum that starts from +0 never shows the
  sign of a zero: the factors change no nonzero bit of a product, and +0
  plus a zero of either sign is +0. Each sum adds its terms onto +0 in
  one contiguous buffer of the chunk's rows and stores it once.

A family of polynomials has one jet too, each block stacked over the
members and padded with zero terms: `poly_jet_family` gives row i the
value and the gradient of member which[i] through the table, in chunks
of at most TABLE_MAX_POINTS rows, bit for bit each member's own.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# The table is faster up to a few hundred points; switching at 32 keeps its
# temporaries (points x terms x coordinates complex values) small.
TABLE_MAX_POINTS = 32
LOOP_CHUNK = 8192


class _Sums:
    """Monomial sums in order: sum s at row i of Z is
    sum_w coef[s, w] prod_k Z[i, k]^exps[s, w, k], with the factors of
    exponent 0 skipped, and its first counts[s] terms are its own (the
    rest are zero padding). A family stacks its members' sums on a
    leading axis of exps and coef. `index` and `live` gather the factors
    from a table of the powers 0..top of every coordinate. For the term
    loop, `terms[s]` lists the (coefficient, factors) of sum s's own
    terms, each factor a (j, p) pair with p != 0 in ascending j, and
    `pairs` the sorted distinct pairs of all the sums."""

    def __init__(self, exps: np.ndarray, coef: np.ndarray, top: int, counts=()):
        self.exps, self.coef, self.counts = exps, coef, counts
        self.index = np.moveaxis(exps + (top + 1) * np.arange(exps.shape[-1]), -1, 0)
        self.live = np.moveaxis(exps != 0, -1, 0)

    @cached_property
    def terms(self) -> list[list[tuple]]:
        return [[(c, tuple((j, p) for j, p in enumerate(e) if p))
                 for e, c in zip(self.exps[s, :count].tolist(), self.coef[s])]
                for s, count in enumerate(self.counts)]

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted({f for terms in self.terms for _, fs in terms for f in fs})


class _Jet(NamedTuple):
    powers: np.ndarray  # 0..top, the columns of the power table
    value: _Sums
    grad: _Sums


def _key(pows: np.ndarray, coeffs: np.ndarray) -> tuple:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return pows.shape, pows.tobytes(), coeffs.tobytes()


@lru_cache(maxsize=256)
def _jet(shape: tuple[int, int], pows_bytes: bytes, coeffs_bytes: bytes) -> _Jet:
    """The jet of a polynomial given by its int64 exponent rows and its
    complex128 coefficients (`_key`): its value block (sum 0) and its
    gradient block (sums 1..n, cut to the longest)."""
    pows = np.frombuffer(pows_bytes, dtype=np.int64).reshape(shape)
    coeffs = np.frombuffer(coeffs_bytes, dtype=np.complex128)
    t, n = shape
    top = int(pows.max(initial=0))
    rows = [np.flatnonzero(pows[:, j]) for j in range(n)]
    counts = [len(r) for r in rows]
    # every block is at least two terms wide: numpy multiplies a lone
    # complex element without the fused multiply-add of its vector loop
    exps = np.zeros((n + 1, max(t, 2), n), dtype=np.int64)
    coef = np.zeros((n + 1, max(t, 2)), dtype=np.complex128)
    exps[0, :t], coef[0, :t] = pows, coeffs
    for j, r in enumerate(rows):
        exps[1 + j, :len(r)] = pows[r]
        exps[1 + j, :len(r), j] -= 1
        coef[1 + j, :len(r)] = coeffs[r] * pows[r, j]
    grad = slice(max(counts + [2]))
    return _Jet(np.arange(top + 1), _Sums(exps[:1], coef[:1], top, [t]),
                _Sums(exps[1:, grad], coef[1:, grad], top, counts))


def _table(powers: np.ndarray, blocks, Z: np.ndarray,
           which: np.ndarray | None = None) -> list[np.ndarray]:
    """Each block of sums at the rows of Z, shape (m, sums), from one table
    of coordinate powers. Every block is summed in the layout it has
    alone, since numpy may round a complex product differently in another
    layout. With `which`, row i sums the block of family member which[i]."""
    m = Z.shape[0]
    table = (Z[:, :, None] ** powers).reshape(m, -1)
    if which is not None:
        # row i reads its member's exponents from row i of the table
        rows, table = table.shape[1] * np.arange(m)[:, None, None], table.reshape(-1)
    out = []
    for sums in blocks:
        index, live, coef = sums.index, sums.live, sums.coef
        if which is not None:
            index, live, coef = index[:, which] + rows, live[:, which], coef[which]
        acc = np.zeros((m, coef.shape[-2], coef.shape[-1] + 1), dtype=np.complex128)
        terms = acc[:, :, 1:]
        terms[...] = coef
        for index_k, live_k in zip(index, live):
            np.multiply(terms, table[..., index_k], out=terms, where=live_k)
        np.cumsum(acc, axis=2, out=acc)
        out.append(acc[:, :, -1].copy())
    return out


def _loop(blocks, Z: np.ndarray) -> list[np.ndarray]:
    """The same sums by a loop over the terms, LOOP_CHUNK rows at a time,
    raising each distinct factor once per chunk and adding each sum's
    terms in a contiguous buffer."""
    out = [np.empty((Z.shape[0], len(sums.counts)), dtype=np.complex128) for sums in blocks]
    pairs = sorted({f for sums in blocks for f in sums.pairs})
    for start in range(0, Z.shape[0], LOOP_CHUNK):
        Zc = Z[start:start + LOOP_CHUNK]
        # z ** 1 is z itself, up to the sign of a zero, which no sum shows
        factor = {(j, p): Zc[:, j] if p == 1 else Zc[:, j] ** np.int64(p)
                  for j, p in pairs}
        acc = np.empty(Zc.shape[0], dtype=np.complex128)
        for sums, block in zip(blocks, out):
            for s, terms in enumerate(sums.terms):
                acc[...] = 0.0
                for c, fs in terms:
                    term = np.full(Zc.shape[0], c)
                    for f in fs:
                        term = term * factor[f]
                    acc += term
                block[start:start + LOOP_CHUNK, s] = acc
    return out


def _sums(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray, *names) -> list[np.ndarray]:
    """The named blocks ("value", "grad") of a polynomial's jet at the rows
    of Z, through the schedule for their count."""
    jet = _jet(*_key(pows, coeffs))
    blocks = [getattr(jet, name) for name in names]
    if Z.shape[0] <= TABLE_MAX_POINTS:
        return _table(jet.powers, blocks, Z)
    return _loop(blocks, Z)


def poly_jet(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray):
    """(values, gradients) of a polynomial at the rows of Z, shapes (m,)
    and (m, n), from one pass over its jet."""
    vals, grads = _sums(pows, coeffs, Z, "value", "grad")
    return vals[:, 0], grads


def poly_eval(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return _sums(pows, coeffs, Z, "value")[0][:, 0]


def poly_grad(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return _sums(pows, coeffs, Z, "grad")[0]


@lru_cache(maxsize=32)
def _stacked(keys: tuple) -> _Jet:
    """The jets of several polynomials (one `_key` each), each block
    stacked on a leading member axis and padded with zero terms."""
    jets = [_jet(*key) for key in keys]
    powers = max((jet.powers for jet in jets), key=len)

    def stack(blocks):
        sums, width = blocks[0].coef.shape[0], max(b.coef.shape[1] for b in blocks)
        exps = np.zeros((len(blocks), sums, width, keys[0][0][1]), dtype=np.int64)
        coef = np.zeros(exps.shape[:3], dtype=np.complex128)
        for k, b in enumerate(blocks):
            exps[k, :, :b.coef.shape[1]], coef[k, :, :b.coef.shape[1]] = b.exps, b.coef
        return _Sums(exps, coef, len(powers) - 1)
    return _Jet(powers, stack([jet.value for jet in jets]), stack([jet.grad for jet in jets]))


def poly_jet_family(members):
    """The jet of a family of polynomials, each a (pows, coeffs) pair of
    one arity: a function jet(Z, which, value, grad) whose row i is
    (value, gradient) of members[which[i]] at Z[i], the half not asked
    for None."""
    family = _stacked(tuple(_key(*member) for member in members))

    def jet(Z: np.ndarray, which: np.ndarray, value: bool = True, grad: bool = True):
        blocks = [sums for sums, asked in ((family.value, value), (family.grad, grad)) if asked]
        chunks = [_table(family.powers, blocks, Z[s:s + TABLE_MAX_POINTS],
                         which[s:s + TABLE_MAX_POINTS])
                  for s in range(0, Z.shape[0], TABLE_MAX_POINTS)]
        out = iter(chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks)))
        return (next(out)[:, 0] if value else None), (next(out) if grad else None)
    return jet


def backend_name() -> str:
    return "numpy"
