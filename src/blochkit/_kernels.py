"""Hot numeric kernels: sparse polynomial values and gradients.

Every sampled supremum reduces to evaluating sum_t c_t prod_j z_j^p_tj
and its gradient at the rows of Z. Both kernels start each term from its
coefficient, multiply in its factors z_j^p (p != 0) in ascending j and
add the terms onto zero in order, so their results agree bit for bit on
batches below 16 384 rows. From 16 384 complex128 rows (256 KiB) on,
numpy elides the temporary of the loop's `term * Z[:, k] ** p` and
multiplies in place, which can round the last bit differently; a row's
loop result then depends on the batch it came in:

- the power table, for calls with at most TABLE_MAX_POINTS points such
  as the batched refinement steps, computes z_j^k once and gathers
  every term's factors from it in a few array operations;
- the term loop, for large sample batches, amortizes its per-term
  overhead over the points.

The family kernel (`poly_grad_family`) gives row i the gradient of
member which[i] of a tuple of polynomials: the members' gradient blocks
are padded with zero terms to one width and stacked, and each row
gathers its member's exponents and coefficients. It always runs through
the power table, in chunks of at most TABLE_MAX_POINTS rows, which keeps
every row's result bit for bit that of `poly_grad_table` for its member:
the padding terms are zeros added after the member's own terms, onto a
running sum that started from +0. Refinement steps of a family (the
operator-norm battery) make one such call over all of their rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The table is faster up to a few hundred points; switching at 32 keeps its
# temporaries (points x terms x coordinates complex values) small.
TABLE_MAX_POINTS = 32


def poly_eval_loop(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    m = Z.shape[0]
    out = np.zeros(m, dtype=np.complex128)
    for t in range(pows.shape[0]):
        term = np.full(m, coeffs[t])
        for j in range(pows.shape[1]):
            p = pows[t, j]
            if p:
                term = term * Z[:, j] ** p
        out += term
    return out


def poly_grad_loop(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    m, n = Z.shape
    out = np.zeros((m, n), dtype=np.complex128)
    for t in range(pows.shape[0]):
        for j in range(n):
            pj = pows[t, j]
            if pj == 0:
                continue
            term = np.full(m, coeffs[t] * pj)
            for k in range(n):
                p = pows[t, k] - (1 if k == j else 0)
                if p:
                    term = term * Z[:, k] ** p
            out[:, j] += term
    return out


class _Sums:
    """In-order sums of monomials read from a table of coordinate powers:
    sum r at row i of Z is sum_w coef[r, w] * prod_k Z[i, k]^exps[r, w, k],
    with the factors of exponent 0 skipped. A family stacks its members'
    blocks on a leading axis of exps and coef, and row i then sums the
    block of member which[i]."""

    def __init__(self, exps: np.ndarray):
        top = int(exps.max(initial=0))
        self.powers = np.arange(top + 1)
        self.index = np.moveaxis(exps + (top + 1) * np.arange(exps.shape[-1]), -1, 0)
        self.live = np.moveaxis(exps != 0, -1, 0)

    def __call__(self, coef: np.ndarray, Z: np.ndarray,
                 which: np.ndarray | None = None) -> np.ndarray:
        m = Z.shape[0]
        table = (Z[:, :, None] ** self.powers).reshape(m, -1)
        index, live = self.index, self.live
        if which is not None:
            # row i reads its member's exponents from row i of the table
            index = index[:, which] + table.shape[1] * np.arange(m)[:, None, None]
            live, coef, table = live[:, which], coef[which], table.reshape(-1)
        acc = np.zeros((m, coef.shape[-2], coef.shape[-1] + 1), dtype=np.complex128)
        terms = acc[:, :, 1:]
        terms[...] = coef
        for index_k, live_k in zip(index, live):
            np.multiply(terms, table[..., index_k], out=terms, where=live_k)
        np.cumsum(acc, axis=2, out=acc)
        return acc[:, :, -1].copy()


@lru_cache(maxsize=128)
def _table_sums(shape: tuple[int, int], pows_bytes: bytes):
    """The value sum and the n gradient sums of an int64 exponent matrix.
    Gradient sum j keeps the terms with p_j != 0 in order, padded to a
    common width; slot w has exponents exps[j, w], and takes coefficient
    source[j, w] (the zero appended after the last one for padding) times
    scale[j, w] = p_j."""
    pows = np.frombuffer(pows_bytes, dtype=np.int64).reshape(shape)
    t, n = shape
    width = int(np.count_nonzero(pows, axis=0).max(initial=0))
    exps = np.zeros((n, width, n), dtype=np.int64)
    source = np.full((n, width), t)
    scale = np.zeros((n, width), dtype=np.int64)
    for j in range(n):
        rows = np.flatnonzero(pows[:, j])
        exps[j, :len(rows)] = pows[rows]
        exps[j, :len(rows), j] -= 1
        source[j, :len(rows)] = rows
        scale[j, :len(rows)] = pows[rows, j]
    return _Sums(pows[None]), _Sums(exps), exps, source, scale


def _key(pows: np.ndarray, coeffs: np.ndarray) -> tuple:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return pows.shape, pows.tobytes(), coeffs.tobytes()


@lru_cache(maxsize=256)
def _grad_block(shape: tuple[int, int], pows_bytes: bytes, coeffs_bytes: bytes):
    """A polynomial's gradient sums, their exponents and their gathered
    coefficients."""
    _, sums, exps, source, scale = _table_sums(shape, pows_bytes)
    coeffs = np.frombuffer(coeffs_bytes, dtype=np.complex128)
    return sums, exps, np.append(coeffs, 0)[source] * scale


@lru_cache(maxsize=32)
def _family_block(members: tuple):
    """The gradient blocks of several polynomials (one `_key` each),
    padded with zero terms to one width and stacked."""
    blocks = [_grad_block(*key)[1:] for key in members]
    n = members[0][0][1]
    width = max(exps.shape[1] for exps, _ in blocks)
    exps = np.zeros((len(blocks), n, width, n), dtype=np.int64)
    coef = np.zeros((len(blocks), n, width), dtype=np.complex128)
    for k, (e, c) in enumerate(blocks):
        exps[k, :, :e.shape[1]] = e
        coef[k, :, :c.shape[1]] = c
    return _Sums(exps), coef


def poly_eval_table(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return _table_sums(pows.shape, pows.tobytes())[0](coeffs[None], Z)[:, 0]


def poly_grad_table(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    sums, _, coef = _grad_block(*_key(pows, coeffs))
    return sums(coef, Z)


def poly_grad_family(members):
    """The gradient of a family of polynomials, each member a (pows,
    coeffs) pair of one arity: a function grad(Z, which) whose row i is
    the gradient of members[which[i]] at Z[i], computed through the power
    table in chunks of at most TABLE_MAX_POINTS rows."""
    sums, coef = _family_block(tuple(_key(*member) for member in members))

    def grad(Z: np.ndarray, which: np.ndarray) -> np.ndarray:
        out = np.empty(Z.shape, dtype=np.complex128)
        for s in range(0, Z.shape[0], TABLE_MAX_POINTS):
            t = s + TABLE_MAX_POINTS
            out[s:t] = sums(coef, Z[s:t], which[s:t])
        return out
    return grad


def poly_eval(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    if Z.shape[0] <= TABLE_MAX_POINTS:
        return poly_eval_table(pows, coeffs, Z)
    return poly_eval_loop(pows, coeffs, Z)


def poly_grad(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    if Z.shape[0] <= TABLE_MAX_POINTS:
        return poly_grad_table(pows, coeffs, Z)
    return poly_grad_loop(pows, coeffs, Z)


def backend_name() -> str:
    return "numpy"
