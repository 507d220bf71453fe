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
    with the factors of exponent 0 skipped."""

    def __init__(self, exps: np.ndarray):
        top = int(exps.max(initial=0))
        self.powers = np.arange(top + 1)
        self.index = np.moveaxis(exps + (top + 1) * np.arange(exps.shape[-1]), -1, 0)
        self.live = np.moveaxis(exps != 0, -1, 0)

    def __call__(self, coef: np.ndarray, Z: np.ndarray) -> np.ndarray:
        m = Z.shape[0]
        table = (Z[:, :, None] ** self.powers).reshape(m, -1)
        acc = np.zeros((m, coef.shape[0], coef.shape[1] + 1), dtype=np.complex128)
        terms = acc[:, :, 1:]
        terms[...] = coef
        for index, live in zip(self.index, self.live):
            np.multiply(terms, table[:, index], out=terms, where=live)
        np.cumsum(acc, axis=2, out=acc)
        return acc[:, :, -1].copy()


@lru_cache(maxsize=128)
def _table_sums(shape: tuple[int, int], pows_bytes: bytes):
    """The value sum and the n gradient sums of an int64 exponent matrix.
    Gradient sum j keeps the terms with p_j != 0 in order, padded to a
    common width; slot w takes coefficient source[j, w] (the zero appended
    after the last one for padding) times scale[j, w] = p_j."""
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
    return _Sums(pows[None]), _Sums(exps), source, scale


def poly_eval_table(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return _table_sums(pows.shape, pows.tobytes())[0](coeffs[None], Z)[:, 0]


def poly_grad_table(pows: np.ndarray, coeffs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    _, grad, source, scale = _table_sums(pows.shape, pows.tobytes())
    return grad(np.append(coeffs, 0)[source] * scale, Z)


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
