"""Holomorphic symbol expressions: sparse polynomials and log-fraction
test functions, with exact gradients and a small expression grammar.

Grammar (case-sensitive, whitespace ignored):

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" uint)?
    base   := complex | "z" uint | "(" expr ")"
            | "fw(" uint "," complex ")" | "h(" uint "," complex ")"

Complex literals: a, bi, (a+bi), (a-bi) with decimal floats. "z1" is
the first coordinate. "fw(k, w)" and "h(k, w)" are the two log-fraction
forms in coordinate k with parameter w (principal branch Log only):

    fw: z -> (1/2) Log((1 + conj(w) z_k) / (1 - conj(w) z_k)),  |w| < 1
    h:  z -> (1/2) Log((|w| + z_k conj(w)) / (|w| - z_k conj(w))),  w != 0

Polynomial-only subexpressions fold to a single sparse polynomial at
parse time. Total degree is capped at 64 and an expanded product at
TERM_CAP terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
from functools import lru_cache
from math import comb, hypot, inf, log, pi

import numpy as np

from . import _kernels
from .errors import BranchCutError, DimensionMismatch, ParseError, UsageError

DEGREE_CAP = 64
TERM_CAP = 10_000  # stops an expansion early; also bounds kernel temporaries
BRANCH_GUARD = 1e-12


class SymbolExpr:
    """Base marker; concrete nodes are frozen dataclasses."""

    arity: int


@dataclass(frozen=True)
class Polynomial(SymbolExpr):
    arity: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]  # sorted multi-index -> coeff

    def __post_init__(self):
        for exps, _ in self.terms:
            if len(exps) != self.arity:
                raise DimensionMismatch("multi-index length != arity")
            if sum(exps) > DEGREE_CAP:
                raise UsageError(f"polynomial degree exceeds cap {DEGREE_CAP}")

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)


@dataclass(frozen=True)
class LogFrac(SymbolExpr):
    arity: int
    k: int  # 1-based coordinate index
    w: complex
    form: str  # "f" or "h"

    def __post_init__(self):
        if not (1 <= self.k <= self.arity):
            raise DimensionMismatch(f"coordinate {self.k} outside arity {self.arity}")
        if self.form == "f":
            if not abs(self.w) < 1.0:
                raise UsageError("fw parameter needs |w| < 1")
        elif self.form == "h":
            if self.w == 0:
                raise UsageError("h parameter must be nonzero")
        else:
            raise UsageError(f"unknown log form {self.form!r}")


@dataclass(frozen=True)
class Sum(SymbolExpr):
    arity: int
    parts: tuple[SymbolExpr, ...]


@dataclass(frozen=True)
class Product(SymbolExpr):
    arity: int
    parts: tuple[SymbolExpr, ...]


@dataclass(frozen=True)
class Power(SymbolExpr):
    arity: int
    base: SymbolExpr
    exponent: int

    def __post_init__(self):
        if not (0 <= self.exponent <= DEGREE_CAP):
            raise UsageError(f"exponent outside [0, {DEGREE_CAP}]")


def constant(value: complex, arity: int) -> Polynomial:
    if value == 0:
        return Polynomial(arity, ())
    return Polynomial(arity, (((0,) * arity, complex(value)),))


def coordinate(k: int, arity: int) -> Polynomial:
    if not (1 <= k <= arity):
        raise DimensionMismatch(f"coordinate {k} outside arity {arity}")
    exps = tuple(1 if j == k - 1 else 0 for j in range(arity))
    return Polynomial(arity, ((exps, 1.0 + 0.0j),))


def _poly_from_dict(arity: int, d: dict) -> Polynomial:
    items = tuple(sorted((e, c) for e, c in d.items() if c != 0))
    return Polynomial(arity, items)


def _poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    d = dict(a.terms)
    for e, c in b.terms:
        d[e] = d.get(e, 0) + c
    return _poly_from_dict(a.arity, d)


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    d: dict = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > DEGREE_CAP:
                raise UsageError(f"polynomial degree exceeds cap {DEGREE_CAP}")
            d[e] = d.get(e, 0) + ca * cb
        if len(d) > TERM_CAP:
            raise UsageError(f"polynomial expansion exceeds {TERM_CAP} terms")
    return _poly_from_dict(a.arity, d)


def _scale(f: SymbolExpr, c: complex) -> SymbolExpr:
    if isinstance(f, Polynomial):
        return _poly_from_dict(f.arity, {e: c * v for e, v in f.terms})
    return combine("product", constant(c, f.arity), f)


def power_within_caps(f: SymbolExpr, k: int) -> bool:
    """Whether `combine("power", f, k)` stays within the degree and term
    caps, decided from f's exponents alone (exact cancellation of
    coefficients is not counted on): f^k has degree k deg f, and its
    terms are the k-fold sumset of f's exponents, at most C(t + k - 1, k)
    for t terms, which settles most k without counting. A power of a
    symbol other than a polynomial is a `Power` node, never expanded."""
    if not isinstance(f, Polynomial) or k <= 1:
        return True
    if f.degree * k > DEGREE_CAP:
        return False
    return (comb(len(f.terms) + k - 1, k) <= TERM_CAP
            or _sumset_fits(_poly_arrays(f)[0], k))


def _sumset_fits(S: np.ndarray, k: int) -> bool:
    """Whether the k-fold sumset of the exponent rows S has at most
    TERM_CAP rows. Each row is packed into int64 words, one digit of
    radix k max_j + 1 per coordinate j, so that sums never carry; the
    count stops as soon as it passes TERM_CAP."""
    radix = k * S.max(axis=0) + 1
    words, word, place = [], np.zeros(len(S), dtype=np.int64), 1
    for j in range(S.shape[1]):
        if place * int(radix[j]) >= 2 ** 62:
            words.append(word)
            word, place = np.zeros(len(S), dtype=np.int64), 1
        word = word + S[:, j] * place
        place *= int(radix[j])
    K = np.stack(words + [word], axis=1)
    step = max(1, 2 ** 16 // len(K))  # rows of the sumset so far per chunk
    acc = K
    for _ in range(k - 1):
        seen = K[:0]
        for s in range(0, len(acc), step):
            seen = np.concatenate([seen, (acc[s:s + step, None] + K).reshape(-1, K.shape[1])])
            seen = seen[np.lexsort(seen.T)]
            seen = seen[np.r_[True, (seen[1:] != seen[:-1]).any(axis=1)]]
            if len(seen) > TERM_CAP:
                return False
        acc = seen
    return True


def is_constant(f: SymbolExpr) -> complex | None:
    """Symbolic constancy: the folded polynomial has no live coordinate."""
    if isinstance(f, Polynomial):
        if not f.terms:
            return 0j
        if len(f.terms) == 1 and sum(f.terms[0][0]) == 0:
            return f.terms[0][1]
    return None


def combine(op: str, *args) -> SymbolExpr:
    """sum/product of expressions, or power(expr, uint); folds polynomials.

    A polynomial power is checked against the degree cap and then
    `power_within_caps` before anything is expanded, so a power past
    either cap raises at once. The check reads exponents only: a power
    whose coefficients cancel exactly is refused by its exponent count."""
    if op == "power":
        base, k = args
        if not isinstance(k, int) or isinstance(k, bool):
            raise UsageError("power exponent must be an integer")
        if not (0 <= k <= DEGREE_CAP):
            raise UsageError(f"exponent outside [0, {DEGREE_CAP}]")
        if k == 0:
            return constant(1.0, base.arity)
        if k == 1:
            return base
        if isinstance(base, Polynomial):
            if base.degree * k > DEGREE_CAP:
                raise UsageError(f"polynomial degree exceeds cap {DEGREE_CAP}")
            if not power_within_caps(base, k):
                raise UsageError(f"polynomial expansion exceeds {TERM_CAP} terms")
            out = base
            for _ in range(k - 1):
                out = _poly_mul(out, base)
            return out
        return Power(base.arity, base, k)
    if op not in ("sum", "product"):
        raise UsageError(f"unknown combine op {op!r}")
    if not args:
        raise UsageError("combine needs at least one expression")
    arity = args[0].arity
    if any(a.arity != arity for a in args):
        raise DimensionMismatch("mixed arities in combine")
    flat: list[SymbolExpr] = []
    node = Sum if op == "sum" else Product
    for a in args:
        if isinstance(a, node):
            flat.extend(a.parts)
        else:
            flat.append(a)
    polys = [a for a in flat if isinstance(a, Polynomial)]
    rest = [a for a in flat if not isinstance(a, Polynomial)]
    folded = None
    if polys:
        folded = polys[0]
        for p in polys[1:]:
            folded = _poly_add(folded, p) if op == "sum" else _poly_mul(folded, p)
    if not rest:
        return folded if folded is not None else constant(0.0, arity)
    if op == "sum":
        parts = list(rest)
        if folded is not None and folded.terms:
            parts.append(folded)
        return parts[0] if len(parts) == 1 else Sum(arity, tuple(parts))
    # product
    if folded is not None:
        if not folded.terms:
            return constant(0.0, arity)
        rest = [folded] + rest
    return rest[0] if len(rest) == 1 else Product(arity, tuple(rest))


# ---------------------------------------------------------------------------
# evaluation

@lru_cache(maxsize=512)
def _poly_arrays(poly: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    t = len(poly.terms)
    pows = np.zeros((t, poly.arity), dtype=np.int64)
    coeffs = np.zeros(t, dtype=np.complex128)
    for i, (e, c) in enumerate(poly.terms):
        pows[i] = e
        coeffs[i] = c
    return pows, coeffs


def _log_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    if np.any(den == 0):
        raise BranchCutError("log-fraction pole")
    ratio = num / den
    bad = (ratio.real < 0) & (np.abs(ratio.imag) <= BRANCH_GUARD * np.abs(ratio))
    if np.any(bad) or not np.all(np.isfinite(ratio)):
        raise BranchCutError("Log argument within 1e-12 of the negative real axis")
    return np.log(ratio)


def _logfrac_values(f: LogFrac, Zk: np.ndarray) -> np.ndarray:
    w = f.w
    if f.form == "f":
        num, den = 1.0 + np.conj(w) * Zk, 1.0 - np.conj(w) * Zk
    else:
        aw = abs(w)
        num, den = aw + Zk * np.conj(w), aw - Zk * np.conj(w)
    return 0.5 * _log_ratio(num, den)


def _logfrac_grad(f: LogFrac, Z: np.ndarray) -> np.ndarray:
    w, Zk, aw = f.w, Z[:, f.k - 1], abs(f.w)
    num, den = ((np.conj(w), 1.0 - np.conj(w) ** 2 * Zk ** 2) if f.form == "f"
                else (aw * np.conj(w), aw * aw - Zk ** 2 * np.conj(w) ** 2))
    if np.any(den == 0):
        raise BranchCutError("log-fraction pole")
    out = np.zeros(Z.shape, dtype=np.complex128)
    out[:, f.k - 1] = num / den
    return out


def jet_many(f: SymbolExpr, Z: np.ndarray, value: bool = True,
             grad: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Values, shape (m,), and holomorphic gradients, shape (m, arity),
    of f at the rows of Z from one walk of its tree. The half not asked
    for is None and is not computed; a product or power still evaluates
    its parts for their gradients."""
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim != 2 or Z.shape[1] != f.arity:
        raise DimensionMismatch(f"points have shape {Z.shape}, expected (m, {f.arity})")
    m, n = Z.shape
    if isinstance(f, Polynomial):
        pows, coeffs = _poly_arrays(f)
        Z = np.ascontiguousarray(Z)
        if not grad:
            return _kernels.poly_eval(pows, coeffs, Z), None
        if not value:
            return None, _kernels.poly_grad(pows, coeffs, Z)
        return _kernels.poly_jet(pows, coeffs, Z)
    if isinstance(f, LogFrac):
        return (_logfrac_values(f, Z[:, f.k - 1]) if value else None,
                _logfrac_grad(f, Z) if grad else None)
    if isinstance(f, Sum):
        vals, grads = zip(*(jet_many(p, Z, value, grad) for p in f.parts))
        # in order onto +0, as the kernels add their terms
        return (sum(vals, np.zeros(m, dtype=np.complex128)) if value else None,
                sum(grads, np.zeros((m, n), dtype=np.complex128)) if grad else None)
    if isinstance(f, Product):
        parts = [jet_many(p, Z, True, grad) for p in f.parts]
        v = np.ones(m, dtype=np.complex128)
        for pv, _ in parts:
            v *= pv
        if not grad:
            return v, None
        # prefix/suffix products avoid dividing by zero values
        k = len(parts)
        pre = np.ones((k, m), dtype=np.complex128)
        suf = np.ones((k, m), dtype=np.complex128)
        for i in range(1, k):
            pre[i] = pre[i - 1] * parts[i - 1][0]
            suf[k - 1 - i] = suf[k - i] * parts[k - i][0]
        g = np.zeros((m, n), dtype=np.complex128)
        for i, (_, pg) in enumerate(parts):
            g += pg * (pre[i] * suf[i])[:, None]
        return (v if value else None), g
    if isinstance(f, Power):
        bv, bg = jet_many(f.base, Z, True, grad)
        return ((bv ** f.exponent if value else None),
                (bg * (f.exponent * bv ** (f.exponent - 1))[:, None] if grad else None))
    raise UsageError(f"cannot evaluate {type(f).__name__}")


def evaluate_many(f: SymbolExpr, Z: np.ndarray) -> np.ndarray:
    """Values of f at each row of Z, shape (m,)."""
    return jet_many(f, Z, grad=False)[0]


def gradient_many(f: SymbolExpr, Z: np.ndarray) -> np.ndarray:
    """Holomorphic gradients at each row of Z, shape (m, arity)."""
    return jet_many(f, Z, value=False)[1]


def jet_family(fs) -> Callable:
    """The jet of a family of symbols of one arity: a function
    jet(Z, which, value, grad) whose row i holds what `jet_many` gives
    for fs[which[i]] at Z[i]. A family of one symbol, however often it is
    listed, is a direct `jet_many` call over all rows; a family of
    polynomials is one call of the family kernel; any other family takes
    each member's rows, in order, to `jet_many`."""
    if all(f is fs[0] for f in fs):
        return lambda Z, which, value, grad: jet_many(fs[0], Z, value, grad)
    if all(isinstance(f, Polynomial) for f in fs):
        return _kernels.poly_jet_family([_poly_arrays(f) for f in fs])

    def jet(Z: np.ndarray, which: np.ndarray, value: bool, grad: bool):
        out = (np.empty(len(Z), dtype=np.complex128) if value else None,
               np.empty(Z.shape, dtype=np.complex128) if grad else None)
        for k, f in enumerate(fs):
            rows = which == k
            if rows.any():
                for block, got in zip(out, jet_many(f, Z[rows], value, grad)):
                    if got is not None:
                        block[rows] = got
        return out
    return jet


def evaluate(f: SymbolExpr, z) -> complex:
    return complex(evaluate_many(f, np.asarray(z, dtype=np.complex128).reshape(1, -1))[0])


def gradient(f: SymbolExpr, z) -> np.ndarray:
    return gradient_many(f, np.asarray(z, dtype=np.complex128).reshape(1, -1))[0]


def supnorm_upper(f: SymbolExpr) -> float:
    """Certified sup-modulus bound on the closed unit polydisk (hence on
    every supported domain). inf when no closed-form bound exists."""
    if isinstance(f, Polynomial):
        return float(sum(abs(c) for _, c in f.terms))
    if isinstance(f, LogFrac):
        if f.form == "h":
            return inf  # log blow-up at the coordinate pole
        aw = abs(f.w)
        return 0.5 * hypot(log((1.0 + aw) / (1.0 - aw)), pi / 2.0)
    if isinstance(f, Sum):
        return float(sum(supnorm_upper(p) for p in f.parts))
    if isinstance(f, Product):
        out = 1.0
        for p in f.parts:
            out *= supnorm_upper(p)
        return out
    if isinstance(f, Power):
        return supnorm_upper(f.base) ** f.exponent
    raise UsageError(f"no bound for {type(f).__name__}")


# ---------------------------------------------------------------------------
# parser

class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def number(self) -> float:
        self._skip()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            probe = self.pos + 1
            if probe < len(t) and t[probe] in "+-":
                probe += 1
            if probe < len(t) and t[probe].isdigit():
                self.pos = probe
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        try:
            return float(t[start:self.pos])
        except ValueError:
            raise ParseError(f"bad number {t[start:self.pos]!r}", start) from None

    def uint(self) -> int:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start:self.pos])


class _Parser:
    def __init__(self, text: str, arity: int):
        self.lx = _Lexer(text)
        self.arity = arity

    def parse(self) -> SymbolExpr:
        e = self.expr()
        if self.lx.peek() != "":
            raise ParseError("trailing input", self.lx.pos)
        return e

    def expr(self) -> SymbolExpr:
        # leading sign accepted as a convenience
        neg = False
        if self.lx.peek() == "-":
            self.lx.pos += 1
            neg = True
        elif self.lx.peek() == "+":
            self.lx.pos += 1
        e = self.term()
        if neg:
            e = _scale(e, -1.0)
        while True:
            ch = self.lx.peek()
            if ch == "+":
                self.lx.pos += 1
                e = combine("sum", e, self.term())
            elif ch == "-":
                self.lx.pos += 1
                e = combine("sum", e, _scale(self.term(), -1.0))
            else:
                return e

    def term(self) -> SymbolExpr:
        e = self.factor()
        while self.lx.peek() == "*":
            self.lx.pos += 1
            e = combine("product", e, self.factor())
        return e

    def factor(self) -> SymbolExpr:
        e = self.base()
        if self.lx.peek() == "^":
            self.lx.pos += 1
            e = combine("power", e, self.lx.uint())
        return e

    def complex_arg(self) -> complex:
        e = self.expr()
        c = is_constant(e)
        if c is None:
            raise ParseError("expected a complex literal", self.lx.pos)
        return c

    def base(self) -> SymbolExpr:
        ch = self.lx.peek()
        pos = self.lx.pos
        text = self.lx.text
        if ch == "(":
            self.lx.pos += 1
            e = self.expr()
            self.lx.expect(")")
            return e
        if ch == "z":
            self.lx.pos += 1
            return coordinate(self.lx.uint(), self.arity)
        if text.startswith("fw", pos):
            self.lx.pos += 2
            self.lx.expect("(")
            k = self.lx.uint()
            self.lx.expect(",")
            w = self.complex_arg()
            self.lx.expect(")")
            return LogFrac(self.arity, k, w, "f")
        if ch == "h":
            self.lx.pos += 1
            self.lx.expect("(")
            k = self.lx.uint()
            self.lx.expect(",")
            w = self.complex_arg()
            self.lx.expect(")")
            return LogFrac(self.arity, k, w, "h")
        if ch == "i":
            self.lx.pos += 1
            return constant(1j, self.arity)
        if ch.isdigit() or ch == ".":
            v = self.lx.number()
            if self.lx.peek() == "i":
                self.lx.pos += 1
                return constant(v * 1j, self.arity)
            return constant(v, self.arity)
        if ch == "-":
            self.lx.pos += 1
            v = self.lx.number()
            if self.lx.peek() == "i":
                self.lx.pos += 1
                return constant(-v * 1j, self.arity)
            return constant(-v, self.arity)
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input",
                         self.lx.pos)


def parse_symbol(text: str, arity: int) -> SymbolExpr:
    """Parse symbol text against the grammar for a given arity."""
    if arity < 1:
        raise UsageError("arity must be >= 1")
    if not text or not text.strip():
        raise ParseError("empty symbol text")
    return _Parser(text, arity).parse()


def format_complex(c: complex) -> str:
    """Grammar-compatible rendering of a complex value."""
    re, im = float(c.real), float(c.imag)
    sign = "+" if im >= 0 else "-"
    return f"({re!r}{sign}{abs(im)!r}i)"
