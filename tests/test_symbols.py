import math
import time
import tracemalloc

import numpy as np
import pytest

from blochkit import (
    combine,
    constant,
    coordinate,
    evaluate,
    evaluate_many,
    gradient,
    gradient_many,
    parse_symbol,
    supnorm_upper,
)
from blochkit.errors import BranchCutError, DimensionMismatch, ParseError, UsageError
from blochkit import _kernels
from blochkit.symbols import (DEGREE_CAP, TERM_CAP, LogFrac, Polynomial, Power, Product, Sum,
                              _logfrac_grad, _logfrac_values, _poly_arrays,
                              _poly_mul, format_complex, is_constant, jet_many,
                              power_within_caps)

from conftest import mkpoly


# ---------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text,arity,point,expected",
    [
        ("z1", 1, 0.3 + 0.1j, 0.3 + 0.1j),
        ("2+3i", 1, 0.5, 2 + 3j),
        ("i", 1, 0.5, 1j),
        ("-z1", 1, 0.25, -0.25),
        ("z1^3", 1, 0.5, 0.125),
        ("(1-0.5i)*z2^2", 2, (0.0, 0.5), (1 - 0.5j) * 0.25),
        ("z1*z2 + 0.5", 2, (0.5, 0.2), 0.1 + 0.5),
        ("(z1+z2)^2", 2, (0.1, 0.2), 0.09),
        ("0.5 * (z1 - i)", 1, 0.5, 0.5 * (0.5 - 1j)),
    ],
)
def test_parse_and_evaluate(text, arity, point, expected):
    f = parse_symbol(text, arity)
    assert evaluate(f, point) == pytest.approx(expected, abs=1e-12)


def test_parse_log_fraction_forms():
    f = parse_symbol("fw(1,0.5)", 1)
    assert isinstance(f, LogFrac) and f.form == "f" and f.k == 1
    h = parse_symbol("h(2,(0.1+0.2i))", 2)
    assert isinstance(h, LogFrac) and h.form == "h" and h.k == 2
    assert h.w == pytest.approx(0.1 + 0.2j)


@pytest.mark.parametrize(
    "text,err",
    [
        ("", ParseError),
        ("z1 +", ParseError),
        ("(z1", ParseError),
        ("z1 z2", ParseError),
        ("z0", DimensionMismatch),
        ("z3", DimensionMismatch),
        ("fw(1,1.5)", UsageError),  # parameter must be interior
        ("h(1,0)", UsageError),  # h-form needs a nonzero parameter
        ("fw(3,0.5)", DimensionMismatch),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_symbol(text, 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="position"):
        parse_symbol("z1 + ", 1)


def test_format_complex_round_trip():
    for c in (0.5, -1.25 + 0.75j, 2j, -3.0, 0.1 - 0.9j, 0.0):
        text = format_complex(c)
        f = parse_symbol(text, 1)
        assert evaluate(f, 0.0) == pytest.approx(complex(c), abs=1e-15)


# ---------------------------------------------------------------- evaluation


def test_log_fraction_values():
    f = parse_symbol("fw(1,0.5)", 1)
    assert evaluate(f, 0.5) == pytest.approx(math.atanh(0.25), abs=1e-14)
    assert evaluate(f, 0.0) == pytest.approx(0.0, abs=1e-14)
    h = parse_symbol("h(1,0.5)", 1)
    assert evaluate(h, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-14)
    w = 0.2 + 0.4j
    hw = LogFrac(1, 1, w, "h")
    assert evaluate(hw, w) == pytest.approx(math.atanh(abs(w)), abs=1e-12)


def test_log_fraction_branch_and_pole():
    h = parse_symbol("h(1,0.5)", 1)
    with pytest.raises(BranchCutError):
        evaluate(h, 1.5)  # ratio lands on the negative real axis
    with pytest.raises(BranchCutError):
        evaluate(h, 1.0)  # pole of the fraction


def test_evaluate_many_batches_match_scalar():
    f = parse_symbol("z1^2*z2 + fw(2,0.3)", 2)
    Z = np.array([[0.1 + 0.2j, 0.3], [0.0, 0.0], [0.5, -0.4j]], dtype=complex)
    vals = evaluate_many(f, Z)
    for i, z in enumerate(Z):
        assert vals[i] == pytest.approx(evaluate(f, z), abs=1e-14)


def test_gradient_frozen_cases():
    f = mkpoly(2, {(1, 1): 1.0})  # z1*z2
    g = gradient(f, (0.5, 0.25))
    assert g[0] == pytest.approx(0.25)
    assert g[1] == pytest.approx(0.5)
    sq = mkpoly(1, {(2,): 1.0})
    assert gradient(sq, 0.3)[0] == pytest.approx(0.6)


def test_gradient_product_and_power_nodes():
    base = combine("product", parse_symbol("fw(1,0.5)", 1), mkpoly(1, {(1,): 1.0}))
    z = 0.3 + 0.1j
    # product rule against a manual computation
    fwv = evaluate(parse_symbol("fw(1,0.5)", 1), z)
    fwd = gradient(parse_symbol("fw(1,0.5)", 1), z)[0]
    expected = fwd * z + fwv
    assert gradient(base, z)[0] == pytest.approx(expected, abs=1e-12)
    p = combine("power", mkpoly(1, {(1,): 1.0, (0,): 0.5}), 3)
    zp = 0.2
    assert gradient(p, zp)[0] == pytest.approx(3 * (zp + 0.5) ** 2, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(10):
        arity = int(rng.integers(1, 4))
        terms = {}
        for _ in range(4):
            e = tuple(int(k) for k in rng.integers(0, 3, size=arity))
            terms[e] = complex(rng.standard_normal(), rng.standard_normal())
        cases.append((arity, mkpoly(arity, terms)))
    cases.append((1, parse_symbol("fw(1,0.4)", 1)))
    cases.append((2, combine("product", parse_symbol("h(1,0.3)", 2), mkpoly(2, {(0, 1): 1.0}))))
    h = 1e-6
    checked = 0
    for arity, f in cases:
        for _ in range(100):
            z = 0.4 * (rng.standard_normal(arity) + 1j * rng.standard_normal(arity))
            g = gradient(f, z)
            for k in range(arity):
                e = np.zeros(arity, dtype=complex)
                e[k] = h
                num = (evaluate(f, z + e) - evaluate(f, z - e)) / (2 * h)
                scale = max(1.0, abs(g[k]))
                assert abs(num - g[k]) <= 1e-6 * scale, (f, z, k)
                checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------- algebra


def test_combine_folds_polynomials():
    a = mkpoly(2, {(1, 0): 1.0})
    b = mkpoly(2, {(0, 1): 2.0})
    s = combine("sum", a, b)
    assert isinstance(s, Polynomial)
    p = combine("product", a, b)
    assert isinstance(p, Polynomial)
    assert evaluate(p, (0.5, 0.25)) == pytest.approx(0.25)
    pw = combine("power", a, 3)
    assert isinstance(pw, Polynomial)
    assert pw.degree == 3


def test_power_degree_cap():
    f = mkpoly(1, {(5,): 1.0})
    with pytest.raises(UsageError):
        combine("power", f, DEGREE_CAP // 5 + 1)


def test_power_term_cap():
    # (1+z1+...+z4)^64 would expand to C(68, 4) = 814385 terms; the
    # exponent check refuses it before any power is expanded
    base = parse_symbol("1+z1+z2+z3+z4", 4)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(UsageError, match="terms"):
            combine("power", base, 64)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert elapsed < 1.0
    assert len(combine("power", base, 16).terms) == math.comb(20, 4) < TERM_CAP


def test_power_within_caps_agrees_with_the_expansion():
    rng = np.random.default_rng(5)
    # every monomial of degree <= 3 in two variables: C(10 + k - 1, k)
    # passes the term cap from k = 8 on, the k-fold sumset never does
    dense = mkpoly(2, {(a, b): complex(*rng.standard_normal(2))
                       for a in range(4) for b in range(4 - a)})
    cases = [(dense, k) for k in (1, 2, 4, 8, 16)]
    cases += [(parse_symbol("1+z1+z2+z3+z4", 4), k) for k in (8, 16, 17)]
    cases += [(parse_symbol("0.5+z1^5", 2), k) for k in (12, 13)]
    for f, k in cases:
        # combine refuses by power_within_caps itself, so the reference is
        # the pairwise expansion, which checks the caps term by term
        try:
            out = f
            for _ in range(k - 1):
                out = _poly_mul(out, f)
            expands = True
        except UsageError:
            expands = False
        assert power_within_caps(f, k) == expands, (f, k)
    assert power_within_caps(LogFrac(1, 1, 0.5, "f"), 64)


def test_is_constant():
    assert is_constant(constant(3.5, 2)) == pytest.approx(3.5)
    assert is_constant(constant(0.0, 1)) == pytest.approx(0.0)
    assert is_constant(coordinate(1, 2)) is None
    assert is_constant(parse_symbol("fw(1,0.5)", 1)) is None
    folded = combine("sum", constant(1.0, 1), constant(2.0, 1))
    assert is_constant(folded) == pytest.approx(3.0)


def test_supnorm_upper():
    p = mkpoly(2, {(1, 0): 1.0, (0, 2): -2j})
    assert supnorm_upper(p) == pytest.approx(3.0)
    fw = parse_symbol("fw(1,0.5)", 1)
    expected = 0.5 * math.hypot(math.log(3.0), math.pi / 2)
    assert supnorm_upper(fw) == pytest.approx(expected, abs=1e-12)
    h = parse_symbol("h(1,0.5)", 1)
    assert supnorm_upper(h) == math.inf
    both = combine("sum", parse_symbol("z1", 1), fw)
    assert supnorm_upper(both) == pytest.approx(1.0 + expected, abs=1e-12)


def test_combine_arity_mismatch():
    with pytest.raises(UsageError):
        combine("sum", mkpoly(1, {(1,): 1.0}), mkpoly(2, {(1, 0): 1.0}))


def test_evaluate_checks_dimension():
    f = mkpoly(2, {(1, 0): 1.0})
    with pytest.raises(UsageError):
        evaluate(f, (0.1, 0.2, 0.3))


def _formula_values(f, Z):
    # values and gradients node by node, each part evaluated on its own
    if isinstance(f, Polynomial):
        return _kernels.poly_eval(*_poly_arrays(f), Z)
    if isinstance(f, LogFrac):
        return _logfrac_values(f, Z[:, f.k - 1])
    if isinstance(f, Sum):
        out = np.zeros(Z.shape[0], dtype=np.complex128)
        for p in f.parts:
            out += _formula_values(p, Z)
        return out
    if isinstance(f, Product):
        out = np.ones(Z.shape[0], dtype=np.complex128)
        for p in f.parts:
            out *= _formula_values(p, Z)
        return out
    return _formula_values(f.base, Z) ** f.exponent


def _formula_gradients(f, Z):
    m, n = Z.shape
    if isinstance(f, Polynomial):
        return _kernels.poly_grad(*_poly_arrays(f), Z)
    if isinstance(f, LogFrac):
        return _logfrac_grad(f, Z)
    if isinstance(f, Sum):
        out = np.zeros((m, n), dtype=np.complex128)
        for p in f.parts:
            out += _formula_gradients(p, Z)
        return out
    if isinstance(f, Product):
        vals = [_formula_values(p, Z) for p in f.parts]
        k = len(f.parts)
        pre = np.ones((k, m), dtype=np.complex128)
        suf = np.ones((k, m), dtype=np.complex128)
        for i in range(1, k):
            pre[i] = pre[i - 1] * vals[i - 1]
            suf[k - 1 - i] = suf[k - i] * vals[k - i]
        out = np.zeros((m, n), dtype=np.complex128)
        for i, p in enumerate(f.parts):
            out += _formula_gradients(p, Z) * (pre[i] * suf[i])[:, None]
        return out
    vals = _formula_values(f.base, Z)
    return _formula_gradients(f.base, Z) * (f.exponent * vals ** (f.exponent - 1))[:, None]


@pytest.mark.parametrize("m", [1, 32, 40])
def test_jet_many_matches_the_node_formulas_bitwise(m):
    poly = parse_symbol("0.3 - 0.2i + (0.5+0.1i)*z1*z2 - 0.4*z2^3", 2)
    mono = parse_symbol("(0.7-0.2i)*z1^2", 2)
    fw, h = LogFrac(2, 1, 0.4 - 0.3j, "f"), LogFrac(2, 2, 0.6j, "h")
    symbols = [Sum(2, (poly, fw, h)), Product(2, (mono, fw, poly, h)),
               Power(2, Sum(2, (fw, poly)), 3), Product(2, (Power(2, h, 2), Sum(2, (mono, fw))))]
    rng = np.random.default_rng(m)
    Z = 0.6 * np.sqrt(rng.random((m, 2))) * np.exp(2j * np.pi * rng.random((m, 2)))

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    for f in symbols:
        vals, grads = _formula_values(f, Z), _formula_gradients(f, Z)
        for value, grad in ((True, True), (True, False), (False, True)):
            v, g = jet_many(f, Z, value, grad)
            assert (v is None) != value and (g is None) != grad
            if value:
                np.testing.assert_array_equal(bits(v), bits(vals))
            if grad:
                np.testing.assert_array_equal(bits(g), bits(grads))
        np.testing.assert_array_equal(bits(evaluate_many(f, Z)), bits(vals))
        np.testing.assert_array_equal(bits(gradient_many(f, Z)), bits(grads))


def test_gradient_many_shapes():
    f = parse_symbol("z1*z2^2", 2)
    Z = np.zeros((5, 2), dtype=complex)
    Z[:, 0] = np.linspace(0.1, 0.5, 5)
    Z[:, 1] = 0.25j
    G = gradient_many(f, Z)
    assert G.shape == (5, 2)
    np.testing.assert_allclose(G[:, 0], (0.25j) ** 2, atol=1e-14)
