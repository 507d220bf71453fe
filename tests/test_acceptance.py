"""Acceptance gate: each test runs one stated criterion end to end.

The heavy lifting lives in the verification suites, which are executed once
per suite at seed 42 and cached for the module.  Every test prints a single
PASS/FAIL line for its criterion.
"""

import subprocess
import sys
import time

import pytest

from blochkit import run_suite


@pytest.fixture(scope="module")
def suites():
    cache = {}

    def get(name):
        if name not in cache:
            start = time.perf_counter()
            checks, report = run_suite(name, seed=42)
            cache[name] = (checks, report, time.perf_counter() - start)
        return cache[name]

    return get


def _named(checks, name):
    found = [c for c in checks if c.name == name]
    assert found, f"missing check {name!r}"
    return found[0]


def _emit(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{label}]: {state} {detail}".rstrip())


def test_criterion_01_oracle_vs_closed_form(suites):
    checks, _, elapsed = suites("q-oracle")
    c = _named(checks, "q-closed-form-vs-oracle")
    ok = c.passed and elapsed <= 30.0
    _emit(1, "q oracle <= closed form, gap <= 1e-3, <= 30 s", ok, f"({elapsed:.1f}s) {c.detail}")
    assert c.passed, c.detail
    assert elapsed <= 30.0, f"suite took {elapsed:.1f}s"


def test_criterion_02_disk_reduction(suites):
    checks, _, _ = suites("q-oracle")
    c = _named(checks, "q-disk-reduction")
    _emit(2, "disk reduction to 1e-12 on 1000 instances", c.passed, c.detail)
    assert c.passed, c.detail


def test_criterion_03_radial_growth_scale(suites):
    checks, _, _ = suites("omega")
    quad = _named(checks, "radial-distance-quadrature")
    floor = _named(checks, "ball-witness-floor")
    ok = quad.passed and floor.passed
    _emit(3, "radial quadrature 1e-4 at 100 radii; witnesses >= 95%", ok,
          f"{quad.detail}; {floor.detail}")
    assert quad.passed, quad.detail
    assert floor.passed, floor.detail


def test_criterion_04_polydisk_sandwich(suites):
    checks, _, _ = suites("omega")
    lo = _named(checks, "polydisk-sandwich-lower")
    hi = _named(checks, "polydisk-sandwich-upper")
    ok = lo.passed and hi.passed
    _emit(4, "polydisk sandwich at 500 points, 1e-9", ok, f"{lo.detail}; {hi.detail}")
    assert lo.passed, lo.detail
    assert hi.passed, hi.detail


def test_criterion_05_product_rule(suites):
    checks, _, _ = suites("product-rule")
    c = _named(checks, "q-product-rule")
    _emit(5, "product rule to 1e-12 on 1000 triples", c.passed, c.detail)
    assert c.passed, c.detail


def test_criterion_06_growth_lemma(suites):
    checks, _, _ = suites("growth-lemma")
    c = _named(checks, "growth-modulus-bound")
    _emit(6, "modulus growth bound with 1.05 sampling slack", c.passed, c.detail)
    assert c.passed, c.detail


def test_criterion_07_norm_sandwich(suites):
    checks, _, elapsed = suites("norm-sandwich")
    below = _named(checks, "opnorm-empirical-below-upper")
    covers = _named(checks, "opnorm-covers-bloch-component")
    ok = below.passed and covers.passed and elapsed <= 120.0
    _emit(7, "norm sandwich, 20 symbols x 2 domains, <= 2 min", ok,
          f"({elapsed:.1f}s) {below.detail}; {covers.detail}")
    assert below.passed, below.detail
    assert covers.passed, covers.detail
    assert elapsed <= 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_08_spectrum(suites):
    checks, _, _ = suites("spectrum")
    ok = all(c.passed for c in checks)
    _emit(8, "spectrum coverage and singleton", ok,
          "; ".join(c.detail for c in checks))
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_criterion_09_compactness(suites):
    checks, _, _ = suites("compactness")
    ok = all(c.passed for c in checks)
    _emit(9, "compactness dichotomy with witnesses", ok,
          "; ".join(c.detail for c in checks))
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_criterion_10_isometry(suites):
    checks, _, _ = suites("isometry")
    ok = all(c.passed for c in checks)
    _emit(10, "isometry verdicts and power crossing within K=16", ok,
          "; ".join(c.detail for c in checks))
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_criterion_11_constants_registry(suites):
    checks, _, _ = suites("constants")
    ok = all(c.passed for c in checks)
    _emit(11, "constants closed forms, product max, class membership", ok,
          "; ".join(c.detail for c in checks))
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_criterion_12_determinism():
    cmd = [sys.executable, "-m", "blochkit", "verify", "--suite", "all", "--seed", "42"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and elapsed <= 600.0
    )
    _emit(12, "verify --suite all twice: byte-identical, exit 0, <= 10 min", ok,
          f"({elapsed:.1f}s, rc={first.returncode}/{second.returncode})")
    assert first.returncode == 0, first.stderr[-2000:]
    assert second.returncode == 0, second.stderr[-2000:]
    assert first.stdout == second.stdout
    assert elapsed <= 600.0, f"two runs took {elapsed:.1f}s"


def test_suite_seed_keys_never_repeat(monkeypatch):
    # every draw of every suite claims its own stream: record the spawn
    # keys of the suites' calls to the stream helpers over one full run,
    # with the costly calls replaced by cheap stand-ins
    from types import SimpleNamespace

    import numpy as np

    from blochkit import coordinate, exact, verify

    keys = []

    def recording(fn):
        def wrapper(seed, *key):
            keys.append(key)
            return fn(seed, *key)
        return wrapper

    outcome = SimpleNamespace(verdict="", witness={}, crossing_k=None,
                              points=np.zeros(1), is_singleton=True, bbox=())
    stubs = {
        "_stream": recording(verify._stream),
        "_stream_seed": recording(verify._stream_seed),
        "sample_interior": lambda d, n, *a: np.zeros((n, d.ambient_dim), complex),
        "_random_poly": lambda rng, arity, *a, **k: coordinate(1, arity),
        "q_value": lambda *a: 0.0,
        "q_value_oracle": lambda *a, **k: 0.0,
        "path_length": lambda *a: 0.0,
        "_components": lambda d, asks, cfg: [{"beta": exact(0.0)} for _ in asks],
        "_opnorms": lambda *a, **k: [],
        "spectrum_cloud": lambda *a: outcome,
        "grid_coverage": lambda *a, **k: (None, 0),
        "compactness_verdict": lambda *a: outcome,
        "isometry_verdict": lambda *a: outcome,
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(verify, name, stub)
    for suite in verify.SUITES.values():
        suite(42)
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    assert len(keys) > 70
    assert not repeated, f"spawn keys used twice: {repeated}"
