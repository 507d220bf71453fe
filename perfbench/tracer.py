"""Per-layer counters and timers, recorded from outside the package.

The tracer replaces the bindings through which one layer calls another
(module attributes such as `blochkit.bloch.contains`) with wrappers that
count calls and work and add up time, and puts the originals back on
`uninstall`. Nothing under `src/` is edited. Wrappers record only while
`active` is set, and only the outermost call of a span (a span nested in
itself, or one listed in `skip_inside`, is passed straight through), so
`domains.contains` counts the calls the other layers make, not the
recursion inside a product domain.

Times are inclusive: `operators.norm_bounds.s` contains the time of the
`operators.sigma_estimate` calls it makes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from metrics import OPERATORS


class _Proxy:
    """Stands in for an imported module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.depth = defaultdict(int)
        self.active = False
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.totals = defaultdict(float)

    # -- patching ---------------------------------------------------------

    def _patch(self, module, attr: str, make):
        # a binding a later version renames or removes is listed in the
        # run's record and its metrics read zero
        if not hasattr(module, attr):
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(self, module, attr: str, name: str, work=None, skip_inside=(),
             when=None):
        """Count calls and time of `module.attr` under `name`, for calls
        whose arguments pass `when`; `work(args, kwargs, result)` returns
        extra {suffix: amount} to add."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if (not self.active or self.depth[name]
                        or any(self.depth[s] for s in skip_inside)
                        or (when is not None and not when(args))):
                    return fn(*args, **kwargs)
                self.depth[name] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    self.depth[name] -= 1
                self.totals[name + ".calls"] += 1
                self.totals[name + ".s"] += elapsed
                if work is not None:
                    for suffix, amount in work(args, kwargs, result).items():
                        self.totals[name + suffix] += amount
                return result
            return wrapper
        self._patch(module, attr, make)

    def install(self, bk):
        """Wrap the layer boundaries of an imported blochkit package."""
        self.missing = []
        bloch, metric, operators, kernels = (
            sys.modules.get(f"blochkit.{name}", f"blochkit.{name}")
            for name in ("bloch", "metric", "operators", "_kernels"))

        for mod in (bloch, metric):
            self.span(mod, "contains", "domains.contains")
        for mod in (bloch, operators):
            self.span(mod, "sample_interior", "domains.sample_interior",
                      work=lambda a, k, r: {".points": len(r)})
            self.span(mod, "q_value", "bloch.q_value")
            self.span(mod, "q_values", "bloch.q_values",
                      work=lambda a, k, r: {".points": len(r)},
                      skip_inside=("bloch.q_value",))
            self._patch(mod, "_sup_estimate", self._sup_wrapper)
        self._patch(kernels, "poly_grad", lambda fn: self._kernel_wrapper(fn, "grad"))
        self._patch(kernels, "poly_eval", lambda fn: self._kernel_wrapper(fn, "eval"))
        # combine also builds sums and products; only power expansion counts
        self.span(operators, "combine", "symbols.power",
                  when=lambda a: a[0] == "power",
                  work=lambda a, k, r: {".terms_out": len(getattr(r, "terms", ()))})
        self.span(metric, "path_length", "metric.path_length")
        self._patch(metric, "integrate", self._integrate_proxy)
        self._patch(metric, "optimize", self._optimize_proxy)
        for fn in OPERATORS:
            for mod in (operators, bk):
                self.span(mod, fn, f"operators.{fn}")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- special spans -----------------------------------------------------

    def _kernel_wrapper(self, fn, op):
        def wrapper(pows, coeffs, Z):
            if not self.active:
                return fn(pows, coeffs, Z)
            start = perf_counter()
            result = fn(pows, coeffs, Z)
            elapsed = perf_counter() - start
            m, terms = Z.shape[0], pows.shape[0]
            t = self.totals
            if m == 1:
                t[f"kernels.{op}.single.calls"] += 1
                t[f"kernels.{op}.single.terms"] += terms
                t[f"kernels.{op}.single.s"] += elapsed
            else:
                t[f"kernels.{op}.batch.calls"] += 1
                t[f"kernels.{op}.batch.term_points"] += m * terms
                t[f"kernels.{op}.batch.s"] += elapsed
            return result
        return wrapper

    def _sup_wrapper(self, fn):
        def wrapper(d, objective_batch, objective_point, cfg):
            if not self.active or self.depth["bloch.sup"]:
                return fn(d, objective_batch, objective_point, cfg)
            scan = {"s": 0.0, "max": -np.inf}

            def batch(Z):
                start = perf_counter()
                vals = objective_batch(Z)
                scan["s"] += perf_counter() - start
                scan["max"] = max(scan["max"], float(np.max(vals)))
                return vals

            sampler_before = self.totals["domains.sample_interior.s"]
            self.depth["bloch.sup"] += 1
            start = perf_counter()
            try:
                result = fn(d, batch, objective_point, cfg)
            finally:
                elapsed = perf_counter() - start
                self.depth["bloch.sup"] -= 1
            scan_s = scan["s"] + self.totals["domains.sample_interior.s"] - sampler_before
            t = self.totals
            t["bloch.sup.calls"] += 1
            t["bloch.sup.scan_s"] += scan_s
            t["bloch.sup.refine_s"] += elapsed - scan_s
            if cfg.refine_restarts > 0:
                t["bloch.sup.refine_attempts"] += 1
                t["bloch.sup.refine_raised"] += result[0] > scan["max"]
            return result
        return wrapper

    def _integrate_proxy(self, integrate):
        def quad(func, *args, **kwargs):
            if not self.active:
                return integrate.quad(func, *args, **kwargs)
            evals = [0]

            def counted(*x):
                evals[0] += 1
                return func(*x)

            start = perf_counter()
            result = integrate.quad(counted, *args, **kwargs)
            self.totals["metric.quad.s"] += perf_counter() - start
            self.totals["metric.quad.calls"] += 1
            self.totals["metric.quad.evals"] += evals[0]
            return result
        return _Proxy(integrate, quad=quad)

    def _optimize_proxy(self, optimize):
        def minimize(fun, x0, *args, **kwargs):
            if not self.active:
                return optimize.minimize(fun, x0, *args, **kwargs)
            start = perf_counter()
            result = optimize.minimize(fun, x0, *args, **kwargs)
            self.totals["metric.nelder_mead.s"] += perf_counter() - start
            self.totals["metric.nelder_mead.nfev"] += result.nfev
            return result
        return _Proxy(optimize, minimize=minimize)
