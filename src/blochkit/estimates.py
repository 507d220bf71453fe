"""Interval estimates with honesty flags, sampling config, decay profiles."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isinf, isnan

from .errors import UsageError

MODE_EXACT = "exact"
MODE_SAMPLED_LOWER = "sampled-lower"
MODE_ANALYTIC_BOUNDS = "analytic-bounds"

_MODES = (MODE_EXACT, MODE_SAMPLED_LOWER, MODE_ANALYTIC_BOUNDS)

DEFAULT_EPS_LADDER = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class EstimateInterval:
    """[lower, upper] with a mode flag.

    exact: lower == upper is the true value. sampled-lower: the interval
    is a sampled lower estimate (upper may be +inf). analytic-bounds:
    ends come from proved envelopes around the true value.
    """

    lower: float
    upper: float
    mode: str
    samples: int = 0
    seed: int | None = None
    argmax: tuple | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise UsageError(f"unknown estimate mode {self.mode!r}")
        if isnan(self.lower) or isnan(self.upper):
            raise UsageError("NaN estimate")
        if self.lower > self.upper:
            raise UsageError(f"inverted interval [{self.lower}, {self.upper}]")
        if self.mode == MODE_EXACT and self.lower != self.upper:
            raise UsageError("exact estimates need lower == upper")

    @property
    def value(self) -> float:
        """Representative point: the exact value, or the certified lower end."""
        return self.lower

    def as_dict(self) -> dict:
        """lower, upper (None when infinite) and mode, for JSON reports."""
        return {"lower": self.lower,
                "upper": None if isinf(self.upper) else self.upper,
                "mode": self.mode}


def exact(v: float) -> EstimateInterval:
    return EstimateInterval(float(v), float(v), MODE_EXACT)


@dataclass(frozen=True)
class SamplingConfig:
    samples: int = 20000
    seed: int = 42
    shells: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99, 0.999)
    refine_iters: int = 50
    refine_restarts: int = 5

    def __post_init__(self):
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if not self.shells or any(not (0.0 <= s < 1.0) for s in self.shells):
            raise UsageError("shells must be a nonempty list in [0, 1)")
        if self.refine_iters < 0 or self.refine_restarts < 0:
            raise UsageError("refine_iters and refine_restarts must be >= 0")

    def with_(self, **kw) -> "SamplingConfig":
        return replace(self, **kw)


def _check_ladder(eps) -> tuple[float, ...]:
    eps = tuple(eps)
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise UsageError(f"an eps ladder needs at least two rungs, each below the last: {eps}")
    return eps


@dataclass(frozen=True)
class DecayProfile:
    """Max sampled Q on distinguished-boundary shells, one row per eps."""

    eps: tuple[float, ...]
    max_q: tuple[float, ...]
    samples_per_eps: int

    def __post_init__(self):
        if len(self.eps) != len(self.max_q):
            raise UsageError("profile needs one value per eps rung")
        _check_ladder(self.eps)

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.eps, self.max_q))
