"""Exploratory probes for the open questions.

Each probe emits a data table (point, bound columns, empirical columns)
meant for external plotting. No probe draws a conclusion: the verdict
field is always "exploratory".
"""

from __future__ import annotations

import numpy as np

from .bloch import omega_empirical_lower
from .domains import (_ROWS, DomainDescriptor, sample_interior,
                      sample_near_distinguished_boundary)
from .errors import UnsupportedDomainError, UsageError
from .estimates import DEFAULT_EPS_LADDER, SamplingConfig
from .metric import rho_from_origin
from .operators import _opnorms
from .report import AnalysisReport
from .symbols import SymbolExpr, coordinate, format_complex

PROBES = ("omega-vs-rho", "omega-vs-omega0", "omega0-blowup",
          "norm-sharpness")

# the metric-supported kinds of the domain table; no products
_ALLOWED = tuple(k for k, row in _ROWS.items() if row.gauge is not None)


def _check_domain(d: DomainDescriptor):
    if d.kind not in _ALLOWED:
        raise UnsupportedDomainError(
            f"probes run on disk, ball, or polydisk domains, not {d}")


def _fmt_point(z: np.ndarray) -> str:
    return "(" + ", ".join(format_complex(complex(c)) for c in z) + ")"


def _report(question: str, d: DomainDescriptor, cfg: SamplingConfig,
            symbol: str | None = None) -> AnalysisReport:
    rep = AnalysisReport(command=f"probe {question}", domain=str(d),
                         symbol=symbol, seed=cfg.seed, samples=cfg.samples)
    rep.verdicts["probe"] = "exploratory"
    return rep


def probe_omega_vs_rho(d: DomainDescriptor, cfg: SamplingConfig,
                       npoints: int = 100) -> AnalysisReport:
    """Empirical growth lower bound against the metric-distance interval.

    Row layout: value = witness lower bound for the growth function,
    [lower, upper] = distance interval from the origin.
    """
    _check_domain(d)
    rep = _report("omega-vs-rho", d, cfg)
    for i, z in enumerate(sample_interior(d, npoints, cfg.seed, cfg.shells)):
        est = rho_from_origin(d, z)
        rep.add(f"z{i}={_fmt_point(z)}", omega_empirical_lower(d, z), est.lower, est.upper,
                "probe-row", "open:growth-vs-distance")
    return rep


def probe_omega_vs_omega0(d: DomainDescriptor, cfg: SamplingConfig,
                          npoints: int = 100) -> AnalysisReport:
    """Unrestricted witness floor against the vanishing-class floor.

    Row layout: value = unrestricted lower bound, lower = vanishing-class
    lower bound, upper = unrestricted lower bound (repeated so plots can
    band the pair).
    """
    _check_domain(d)
    rep = _report("omega-vs-omega0", d, cfg)
    for i, z in enumerate(sample_interior(d, npoints, cfg.seed, cfg.shells)):
        full = omega_empirical_lower(d, z)
        little = omega_empirical_lower(d, z, little=True)
        rep.add(f"z{i}={_fmt_point(z)}", full, little, full, "probe-row",
                "open:growth-vs-vanishing-growth")
    return rep


def probe_omega0_blowup(d: DomainDescriptor, cfg: SamplingConfig,
                        eps_ladder: tuple[float, ...] = DEFAULT_EPS_LADDER,
                        ndirs: int = 5) -> AnalysisReport:
    """Vanishing-class growth floor along distinguished-boundary ladders.

    ndirs points are drawn at boundary distance eps of the first rung and
    scaled by (1 - eps) / (1 - eps_0) to each later rung, so point j keeps
    its direction along the ladder; value = vanishing-class lower bound,
    with the rung min/max in [lower, upper].
    """
    _check_domain(d)
    if not eps_ladder or any(not (0.0 < eps < 1.0) for eps in eps_ladder):
        raise UsageError("the eps ladder needs one or more rungs in (0, 1)")
    rep = _report("omega0-blowup", d, cfg)
    Z0 = sample_near_distinguished_boundary(d, ndirs, eps_ladder[0], cfg.seed)
    for eps in eps_ladder:
        Z = Z0 * ((1.0 - eps) / (1.0 - eps_ladder[0]))
        vals = [omega_empirical_lower(d, z, little=True) for z in Z]
        for j in range(ndirs):
            rep.add(f"eps={eps:g} dir{j}", vals[j], min(vals), max(vals), "probe-row",
                    "open:vanishing-growth-blowup")
    return rep


def probe_norm_sharpness(d: DomainDescriptor, cfg: SamplingConfig,
                         psi: SymbolExpr | None = None,
                         symbol_text: str | None = None) -> AnalysisReport:
    """Gap between the certified operator-norm upper bound and the best
    battery lower bound for one symbol (default: the first coordinate)."""
    _check_domain(d)
    if psi is None:
        psi = coordinate(1, d.ambient_dim)
        symbol_text = symbol_text or "z1"
    rep = _report("norm-sharpness", d, cfg, symbol=symbol_text)
    (nb, emp), = _opnorms(d, [psi], cfg, seed=cfg.seed)
    rows = [
        ("empirical-lower", emp, emp, nb.upper),
        ("sandwich-lower", nb.lower, nb.lower, nb.upper),
        ("sandwich-upper", nb.upper, max(emp, nb.lower), nb.upper),
        ("gap-upper-minus-empirical", nb.upper - emp, 0.0, nb.upper),
        ("component-sup", nb.sup.lower, nb.sup.lower, nb.sup.upper),
        ("component-bloch", nb.bloch.lower, nb.bloch.lower, nb.bloch.upper),
        ("component-sigma", nb.sigma.lower, nb.sigma.lower, nb.sigma.upper),
    ]
    for name, v, lo, hi in rows:
        rep.add(name, v, lo, hi, "probe-row", "open:norm-gap")
    return rep


def run_probe(question: str, d: DomainDescriptor, cfg: SamplingConfig,
              psi: SymbolExpr | None = None, symbol_text: str | None = None,
              eps_ladder: tuple[float, ...] = DEFAULT_EPS_LADDER) -> AnalysisReport:
    if question == "omega-vs-rho":
        return probe_omega_vs_rho(d, cfg)
    if question == "omega-vs-omega0":
        return probe_omega_vs_omega0(d, cfg)
    if question == "omega0-blowup":
        return probe_omega0_blowup(d, cfg, eps_ladder)
    if question == "norm-sharpness":
        return probe_norm_sharpness(d, cfg, psi, symbol_text)
    raise UsageError(
        f"unknown probe {question!r}; choose from {', '.join(PROBES)}")
