"""Command-line front end.

One subcommand per toolkit question, flags for domain/symbol/point and
sampling configuration, reports rendered as json (default), csv, or
pretty text. Flag values override a --config key=value file, which
overrides built-in defaults; BLOCHKIT_SEED overrides the default seed.

Exit codes: 0 success, 1 usage or parse error, 2 numerical-domain
error, 3 verify-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .bloch import (_components, beta_upper_poly, omega_bounds,
                    omega_empirical_lower, q_value)
from .constants import (bloch_constant, bloch_constant_candidates,
                        has_disk_factor, in_class_D, registry_table,
                        standard_form)
from .domains import DomainDescriptor, parse_domain
from .errors import (DimensionMismatch, NumericalDomainError, ParseError,
                     SuiteFailure, UsageError)
from .estimates import DEFAULT_EPS_LADDER, SamplingConfig
from .metric import rho_from_origin
from .operators import (_sandwich_parts, boundedness_verdict,
                        compactness_verdict, empirical_opnorm_lower,
                        isometry_verdict, norm_bounds, operator_report,
                        spectrum_cloud)
from .probes import PROBES, run_probe
from .report import AnalysisReport, render, timings_enabled
from .symbols import Polynomial, parse_symbol
from .verify import SUITES, run_suite

_FORMATS = ("json", "csv", "pretty")

# one `beta` call peaks at up to 66 bytes per sample and per coordinate
# (tracemalloc, disk to ball:10, linear in the sample count)
_SAMPLE_BYTES = 80

_CONFIG_KEYS = ("domain", "symbol", "point", "samples", "seed", "shells",
                "eps-ladder", "format", "out", "suite", "question", "k")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _load_config(path: str) -> dict[str, str]:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        out[key] = val.strip()
    return out


def parse_point(text: str, arity: int) -> np.ndarray:
    vals = []
    for part in text.split(","):
        s = part.strip().replace(" ", "")
        if not s:
            raise ParseError("empty component in --point")
        try:
            vals.append(complex(s))
        except ValueError:
            raise ParseError(f"bad complex literal {s!r} in --point") from None
    if len(vals) != arity:
        raise DimensionMismatch(
            f"point has {len(vals)} components, domain needs {arity}")
    return np.array(vals, dtype=np.complex128)


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"bad float list for {what}: {text!r}") from None


def _int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _check_samples(samples: int, spec) -> None:
    """Refuse a sample count whose arrays would not fit in physical memory."""
    if samples < 1:
        raise UsageError("--samples must be >= 1")
    try:
        n = parse_domain(spec).ambient_dim if spec else 1
    except UsageError:
        n = 1  # the command reports the bad domain itself
    cap = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (_SAMPLE_BYTES * n)
    if samples > cap:
        raise UsageError(f"--samples {samples} would not fit in memory "
                         f"(at most {cap} on a {n}-coordinate domain)")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE")
    common.add_argument("--domain", metavar="SPEC")
    common.add_argument("--symbol", metavar="TEXT")
    common.add_argument("--point", metavar="Z1,Z2,...")
    common.add_argument("--samples", metavar="N")
    common.add_argument("--seed", metavar="S")
    common.add_argument("--eps-ladder", metavar="E1,E2,...")
    common.add_argument("--suite", choices=tuple(SUITES) + ("all",))
    common.add_argument("--out", metavar="FILE")
    common.add_argument("--format", choices=_FORMATS)
    common.add_argument("--k", metavar="DEPTH")

    p = _Parser(prog="blochkit",
                description="Bloch-space calculus and multiplication-operator "
                            "criteria on bounded symmetric domains.")
    sub = p.add_subparsers(dest="command", metavar="command")
    helps = {
        "domain": "describe a domain: dimension, class, constants",
        "qf": "invariant gradient length of a symbol at a point",
        "beta": "sampled Bloch seminorm of a symbol",
        "omega": "extremal growth bounds at a point",
        "rho": "metric distance from the origin to a point",
        "sigma": "boundary multiplier weights of a symbol",
        "bounds": "full boundedness report with the norm sandwich",
        "opnorm": "operator-norm sandwich plus battery lower bound",
        "spectrum": "sampled spectrum cloud summary",
        "compactness": "compactness verdict with witness",
        "isometry": "isometry verdict with power diagnostics",
        "constants": "Bloch constant registry or one domain's constants",
        "verify": "run a theorem suite (exit 3 on failure)",
        "probe": "data table for one open question",
    }
    for name, h in helps.items():
        sp = sub.add_parser(name, parents=[common], help=h)
        if name == "probe":
            sp.add_argument("question", nargs="?", choices=PROBES)
    return p


def _resolve(args) -> tuple[dict, str]:
    filecfg = _load_config(args.config) if args.config else {}

    def pick(flag, key):
        return flag if flag is not None else filecfg.get(key)

    seed = pick(args.seed, "seed")
    if seed is None:
        seed = os.environ.get("BLOCHKIT_SEED") or 42
    samples = _int(pick(args.samples, "samples") or 20000, "--samples")
    _check_samples(samples, pick(args.domain, "domain"))
    kw = dict(samples=samples, seed=_int(seed, "--seed"))
    if "shells" in filecfg:
        kw["shells"] = _parse_floats(filecfg["shells"], "shells")
    opts = {
        "cfg": SamplingConfig(**kw),
        "domain": pick(args.domain, "domain"),
        "symbol": pick(args.symbol, "symbol"),
        "point": pick(args.point, "point"),
        "suite": pick(args.suite, "suite") or "all",
        "out": pick(args.out, "out"),
        "k": _int(pick(args.k, "k") or 16, "--k"),
        "question": pick(getattr(args, "question", None), "question"),
    }
    ladder = pick(getattr(args, "eps_ladder", None), "eps-ladder")
    opts["eps_ladder"] = (_parse_floats(ladder, "--eps-ladder")
                          if ladder else DEFAULT_EPS_LADDER)
    fmt = pick(args.format, "format") or "json"
    if fmt not in _FORMATS:
        raise UsageError(f"format must be one of {', '.join(_FORMATS)}")
    return opts, fmt


def _need(opts, *what) -> list:
    out = []
    for w in what:
        if opts.get(w) is None:
            raise UsageError(f"this command requires --{w}")
        out.append(opts[w])
    return out


def _domain_symbol(opts) -> tuple[DomainDescriptor, object, str]:
    spec, text = _need(opts, "domain", "symbol")
    d = parse_domain(spec)
    return d, parse_symbol(text, d.ambient_dim), text


def _base(command: str, opts, d=None, symbol: str | None = None) -> AnalysisReport:
    cfg = opts["cfg"]
    return AnalysisReport(command=command, domain=None if d is None else str(d),
                          symbol=symbol, seed=cfg.seed, samples=cfg.samples)


def _run_domain(opts) -> AnalysisReport:
    (spec,) = _need(opts, "domain")
    d = parse_domain(spec)
    rep = _base("domain", opts, d)
    rep.add("ambient-dim", float(d.ambient_dim), mode="exact", ref="setup:descriptor")
    rep.add("bloch-constant", bloch_constant(d), mode="exact",
            ref="constants:closed-forms")
    cit, swp = bloch_constant_candidates(d)
    rep.add("bloch-constant-swapped", swp, mode="exact",
            ref="constants:exceptional-ambiguity")
    if cit != swp:
        rep.verdicts["constant-binding"] = "ambiguous"
    rep.verdicts["standard-form"] = standard_form(d)
    rep.verdicts["in-class-D"] = str(in_class_D(d)).lower()
    rep.verdicts["has-disk-factor"] = str(has_disk_factor(d)).lower()
    rep.verdicts["metric-supported"] = str(d.metric_supported).lower()
    return rep


def _run_qf(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    (pt,) = _need(opts, "point")
    z = parse_point(pt, d.ambient_dim)
    rep = _base("qf", opts, d, text)
    rep.add("q-value", q_value(d, psi, z), mode="exact", ref="q:closed-form")
    return rep


def _run_beta(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    cfg = opts["cfg"]
    cert = beta_upper_poly(psi) if isinstance(psi, Polynomial) else None
    parts = _components(d, psi, cfg, {"beta": cert, "bloch": None})
    rep = _base("beta", opts, d, text)
    rep.add_interval("beta", parts["beta"], ref="seminorm:sampled")
    rep.add_interval("bloch-norm", parts["bloch"], ref="seminorm:plus-origin-value")
    return rep


def _run_omega(opts) -> AnalysisReport:
    (spec,) = _need(opts, "domain")
    d = parse_domain(spec)
    (pt,) = _need(opts, "point")
    z = parse_point(pt, d.ambient_dim)
    cfg = opts["cfg"]
    rep = _base("omega", opts, d)
    rep.add_interval("omega", omega_bounds(d, z), ref="growth:bounds")
    rep.add("omega0-lower", omega_empirical_lower(d, z, cfg, little=True),
            mode="sampled-lower", ref="growth:vanishing-class-witness")
    return rep


def _run_rho(opts) -> AnalysisReport:
    (spec,) = _need(opts, "domain")
    d = parse_domain(spec)
    (pt,) = _need(opts, "point")
    z = parse_point(pt, d.ambient_dim)
    rep = _base("rho", opts, d)
    rep.add_interval("rho", rho_from_origin(d, z), ref="distance:from-origin")
    return rep


def _run_sigma(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    parts = _sandwich_parts(d, psi, opts["cfg"], ("sigma", "sigma0"))
    rep = _base("sigma", opts, d, text)
    rep.add_interval("sigma", parts["sigma"], ref="weight:full-growth")
    rep.add_interval("sigma0", parts["sigma0"], ref="weight:vanishing-growth")
    return rep


def _run_bounds(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    cfg = opts["cfg"]
    op = operator_report(d, psi, text, cfg)
    rep = _base("bounds", opts, d, text)
    rep.add_interval("sup-norm", op.sup_norm, ref="norm:sup-component")
    rep.add_interval("bloch-norm", op.bloch_norm, ref="norm:bloch-component")
    rep.add_interval("sigma", op.sigma, ref="weight:full-growth")
    rep.add_interval("sigma0", op.sigma0, ref="weight:vanishing-growth")
    rep.add("norm-lower", op.verdicts["norm_lower"], mode="sampled-lower",
            ref="norm:sandwich")
    rep.add("norm-upper-B", op.verdicts["norm_upper_B"],
            mode="analytic-bounds", ref="norm:sandwich")
    rep.add("norm-upper-B0*", op.verdicts["norm_upper_B0*"],
            mode="analytic-bounds", ref="norm:sandwich")
    bd = op.verdicts["boundedness"]
    rep.verdicts["boundedness-B"] = bd["verdict"]
    rep.verdicts["boundedness-B-note"] = bd["note"]
    b0 = boundedness_verdict(d, psi, cfg, opts["eps_ladder"], space="B0*")
    rep.verdicts["boundedness-B0*"] = b0.verdict
    rep.verdicts["boundedness-B0*-note"] = b0.note
    return rep


def _run_opnorm(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    cfg = opts["cfg"]
    nb = norm_bounds(d, psi, cfg)
    emp = empirical_opnorm_lower(d, psi, cfg, seed=cfg.seed)
    rep = _base("opnorm", opts, d, text)
    rep.add("sandwich-lower", nb.lower, mode="sampled-lower", ref="norm:sandwich")
    rep.add("sandwich-upper", nb.upper, mode="analytic-bounds", ref="norm:sandwich")
    rep.add("battery-lower", emp, mode="sampled-lower", ref="norm:battery")
    rep.add_interval("sup-norm", nb.sup, ref="norm:sup-component")
    rep.add_interval("bloch-norm", nb.bloch, ref="norm:bloch-component")
    rep.add_interval("sigma", nb.sigma, ref="weight:full-growth")
    return rep


def _run_spectrum(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    cloud = spectrum_cloud(d, psi, opts["cfg"])
    rep = _base("spectrum", opts, d, text)
    rep.add("max-modulus", float(np.max(np.abs(cloud.points))),
            mode="sampled-lower", ref="spectrum:range-closure")
    rep.add("hull-area", cloud.hull_area, mode="sampled-lower",
            ref="spectrum:range-closure")
    for nm, v in zip(("bbox-re-min", "bbox-re-max", "bbox-im-min",
                      "bbox-im-max"), cloud.bbox):
        rep.add(nm, v, mode="sampled-lower", ref="spectrum:range-closure")
    rep.add("points", float(cloud.points.size), mode="exact",
            ref="spectrum:range-closure")
    rep.verdicts["singleton"] = str(cloud.is_singleton).lower()
    return rep


def _run_compactness(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    cr = compactness_verdict(d, psi, opts["cfg"])
    rep = _base("compactness", opts, d, text)
    rep.verdicts["compactness"] = cr.verdict
    for key, val in cr.witness.items():
        rep.verdicts[f"witness-{key}"] = (
            val if isinstance(val, str) else repr(val))
    return rep


def _run_isometry(opts) -> AnalysisReport:
    d, psi, text = _domain_symbol(opts)
    ir = isometry_verdict(d, psi, opts["cfg"], k_max=opts["k"])
    rep = _base("isometry", opts, d, text)
    rep.verdicts["isometry"] = ir.verdict
    rep.verdicts["reason"] = ir.reason
    if ir.ceiling is not None:
        rep.add("ceiling", ir.ceiling, mode="exact", ref="constants:closed-forms")
    if ir.modulus_at_zero is not None:
        rep.add("modulus-at-zero", ir.modulus_at_zero, mode="exact",
                ref="isometry:power-route")
    for k, v in enumerate(ir.modulus_powers, start=1):
        rep.add(f"modulus-power-{k}", v, mode="exact", ref="isometry:power-route")
    if ir.crossing_k is not None:
        rep.add("crossing-k", float(ir.crossing_k), mode="exact",
                ref="isometry:power-route")
    for k, b in sorted(ir.power_betas.items()):
        rep.add(f"power-seminorm-{k}", b, mode="sampled-lower",
                ref="isometry:seminorm-ceiling")
    return rep


def _run_constants(opts) -> AnalysisReport:
    if opts["domain"]:
        d = parse_domain(opts["domain"])
        rep = _base("constants", opts, d)
        rep.seed = rep.samples = None
        rep.add("bloch-constant", bloch_constant(d), mode="exact",
                ref="constants:closed-forms")
        cit, swp = bloch_constant_candidates(d)
        rep.add("bloch-constant-swapped", swp, mode="exact",
                ref="constants:exceptional-ambiguity")
        rep.verdicts["standard-form"] = standard_form(d)
        rep.verdicts["in-class-D"] = str(in_class_D(d)).lower()
        if cit != swp:
            rep.verdicts["constant-binding"] = "ambiguous"
        return rep
    rep = _base("constants", opts)
    rep.seed = rep.samples = None
    for row in registry_table():
        rep.add(row["domain"], row["constant"], mode="exact",
                ref="constants:closed-forms")
        if row["constant_swapped"] != row["constant"]:
            rep.add(row["domain"] + " (swapped)", row["constant_swapped"],
                    mode="exact", ref="constants:exceptional-ambiguity")
        rep.verdicts[row["domain"]] = row["class"]
    return rep


def _run_verify(opts) -> AnalysisReport:
    _, rep = run_suite(opts["suite"], seed=opts["cfg"].seed)
    return rep


def _run_probe(opts) -> AnalysisReport:
    question = opts.get("question")
    if not question:
        raise UsageError(f"probe needs a question: {', '.join(PROBES)}")
    (spec,) = _need(opts, "domain")
    d = parse_domain(spec)
    psi = text = None
    if opts["symbol"]:
        text = opts["symbol"]
        psi = parse_symbol(text, d.ambient_dim)
    return run_probe(question, d, opts["cfg"], psi, text, opts["eps_ladder"])


_ACTIONS = {
    "domain": _run_domain, "qf": _run_qf, "beta": _run_beta,
    "omega": _run_omega, "rho": _run_rho, "sigma": _run_sigma,
    "bounds": _run_bounds, "opnorm": _run_opnorm, "spectrum": _run_spectrum,
    "compactness": _run_compactness, "isometry": _run_isometry,
    "constants": _run_constants, "verify": _run_verify, "probe": _run_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage().rstrip())
        opts, fmt = _resolve(args)
        t0 = time.perf_counter()
        report = _ACTIONS[args.command](opts)
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        text = render(report, fmt)
        if opts["out"]:
            with open(opts["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if timings_enabled():
            print(f"[timing] {args.command}: {report.elapsed_ms:.1f} ms",
                  file=sys.stderr)
        if args.command == "verify" and report.verdicts.get("overall") != "pass":
            raise SuiteFailure("one or more verify checks failed")
        return 0
    except SuiteFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalDomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
