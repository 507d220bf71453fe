"""Command-line front end.

One subcommand per toolkit question, flags for domain/symbol/point and
sampling configuration, reports rendered as json (default), csv, or
pretty text. Flag values override a --config key=value file, which
overrides built-in defaults; BLOCHKIT_SEED overrides the default seed.

`_COMMANDS` is the one table of subcommands: name -> help line, the
inputs it requires among domain/symbol/point, and run. `_head` checks
and parses those inputs and builds the report head; run adds the rows
and verdicts, except that `verify` and `probe` return reports of their
own. --eps-ladder is read by `bounds` and `probe omega0-blowup`.

Exit codes: 0 success, 1 usage or parse error, 2 numerical-domain
error, 3 verify-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .bloch import (_components, beta_upper_poly, omega_empirical_lower,
                    q_value)
from .constants import (bloch_constant, bloch_constant_candidates,
                        has_disk_factor, in_class_D, registry_table,
                        standard_form)
from .domains import parse_domain
from .errors import (DimensionMismatch, NumericalDomainError, ParseError,
                     SuiteFailure, UsageError)
from .estimates import DEFAULT_EPS_LADDER, SamplingConfig
from .metric import rho_from_origin
from .operators import (_opnorms, _sandwich, _sandwich_parts, boundedness_verdict,
                        compactness_verdict, isometry_verdict, spectrum_cloud)
from .probes import PROBES, run_probe
from .report import _RENDERERS, AnalysisReport, render, timings_enabled
from .symbols import Polynomial, parse_symbol
from .verify import SUITES, run_suite

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
    common.add_argument("--format", choices=tuple(_RENDERERS))
    common.add_argument("--k", metavar="DEPTH")

    p = _Parser(prog="blochkit",
                description="Bloch-space calculus and multiplication-operator "
                            "criteria on bounded symmetric domains.")
    sub = p.add_subparsers(dest="command", metavar="command")
    for name, (h, _, _) in _COMMANDS.items():
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
    # None unless a flag or the config gives a ladder: each reader has its own default
    ladder = pick(getattr(args, "eps_ladder", None), "eps-ladder")
    opts["eps_ladder"] = _parse_floats(ladder or "", "--eps-ladder") or None
    fmt = pick(args.format, "format") or "json"
    if fmt not in _RENDERERS:
        raise UsageError(f"format must be one of {', '.join(_RENDERERS)}")
    return opts, fmt


def _head(command: str, inputs: tuple[str, ...], opts):
    """The report head of `command` and its parsed domain, symbol and
    point, each None unless among `inputs`. The domain and symbol flags
    are checked present before either is parsed, and both are parsed
    before the point is checked, so a bad domain is reported ahead of a
    missing point."""
    def need(w):
        if opts[w] is None:
            raise UsageError(f"this command requires --{w}")
        return opts[w]

    spec, text = [need(w) if w in inputs else None for w in ("domain", "symbol")]
    d = parse_domain(spec) if "domain" in inputs else None
    psi = parse_symbol(text, d.ambient_dim) if "symbol" in inputs else None
    z = parse_point(need("point"), d.ambient_dim) if "point" in inputs else None
    cfg = opts["cfg"]
    rep = AnalysisReport(command=command, domain=None if d is None else str(d),
                         symbol=text, seed=cfg.seed, samples=cfg.samples)
    return rep, d, psi, z


def _constant_rows(rep: AnalysisReport, d) -> tuple[dict, dict]:
    """Add d's Bloch-constant rows; return its binding verdict (empty
    unless the exceptional assignment is ambiguous) and class verdicts,
    which `domain` and `constants` write in different orders."""
    rep.add("bloch-constant", bloch_constant(d), mode="exact",
            ref="constants:closed-forms")
    cit, swp = bloch_constant_candidates(d)
    rep.add("bloch-constant-swapped", swp, mode="exact",
            ref="constants:exceptional-ambiguity")
    return ({"constant-binding": "ambiguous"} if cit != swp else {},
            {"standard-form": standard_form(d), "in-class-D": str(in_class_D(d)).lower()})


# row name and ref of each norm component that sigma, bounds and opnorm print
_PART_ROWS = {"sup": ("sup-norm", "norm:sup-component"),
              "bloch": ("bloch-norm", "norm:bloch-component"),
              "sigma": ("sigma", "weight:full-growth"),
              "sigma0": ("sigma0", "weight:vanishing-growth")}


def _add_parts(rep: AnalysisReport, **parts) -> None:
    for key, est in parts.items():
        name, ref = _PART_ROWS[key]
        rep.add_interval(name, est, ref=ref)


def _run_domain(rep, d, psi, z, opts):
    rep.add("ambient-dim", float(d.ambient_dim), mode="exact", ref="setup:descriptor")
    binding, classes = _constant_rows(rep, d)
    rep.verdicts.update({**binding, **classes,
                         "has-disk-factor": str(has_disk_factor(d)).lower(),
                         "metric-supported": str(d.metric_supported).lower()})


def _run_qf(rep, d, psi, z, opts):
    rep.add("q-value", q_value(d, psi, z), mode="exact", ref="q:closed-form")


def _run_beta(rep, d, psi, z, opts):
    cert = beta_upper_poly(psi) if isinstance(psi, Polynomial) else None
    parts, = _components(d, [(psi, {"beta": cert, "bloch": None})], opts["cfg"])
    rep.add_interval("beta", parts["beta"], ref="seminorm:sampled")
    rep.add_interval("bloch-norm", parts["bloch"], ref="seminorm:plus-origin-value")


def _run_omega(rep, d, psi, z, opts):
    rep.add_interval("omega", rho_from_origin(d, z), ref="growth:bounds")
    rep.add("omega0-lower", omega_empirical_lower(d, z, little=True),
            mode="sampled-lower", ref="growth:vanishing-class-witness")


def _run_rho(rep, d, psi, z, opts):
    rep.add_interval("rho", rho_from_origin(d, z), ref="distance:from-origin")


def _run_sigma(rep, d, psi, z, opts):
    _add_parts(rep, **_sandwich_parts(d, psi, opts["cfg"], ("sigma", "sigma0")))


def _run_bounds(rep, d, psi, z, opts):
    cfg, ladder = opts["cfg"], opts["eps_ladder"]
    parts = _sandwich_parts(d, psi, cfg, ("sup", "bloch", "sigma", "sigma0"))
    _add_parts(rep, **parts)
    rep.add("norm-lower", _sandwich(parts, "B").lower, mode="sampled-lower",
            ref="norm:sandwich")
    for space in ("B", "B0*"):
        rep.add(f"norm-upper-{space}", _sandwich(parts, space).upper,
                mode="analytic-bounds", ref="norm:sandwich")
    bd = boundedness_verdict(d, psi, cfg, ladder)
    b0 = boundedness_verdict(d, psi, cfg, ladder, space="B0*")
    rep.verdicts.update({"boundedness-B": bd.verdict, "boundedness-B-note": bd.note,
                         "boundedness-B0*": b0.verdict, "boundedness-B0*-note": b0.note})


def _run_opnorm(rep, d, psi, z, opts):
    cfg = opts["cfg"]
    (nb, emp), = _opnorms(d, [psi], cfg, seed=cfg.seed)
    rep.add("sandwich-lower", nb.lower, mode="sampled-lower", ref="norm:sandwich")
    rep.add("sandwich-upper", nb.upper, mode="analytic-bounds", ref="norm:sandwich")
    rep.add("battery-lower", emp, mode="sampled-lower", ref="norm:battery")
    _add_parts(rep, sup=nb.sup, bloch=nb.bloch, sigma=nb.sigma)


def _run_spectrum(rep, d, psi, z, opts):
    cloud = spectrum_cloud(d, psi, opts["cfg"])
    for nm, v in zip(("max-modulus", "hull-area", "bbox-re-min", "bbox-re-max",
                      "bbox-im-min", "bbox-im-max"),
                     (float(np.max(np.abs(cloud.points))), cloud.hull_area, *cloud.bbox)):
        rep.add(nm, v, mode="sampled-lower", ref="spectrum:range-closure")
    rep.add("points", float(cloud.points.size), mode="exact",
            ref="spectrum:range-closure")
    rep.verdicts["singleton"] = str(cloud.is_singleton).lower()


def _run_compactness(rep, d, psi, z, opts):
    cr = compactness_verdict(d, psi, opts["cfg"])
    rep.verdicts["compactness"] = cr.verdict
    for key, val in cr.witness.items():
        rep.verdicts[f"witness-{key}"] = (
            val if isinstance(val, str) else repr(val))


def _run_isometry(rep, d, psi, z, opts):
    ir = isometry_verdict(d, psi, opts["cfg"], k_max=opts["k"])
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


def _run_constants(rep, d, psi, z, opts):
    rep.seed = rep.samples = None
    if opts["domain"]:
        d = parse_domain(opts["domain"])
        rep.domain = str(d)
        binding, classes = _constant_rows(rep, d)
        rep.verdicts.update({**classes, **binding})
        return
    for row in registry_table():
        rep.add(row["domain"], row["constant"], mode="exact",
                ref="constants:closed-forms")
        if row["constant_swapped"] != row["constant"]:
            rep.add(row["domain"] + " (swapped)", row["constant_swapped"],
                    mode="exact", ref="constants:exceptional-ambiguity")
        rep.verdicts[row["domain"]] = row["class"]


def _run_verify(rep, d, psi, z, opts) -> AnalysisReport:
    return run_suite(opts["suite"], seed=opts["cfg"].seed)[1]


def _run_probe(rep, d, psi, z, opts) -> AnalysisReport:
    question = opts.get("question")
    if not question:
        raise UsageError(f"probe needs a question: {', '.join(PROBES)}")
    _, d, _, _ = _head("probe", ("domain",), opts)
    text = opts["symbol"] or None
    psi = parse_symbol(text, d.ambient_dim) if text else None
    return run_probe(question, d, opts["cfg"], psi, text,
                     opts["eps_ladder"] or DEFAULT_EPS_LADDER)


# name -> (help, inputs, run(rep, d, psi, z, opts)), as the module docstring says
_COMMANDS = {
    "domain": ("describe a domain: dimension, class, constants", ("domain",), _run_domain),
    "qf": ("invariant gradient length of a symbol at a point",
           ("domain", "symbol", "point"), _run_qf),
    "beta": ("sampled Bloch seminorm of a symbol", ("domain", "symbol"), _run_beta),
    "omega": ("extremal growth bounds at a point", ("domain", "point"), _run_omega),
    "rho": ("metric distance from the origin to a point", ("domain", "point"), _run_rho),
    "sigma": ("boundary multiplier weights of a symbol", ("domain", "symbol"), _run_sigma),
    "bounds": ("full boundedness report with the norm sandwich", ("domain", "symbol"),
               _run_bounds),
    "opnorm": ("operator-norm sandwich plus battery lower bound", ("domain", "symbol"),
               _run_opnorm),
    "spectrum": ("sampled spectrum cloud summary", ("domain", "symbol"), _run_spectrum),
    "compactness": ("compactness verdict with witness", ("domain", "symbol"),
                    _run_compactness),
    "isometry": ("isometry verdict with power diagnostics", ("domain", "symbol"),
                 _run_isometry),
    "constants": ("Bloch constant registry or one domain's constants", (), _run_constants),
    "verify": ("run a theorem suite (exit 3 on failure)", (), _run_verify),
    "probe": ("data table for one open question", (), _run_probe),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage().rstrip())
        opts, fmt = _resolve(args)
        _, inputs, run = _COMMANDS[args.command]
        t0 = time.perf_counter()
        rep, d, psi, z = _head(args.command, inputs, opts)
        report = run(rep, d, psi, z, opts) or rep
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
