"""Report assembly and rendering.

JSON key order is fixed for golden-file stability: version, command,
domain, symbol, seed, samples, results, verdicts, elapsed_ms. Each
result row carries {name, value, lower, upper, mode, ref}; ref is a
short claim identifier such as "norm:sandwich-upper". elapsed_ms is
null unless BLOCHKIT_TIMINGS is set, keeping repeated runs
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from math import isinf, isnan

VERSION = "0.1.0"


def timings_enabled() -> bool:
    return os.environ.get("BLOCHKIT_TIMINGS", "") not in ("", "0", "false", "off", "no")


def _num(x) -> float | None:
    # None for missing/inf/nan keeps the JSON valid and byte-stable
    if x is None:
        return None
    x = float(x)
    if isinf(x) or isnan(x):
        return None
    return x


@dataclass(frozen=True)
class ResultRow:
    name: str
    value: float | None = None
    lower: float | None = None
    upper: float | None = None
    mode: str | None = None
    ref: str | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "value": _num(self.value),
                "lower": _num(self.lower), "upper": _num(self.upper),
                "mode": self.mode, "ref": self.ref}


@dataclass
class AnalysisReport:
    command: str
    domain: str | None = None
    symbol: str | None = None
    seed: int | None = None
    samples: int | None = None
    results: list[ResultRow] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    elapsed_ms: float | None = None

    def add(self, name: str, value=None, lower=None, upper=None,
            mode: str | None = None, ref: str | None = None) -> None:
        self.results.append(ResultRow(name, value, lower, upper, mode, ref))

    def add_interval(self, name: str, est, ref: str | None = None) -> None:
        self.results.append(ResultRow(name, est.value, est.lower, est.upper,
                                      est.mode, ref))

    def as_mapping(self) -> dict:
        return {
            "version": VERSION,
            "command": self.command,
            "domain": self.domain,
            "symbol": self.symbol,
            "seed": self.seed,
            "samples": self.samples,
            "results": [r.as_dict() for r in self.results],
            "verdicts": self.verdicts,
            "elapsed_ms": _num(self.elapsed_ms) if timings_enabled() else None,
        }


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report.as_mapping(), indent=2, allow_nan=False) + "\n"


def _flat(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def render_csv(report: AnalysisReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "value", "lower", "upper", "mode", "ref"])
    for r in report.results:
        d = r.as_dict()
        w.writerow([d["name"],
                    "" if d["value"] is None else repr(d["value"]),
                    "" if d["lower"] is None else repr(d["lower"]),
                    "" if d["upper"] is None else repr(d["upper"]),
                    d["mode"] or "", d["ref"] or ""])
    for k in report.verdicts:
        w.writerow([f"verdict:{k}", _flat(report.verdicts[k]), "", "", "", ""])
    return buf.getvalue()


def _cell(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def render_pretty(report: AnalysisReport) -> str:
    lines = [f"blochkit {VERSION} :: {report.command}"]
    for label, val in (("domain", report.domain), ("symbol", report.symbol),
                       ("seed", report.seed), ("samples", report.samples)):
        if val is not None:
            lines.append(f"  {label}: {val}")
    if report.results:
        lines.append("")
        head = f"  {'name':<34} {'value':>14} {'lower':>14} {'upper':>14}  mode"
        lines.append(head)
        for r in report.results:
            d = r.as_dict()
            lines.append(f"  {d['name']:<34} {_cell(d['value']):>14} "
                         f"{_cell(d['lower']):>14} {_cell(d['upper']):>14}"
                         f"  {d['mode'] or '-'}")
    if report.verdicts:
        lines.append("")
        for k, v in report.verdicts.items():
            lines.append(f"  verdict {k}: {_flat(v)}")
    return "\n".join(lines) + "\n"


# the format names: the CLI's --format choices read these keys
_RENDERERS = {"json": render_json, "csv": render_csv, "pretty": render_pretty}


def render(report: AnalysisReport, fmt: str = "json") -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _RENDERERS[fmt](report)
