import json
import math

import pytest

from blochkit import AnalysisReport, EstimateInterval, SamplingConfig, exact
from blochkit.errors import UsageError
from blochkit.estimates import (
    MODE_ANALYTIC_BOUNDS,
    MODE_EXACT,
    MODE_SAMPLED_LOWER,
    DecayProfile,
)
from blochkit.report import (
    VERSION,
    render,
    render_csv,
    render_json,
    render_pretty,
    timings_enabled,
)


# ---------------------------------------------------------------- intervals


def test_interval_basics():
    est = EstimateInterval(1.0, 2.0, MODE_ANALYTIC_BOUNDS)
    assert est.value == 1.0
    assert EstimateInterval(1.5, math.inf, MODE_SAMPLED_LOWER).value == 1.5


def test_exact_constructor():
    est = exact(0.25)
    assert est.mode == MODE_EXACT
    assert est.lower == est.upper == 0.25


@pytest.mark.parametrize(
    "bad",
    [
        lambda: EstimateInterval(2.0, 1.0, MODE_SAMPLED_LOWER),
        lambda: EstimateInterval(float("nan"), 1.0, MODE_SAMPLED_LOWER),
        lambda: EstimateInterval(1.0, float("nan"), MODE_SAMPLED_LOWER),
        lambda: EstimateInterval(1.0, 2.0, MODE_EXACT),  # exact needs equal ends
        lambda: EstimateInterval(1.0, 2.0, "nonsense"),
    ],
)
def test_interval_validation(bad):
    with pytest.raises(UsageError):
        bad()


# ---------------------------------------------------------------- config


def test_sampling_config_defaults_and_with():
    cfg = SamplingConfig()
    assert cfg.samples == 20000
    assert cfg.seed == 42
    other = cfg.with_(samples=50, seed=3)
    assert other.samples == 50 and other.seed == 3
    assert other.shells == cfg.shells
    assert cfg.samples == 20000  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 0},
        {"samples": -5},
        {"shells": (0.0, 1.0)},
        {"shells": (0.5, -0.1)},
        {"shells": ()},
        # a negative restart count would start from all samples but the worst
        {"refine_restarts": -1},
        {"refine_iters": -1},
    ],
)
def test_sampling_config_validation(kwargs):
    with pytest.raises(UsageError):
        SamplingConfig(**kwargs)


# ---------------------------------------------------------------- decay profiles


def test_decay_profile():
    prof = DecayProfile((0.1, 0.01), (0.5, 0.05), (100, 100))
    rows = prof.rows()
    assert len(rows) == 2
    with pytest.raises(UsageError):
        DecayProfile((0.1,), (0.5,), (100,))  # too short
    with pytest.raises(UsageError):
        DecayProfile((0.01, 0.1), (0.5, 0.05), (100, 100))  # eps must decrease
    with pytest.raises(UsageError):
        DecayProfile((0.1, 0.01), (0.5,), (100, 100))  # length mismatch


# ---------------------------------------------------------------- reports


def _sample_report():
    rep = AnalysisReport(command="beta", domain="disk", symbol="z1", seed=42, samples=100)
    rep.add("beta", value=0.5, lower=0.5, upper=1.0, mode=MODE_SAMPLED_LOWER, ref="r1")
    rep.add_interval("omega", exact(0.25), ref="r2")
    rep.verdicts["state"] = "ok"
    return rep


def test_json_schema_key_order():
    m = _sample_report().as_mapping()
    assert list(m.keys()) == [
        "version",
        "command",
        "domain",
        "symbol",
        "seed",
        "samples",
        "results",
        "verdicts",
        "elapsed_ms",
    ]
    assert m["version"] == VERSION
    assert list(m["results"][0].keys()) == ["name", "value", "lower", "upper", "mode", "ref"]


def test_json_render_is_deterministic_and_parseable():
    rep = _sample_report()
    text1 = render_json(rep)
    text2 = render_json(rep)
    assert text1 == text2
    assert text1.endswith("\n")
    m = json.loads(text1)
    assert m["results"][1]["name"] == "omega"
    assert m["verdicts"] == {"state": "ok"}


def test_json_nonfinite_becomes_null():
    rep = AnalysisReport(command="x", domain="disk", symbol=None, seed=1, samples=1)
    rep.add("open", value=1.0, lower=1.0, upper=math.inf, mode=MODE_SAMPLED_LOWER)
    rep.add("undefined", value=math.nan, lower=None, upper=None, mode=MODE_EXACT)
    m = json.loads(render_json(rep))
    assert m["results"][0]["upper"] is None
    assert m["results"][1]["value"] is None


def test_csv_round_trip():
    rep = _sample_report()
    text = render_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "name,value,lower,upper,mode,ref"
    cells = lines[1].split(",")
    assert cells[0] == "beta"
    assert float(cells[1]) == 0.5
    assert any(line.startswith("verdict:state") for line in lines)


def test_pretty_render_mentions_command_and_verdicts():
    text = render_pretty(_sample_report())
    assert "beta" in text
    assert "state" in text


def test_render_dispatch():
    rep = _sample_report()
    assert render(rep, "json") == render_json(rep)
    assert render(rep, "csv") == render_csv(rep)
    with pytest.raises(ValueError):
        render(rep, "xml")


def test_timings_env_flag(monkeypatch):
    monkeypatch.delenv("BLOCHKIT_TIMINGS", raising=False)
    assert not timings_enabled()
    monkeypatch.setenv("BLOCHKIT_TIMINGS", "1")
    assert timings_enabled()
