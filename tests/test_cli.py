import json
import os
import subprocess
import sys

import pytest

from blochkit import DEFAULT_EPS_LADDER, SUITES, AnalysisReport
from blochkit.cli import main
from blochkit.verify import CheckResult


def run_cli(capsys, args):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------- happy paths


def test_qf_log_symbol_at_parameter(capsys):
    rc, out = run_cli(
        capsys, ["qf", "--domain", "disk", "--symbol", "h(1,0.5)", "--point", "0.5"]
    )
    assert rc == 0
    m = json.loads(out)
    assert m["command"] == "qf"
    assert m["results"][0]["name"] == "q-value"
    assert m["results"][0]["value"] == pytest.approx(1.0, abs=1e-12)


def test_constants_ball(capsys):
    rc, out = run_cli(capsys, ["constants", "--domain", "ball:2"])
    assert rc == 0
    m = json.loads(out)
    row = {r["name"]: r["value"] for r in m["results"]}
    assert row["bloch-constant"] == pytest.approx(0.816496580927726, abs=1e-12)


def test_domain_summary(capsys):
    rc, out = run_cli(capsys, ["domain", "--domain", "cartan1:3,2"])
    assert rc == 0
    m = json.loads(out)
    names = {r["name"] for r in m["results"]}
    assert "ambient-dim" in names
    assert m["verdicts"]["standard-form"] == "type-I(3x2)"
    assert m["verdicts"]["in-class-D"] == "true"


def test_beta_command_rows(capsys):
    rc, out = run_cli(
        capsys, ["beta", "--domain", "disk", "--symbol", "z1", "--samples", "400"]
    )
    assert rc == 0
    m = json.loads(out)
    names = [r["name"] for r in m["results"]]
    assert names == ["beta", "bloch-norm"]
    assert m["samples"] == 400
    assert m["results"][0]["value"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("command", ["beta", "sigma"])
def test_beta_and_sigma_make_one_sampled_sup_call(command, capsys, monkeypatch):
    from blochkit import bloch

    calls = []
    real = bloch._sup_estimates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bloch, "_sup_estimates", counted)
    rc, out = run_cli(capsys, [command, "--domain", "ball:2", "--symbol",
                               "0.3 + z1^2 - 0.5i*z1*z2", "--samples", "400"])
    assert rc == 0
    assert len(calls) == 1  # both rows from one draw and one search
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    if command == "beta":
        assert rows["bloch-norm"]["lower"] == 0.3 + rows["beta"]["lower"]
        assert rows["bloch-norm"]["upper"] is None


def test_omega_exact_row(capsys):
    rc, out = run_cli(
        capsys, ["omega", "--domain", "ball:2", "--point", "0.3,0.4", "--samples", "300"]
    )
    assert rc == 0
    m = json.loads(out)
    row = m["results"][0]
    assert row["name"] == "omega"
    assert row["mode"] == "exact"
    assert row["value"] == pytest.approx(0.5493061443340548, abs=1e-12)


def test_rho_interval(capsys):
    rc, out = run_cli(capsys, ["rho", "--domain", "polydisk:2", "--point", "0.5,0.5"])
    assert rc == 0
    m = json.loads(out)
    row = m["results"][0]
    assert row["lower"] <= row["upper"]


def test_sigma_rows(capsys):
    rc, out = run_cli(
        capsys, ["sigma", "--domain", "ball:2", "--symbol", "z1", "--samples", "400"]
    )
    assert rc == 0
    m = json.loads(out)
    names = [r["name"] for r in m["results"]]
    assert names == ["sigma", "sigma0"]


def test_bounds_and_opnorm(capsys):
    rc, out = run_cli(
        capsys, ["bounds", "--domain", "disk", "--symbol", "z1", "--samples", "400"]
    )
    assert rc == 0
    m = json.loads(out)
    names = {r["name"] for r in m["results"]}
    assert {"sup-norm", "bloch-norm", "sigma", "norm-lower", "norm-upper-B"} <= names
    rc, out = run_cli(
        capsys, ["opnorm", "--domain", "disk", "--symbol", "z1", "--samples", "400"]
    )
    m = json.loads(out)
    row = {r["name"]: r["value"] for r in m["results"]}
    assert row["sandwich-lower"] <= row["sandwich-upper"] + 1e-9


def test_spectrum_and_compactness(capsys):
    rc, out = run_cli(
        capsys, ["spectrum", "--domain", "disk", "--symbol", "z1^2", "--samples", "1000"]
    )
    assert rc == 0
    m = json.loads(out)
    row = {r["name"]: r["value"] for r in m["results"]}
    assert row["max-modulus"] < 1.0
    assert m["verdicts"]["singleton"] == "false"
    rc, out = run_cli(
        capsys, ["compactness", "--domain", "disk", "--symbol", "z1", "--samples", "400"]
    )
    m = json.loads(out)
    assert m["verdicts"]["compactness"] == "not-compact"


def test_isometry_with_power_depth(capsys):
    rc, out = run_cli(
        capsys,
        [
            "isometry",
            "--domain",
            "ball:2",
            "--symbol",
            "0.5+0.4*z1",
            "--samples",
            "400",
            "--k",
            "8",
        ],
    )
    assert rc == 0
    m = json.loads(out)
    assert m["verdicts"]["isometry"] == "not-isometry"
    names = {r["name"] for r in m["results"]}
    assert "ceiling" in names
    assert "modulus-at-zero" in names


@pytest.mark.parametrize("k", ["0", "-3", "65", str(10**9)])
def test_isometry_depth_outside_the_degree_cap_is_a_usage_error(capsys, k):
    rc = main(["isometry", "--domain", "ball:2", "--symbol", "0.5+0.4*z1", "--k", k])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "k_max must lie in [1, 64]" in captured.err


def test_isometry_depth_at_the_degree_cap(capsys):
    rc, out = run_cli(capsys, ["isometry", "--domain", "ball:2", "--symbol", "0.5+0.4*z1",
                               "--samples", "400", "--k", "64"])
    assert rc == 0
    rows = [r["name"] for r in json.loads(out)["results"]]
    assert "modulus-power-64" in rows and "modulus-power-65" not in rows


def test_verify_single_suite(capsys):
    rc, out = run_cli(capsys, ["verify", "--suite", "constants", "--seed", "42"])
    assert rc == 0
    m = json.loads(out)
    assert m["command"] == "verify"
    assert m["verdicts"]["suite"] == "constants"
    assert m["verdicts"]["overall"] == "pass"


def test_probe_runs(capsys):
    rc, out = run_cli(
        capsys, ["probe", "omega-vs-omega0", "--domain", "ball:2", "--samples", "300"]
    )
    assert rc == 0
    m = json.loads(out)
    assert m["verdicts"]["probe"] == "exploratory"
    assert len(m["results"]) > 0


def test_bounds_eps_ladder_reaches_both_verdicts(capsys, monkeypatch):
    import dataclasses

    from blochkit import cli, operators

    real = operators.boundedness_verdict
    real_diagnostic = operators.little_star_membership_diagnostic
    seen, decay = [], []

    def spy(*args, **kw):
        # tag each verdict with the ladder its space received
        out = real(*args, **kw)
        seen.append((kw.get("space", "B"), out.eps))
        return dataclasses.replace(out, verdict=f"{seen[-1]}")

    def diagnostic(*args, **kw):
        # the B0* verdict's decay half, on the ladder it received
        profile, verdict = real_diagnostic(*args, **kw)
        decay.append(profile.eps)
        return profile, verdict

    monkeypatch.setattr(operators, "boundedness_verdict", spy)
    monkeypatch.setattr(cli, "boundedness_verdict", spy)
    monkeypatch.setattr(operators, "little_star_membership_diagnostic", diagnostic)
    argv = ["bounds", "--domain", "disk", "--symbol", "z1", "--samples", "300"]
    defaults = [("B", operators.DEFAULT_BOUNDARY_EPS), ("B0*", DEFAULT_EPS_LADDER)]
    for extra, want in (([], defaults),
                        (["--eps-ladder", "0.2,0.05"], [("B", (0.2, 0.05)), ("B0*", (0.2, 0.05))])):
        seen.clear()
        decay.clear()
        rc, out = run_cli(capsys, argv + extra)
        assert rc == 0
        verdicts = json.loads(out)["verdicts"]
        assert [verdicts["boundedness-B"], verdicts["boundedness-B0*"]] == [str(w) for w in want]
        assert seen == want
        assert decay == [want[1][1]]


@pytest.mark.parametrize("extra,rungs", [([], ("0.1", "0.01", "0.001")),
                                         (["--eps-ladder", "0.3,0.03"], ("0.3", "0.03"))])
def test_probe_omega0_blowup_reads_the_eps_ladder(capsys, extra, rungs):
    rc, out = run_cli(capsys, ["probe", "omega0-blowup", "--domain", "disk",
                               "--samples", "300"] + extra)
    assert rc == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert names == [f"eps={e} dir{j}" for e in rungs for j in range(5)]


_E, _L, _A = "exact", "sampled-lower", "analytic-bounds"
_PARTS = {"sup": ("sup-norm", _L, "norm:sup-component"),
          "bloch": ("bloch-norm", _L, "norm:bloch-component"),
          "sigma": ("sigma", _L, "weight:full-growth"),
          "sigma0": ("sigma0", _L, "weight:vanishing-growth")}
_CONSTANTS = [("bloch-constant", _E, "constants:closed-forms"),
              ("bloch-constant-swapped", _E, "constants:exceptional-ambiguity")]
_REGISTRY = ("disk", "ball:2", "ball:3", "ball:5", "polydisk:2", "polydisk:4", "cartan1:2,2",
             "cartan1:3,2", "cartan2:2", "cartan2:3", "cartan3:3", "cartan3:4", "cartan4:3",
             "cartan4:5", "exc1", "exc2", "product(ball:2,polydisk:2)",
             "product(cartan2:2,ball:3)")
_SANDWICH = [("sandwich-lower", _L, "norm:sandwich"), ("sandwich-upper", _A, "norm:sandwich")]
# every subcommand on a small input: (name, mode, ref) of each row in
# order, then the verdict keys in order
ROW_TABLE = [
    (["domain", "--domain", "exc1"],
     [("ambient-dim", _E, "setup:descriptor")] + _CONSTANTS,
     ["constant-binding", "standard-form", "in-class-D", "has-disk-factor", "metric-supported"]),
    (["qf", "--domain", "disk", "--symbol", "z1", "--point", "0.5"],
     [("q-value", _E, "q:closed-form")], []),
    (["beta", "--domain", "disk", "--symbol", "z1"],
     [("beta", _L, "seminorm:sampled"), ("bloch-norm", _L, "seminorm:plus-origin-value")], []),
    (["omega", "--domain", "ball:2", "--point", "0.3,0.4"],
     [("omega", _E, "growth:bounds"), ("omega0-lower", _L, "growth:vanishing-class-witness")], []),
    (["rho", "--domain", "polydisk:2", "--point", "0.5,0.5"],
     [("rho", _E, "distance:from-origin")], []),
    (["sigma", "--domain", "ball:2", "--symbol", "z1"],
     [_PARTS["sigma"], _PARTS["sigma0"]], []),
    (["bounds", "--domain", "disk", "--symbol", "z1"],
     [_PARTS[k] for k in ("sup", "bloch", "sigma", "sigma0")]
     + [("norm-lower", _L, "norm:sandwich"), ("norm-upper-B", _A, "norm:sandwich"),
        ("norm-upper-B0*", _A, "norm:sandwich")],
     ["boundedness-B", "boundedness-B-note", "boundedness-B0*", "boundedness-B0*-note"]),
    (["opnorm", "--domain", "disk", "--symbol", "z1"],
     _SANDWICH + [("battery-lower", _L, "norm:battery")]
     + [_PARTS[k] for k in ("sup", "bloch", "sigma")], []),
    (["spectrum", "--domain", "disk", "--symbol", "z1^2"],
     [(n, _L, "spectrum:range-closure") for n in
      ("max-modulus", "hull-area", "bbox-re-min", "bbox-re-max", "bbox-im-min", "bbox-im-max")]
     + [("points", _E, "spectrum:range-closure")], ["singleton"]),
    (["compactness", "--domain", "disk", "--symbol", "z1"], [],
     ["compactness", "witness-reason", "witness-point_a", "witness-value_a",
      "witness-point_b", "witness-value_b"]),
    (["isometry", "--domain", "ball:2", "--symbol", "0.5+0.4*z1", "--k", "2"],
     [("ceiling", _E, "constants:closed-forms")]
     + [(n, _E, "isometry:power-route") for n in
        ("modulus-at-zero", "modulus-power-1", "modulus-power-2")]
     + [(f"power-seminorm-{k}", _L, "isometry:seminorm-ceiling") for k in (1, 2)],
     ["isometry", "reason"]),
    (["constants", "--domain", "exc1"], _CONSTANTS,
     ["standard-form", "in-class-D", "constant-binding"]),
    (["constants"],
     [row for name in _REGISTRY for row in
      [(name, _E, "constants:closed-forms")]
      + ([(f"{name} (swapped)", _E, "constants:exceptional-ambiguity")]
         if name.startswith("exc") else [])],
     list(_REGISTRY)),
    (["verify", "--suite", "constants"],
     [(f"constants-{n}", "check", f"constants:{n}") for n in
      ("closed-forms", "product-max", "class-membership", "dimension-ranges")],
     [f"constants-{n}" for n in
      ("closed-forms", "product-max", "class-membership", "dimension-ranges")]
     + ["suite", "overall"]),
    (["probe", "norm-sharpness", "--domain", "disk"],
     [(n, "probe-row", "open:norm-gap") for n in
      ("empirical-lower", "sandwich-lower", "sandwich-upper", "gap-upper-minus-empirical",
       "component-sup", "component-bloch", "component-sigma")], ["probe"]),
]


def test_row_table_covers_every_subcommand():
    from blochkit.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv, _, _ in ROW_TABLE} == set(sub.choices)


@pytest.mark.parametrize("argv,rows,verdicts", ROW_TABLE,
                         ids=[" ".join(argv) for argv, _, _ in ROW_TABLE])
def test_every_subcommand_pins_its_rows_and_verdict_keys(capsys, argv, rows, verdicts):
    rc, out = run_cli(capsys, argv + ["--samples", "300"])
    assert rc == 0
    m = json.loads(out)
    assert [(r["name"], r["mode"], r["ref"]) for r in m["results"]] == rows
    assert list(m["verdicts"]) == verdicts


# ---------------------------------------------------------------- formats and output


def test_format_csv_and_pretty(capsys):
    rc, out = run_cli(
        capsys, ["constants", "--domain", "ball:2", "--format", "csv"]
    )
    assert rc == 0
    assert out.splitlines()[0] == "name,value,lower,upper,mode,ref"
    rc, out = run_cli(
        capsys, ["constants", "--domain", "ball:2", "--format", "pretty"]
    )
    assert rc == 0
    assert "bloch-constant" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, _ = run_cli(
        capsys, ["constants", "--domain", "disk", "--out", str(target)]
    )
    assert rc == 0
    m = json.loads(target.read_text())
    assert m["domain"] == "disk"


def test_byte_identical_reports(capsys):
    args = ["beta", "--domain", "ball:2", "--symbol", "z1*z2", "--samples", "500", "--seed", "11"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    assert first == second


# ---------------------------------------------------------------- configuration


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\ndomain = ball:2\nsymbol = z1\nsamples = 300\nseed = 9\n")
    rc, out = run_cli(capsys, ["beta", "--config", str(cfg)])
    assert rc == 0
    m = json.loads(out)
    assert m["domain"] == "ball:2"
    assert m["seed"] == 9
    assert m["samples"] == 300


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = ball:2\nsymbol = z1\nseed = 9\n")
    rc, out = run_cli(capsys, ["beta", "--config", str(cfg), "--seed", "13", "--samples", "300"])
    assert rc == 0
    assert json.loads(out)["seed"] == 13


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = disk\nwibble = 3\n")
    rc = main(["beta", "--config", str(cfg), "--symbol", "z1"])
    assert rc == 1


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("BLOCHKIT_SEED", "77")
    rc, out = run_cli(capsys, ["beta", "--domain", "disk", "--symbol", "z1", "--samples", "300"])
    assert rc == 0
    assert json.loads(out)["seed"] == 77
    monkeypatch.setenv("BLOCHKIT_SEED", "77")
    rc, out = run_cli(
        capsys,
        ["beta", "--domain", "disk", "--symbol", "z1", "--samples", "300", "--seed", "5"],
    )
    assert json.loads(out)["seed"] == 5  # explicit flag wins


# ---------------------------------------------------------------- exit codes


def test_exit_code_usage_error(capsys, tmp_path):
    assert main(["--bogus-flag"]) == 1
    capsys.readouterr()
    assert main(["beta", "--domain", "disk"]) == 1  # missing symbol
    capsys.readouterr()
    assert main(["beta", "--domain", "nonsense", "--symbol", "z1"]) == 1
    capsys.readouterr()
    assert main(["beta", "--domain", "ball:4", "--symbol", "(1+z1+z2+z3+z4)^64"]) == 1
    assert "terms" in capsys.readouterr().err
    assert main(["beta", "--domain", "disk", "--symbol", "z1", "--samples", str(10**12)]) == 1
    assert "memory" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"domain = ball:2\nsymbol = z1\nsamples = {10**12}\n")
    assert main(["beta", "--config", str(cfg)]) == 1
    assert "memory" in capsys.readouterr().err
    cfg.write_text("domain = ball:2\nsymbol = z1\nsamples = 300\nshells =\n")
    assert main(["beta", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: shells")
    for ladder in ("0.1", "0.01,0.1", "0.1,0.1"):
        assert main(["bounds", "--domain", "disk", "--symbol", "z1", "--eps-ladder", ladder]) == 1
        assert "at least two rungs, each below the last" in capsys.readouterr().err


def test_exit_code_numerical_domain_error(capsys):
    rc = main(["qf", "--domain", "disk", "--symbol", "z1", "--point", "1.5"])
    assert rc == 2
    capsys.readouterr()
    rc = main(["probe", "omega-vs-rho", "--domain", "cartan1:2,2", "--samples", "300"])
    assert rc == 2
    capsys.readouterr()


def test_exit_code_suite_failure(capsys, monkeypatch):
    import blochkit.cli as cli_mod

    def fake_run_suite(name, seed=42):
        checks = [
            CheckResult("always-wrong", "ref", 1.0, "must be zero", False, "fabricated")
        ]
        rep = AnalysisReport(
            command=f"verify {name}", domain=None, symbol=None, seed=seed, samples=0
        )
        rep.verdicts["overall"] = "fail"
        return checks, rep

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    rc = main(["verify", "--suite", "spectrum"])
    assert rc == 3
    out = capsys.readouterr().out
    assert json.loads(out)["verdicts"]["overall"] == "fail"  # report still rendered


def test_probe_requires_question():
    assert main(["probe"]) == 1


def test_suite_names_are_registered():
    assert set(SUITES.keys()) == {
        "q-oracle",
        "omega",
        "product-rule",
        "growth-lemma",
        "norm-sandwich",
        "spectrum",
        "compactness",
        "isometry",
        "constants",
    }


# ---------------------------------------------------------------- process-level


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "blochkit", "constants", "--domain", "ball:2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    m = json.loads(out.stdout)
    assert m["results"][0]["value"] == pytest.approx(0.816496580927726, abs=1e-12)


def test_import_leaves_scipy_optimize_and_integrate_unloaded():
    # nothing in the package needs scipy: the spectrum hull is numpy only,
    # so no scipy module at all (optimize, integrate, spatial) gets loaded
    code = ("import sys, blochkit; "
            "blochkit.spectrum_cloud(blochkit.ball(2), blochkit.parse_symbol('z1*z2', 2), "
            "blochkit.SamplingConfig(samples=2000)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"


def test_import_leaves_verify_probes_and_report_unloaded():
    # their public names load them on first use, `import *` included
    code = ("import sys, blochkit; "
            "print([m for m in ('blochkit.verify', 'blochkit.probes', 'blochkit.report') "
            "if m in sys.modules]); "
            "from blochkit import *; "
            "print(sorted(set(blochkit.__all__) - set(globals())), "
            "blochkit.__version__ == VERSION, SUITES is blochkit.verify.SUITES)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split("\n")[:2] == ["[]", "[] True True"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.special are slow to import, and nothing in the
    # package needs them or any other scipy module, the direction oracle included
    code = ("import sys, blochkit; "
            "blochkit.q_value_oracle(blochkit.ball(2), blochkit.parse_symbol('z1*z2', 2), "
            "(0.3, 0.1j), ndirs=64); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"
