"""Per-invocation best timings of blochkit's refinement layers for one
checkout, summarized across invocations.

    python3 benchmarks/layers.py --root <checkout> --label <name> --out <file.json>

Imports blochkit from <checkout>/src in this process (no install, no
build) and times, each as the best of several rounds after one warm-up
round:

- battery: `empirical_opnorm_lower` (battery of 6) on three cubics on
  ball:2 and on polydisk:2;
- ladder: `isometry_verdict` on ball:2 and twice on ball:5, for symbols
  whose power ladder runs to psi^16;
- norm_bounds: one `norm_bounds` call on ball:2 and one on polydisk:2;
- scan_singles: `beta_estimate` plus `sigma_estimate` of one 10-term
  symbol on each of ball:3, polydisk:3 and product(ball:2,disk), with
  50 000 samples and no refinement, as the scan workload of perfbench
  asks single components;
- kernel.single and kernel.batch: `evaluate_many` plus `gradient_many`
  at one point on the expanded psi^16 (153 terms) of the first ball:5
  ladder symbol, and at 20 000 points on the 10-term scan symbol;
- cli.beta and cli.sigma: one in-process `blochkit beta` / `sigma` call
  on ball:2 with a cubic symbol and the default 20 000 samples, output
  captured;
- the `isometry` and `norm-sandwich` verify suites at seed 42.

Other sampled sups use 1000 samples (1024 for the ladder), 2 restarts and
20 golden-section steps, as the refine workload of perfbench does. BLAS runs
on one thread. Each invocation's bests are merged into the JSON file at
--out under --label, next to an environment block (CPU count, Python,
numpy and scipy versions, kernel backend). Measuring the same code under
the same label again appends the invocation, and the label reports the
median and quartiles of the per-invocation bests. A process can run in a
faster or slower speed mode than the next, so alternate the two
checkouts over several invocations and compare medians against the
quartiles' spread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROUNDS = 7
SUITE_ROUNDS = 3
KERNEL_ROUNDS = 50
CUBICS = ("(0.3-0.2i) + (0.7+0.1i)*z1 + (-0.4+0.5i)*z1*z2 + (0.2-0.6i)*z2^3",
          "(0.5+0.5i)*z2 + (-0.8+0.2i)*z1^2 + (0.3+0.1i)*z1^2*z2 + (0.1-0.9i)*z1*z2^2",
          "(0.9-0.1i)*z1 + (0.2+0.4i)*z2^2 + (-0.5-0.3i)*z1*z2 + (0.6+0.2i)*z1^3")
# |psi(0)| near 0.85 and a small nonconstant part, as in the refine workload
LADDER = (("ball:2", "(0.6+0.6i) + (0.05-0.02i)*z1 + (0.01+0.03i)*z2^2 + (-0.02+0.01i)*z1*z2"),
          ("ball:5", "(0.84+0.05i) + (0.04+0.03i)*z1 + (-0.03+0.02i)*z2"),
          ("ball:5", "(-0.3+0.8i) + (0.02-0.05i)*z4 + (0.04+0.01i)*z5^2"))
SCAN_SYMBOL = ("(0.2-0.1i) + (0.5+0.3i)*z1 + (-0.4+0.2i)*z2 + (0.3-0.6i)*z3"
               " + (0.1+0.7i)*z1*z2 + (-0.5-0.2i)*z2*z3 + (0.6+0.1i)*z1^2"
               " + (-0.2+0.4i)*z3^2 + (0.3+0.3i)*z1*z2*z3 + (0.4-0.5i)*z2^3")
SCAN_DOMAINS = ("ball:3", "polydisk:3", "product(ball:2,disk)")


def best_of(rounds: int, fn) -> float:
    fn()  # warm-up: caches and the remembered sample draw
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def summary(values) -> dict:
    """Median and quartiles of one layer's per-invocation bests."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cli_call(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"blochkit {' '.join(argv)} failed")


def measure(bk, verify, cli) -> dict:
    cfg = bk.SamplingConfig(samples=1000, seed=7, refine_restarts=2, refine_iters=20)
    iso_cfg = cfg.with_(samples=1024)
    planes = [bk.parse_domain(spec) for spec in ("ball:2", "polydisk:2")]
    cubics = [bk.parse_symbol(text, 2) for text in CUBICS]
    ladder = [(bk.parse_domain(spec), bk.parse_symbol(text, bk.parse_domain(spec).ambient_dim))
              for spec, text in LADDER]
    out = {
        "battery_s": best_of(ROUNDS, lambda: [
            bk.empirical_opnorm_lower(d, psi, cfg, nfuncs=6) for d in planes for psi in cubics]),
        "ladder_s": best_of(ROUNDS, lambda: [
            bk.isometry_verdict(d, psi, iso_cfg) for d, psi in ladder]),
    }
    for d in planes:
        out[f"norm_bounds.{d}_s"] = best_of(2 * ROUNDS, lambda d=d: bk.norm_bounds(d, cubics[0], cfg))
    scan_cfg = bk.SamplingConfig(samples=50000, seed=7, refine_restarts=0)
    scans = [(bk.parse_domain(spec), bk.parse_symbol(SCAN_SYMBOL, 3)) for spec in SCAN_DOMAINS]
    out["scan_singles_s"] = best_of(ROUNDS, lambda: [
        (bk.beta_estimate(d, psi, scan_cfg), bk.sigma_estimate(d, psi, scan_cfg))
        for d, psi in scans])
    d5, psi5 = ladder[1]
    kernels = {"kernel.single_s": (bk.combine("power", psi5, 16),
                                   bk.sample_interior(d5, 1, 7)),
               "kernel.batch_s": (scans[0][1], bk.sample_interior(scans[0][0], 20000, 7))}
    for name, (psi, Z) in kernels.items():
        out[name] = best_of(KERNEL_ROUNDS, lambda psi=psi, Z=Z: (
            bk.evaluate_many(psi, Z), bk.gradient_many(psi, Z)))
    for command in ("beta", "sigma"):
        argv = [command, "--domain", "ball:2", "--symbol", CUBICS[0]]
        out[f"cli.{command}_s"] = best_of(ROUNDS, lambda argv=argv: cli_call(cli, argv))
    for suite in ("isometry", "norm-sandwich"):
        out[f"verify.{suite}_s"] = best_of(SUITE_ROUNDS, lambda s=suite: verify.run_suite(s, 42))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path, help="checkout to measure")
    p.add_argument("--label", required=True, help="key of this run in --out")
    p.add_argument("--out", required=True, type=Path, help="JSON file to merge into")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy

    import blochkit as bk
    from blochkit import cli, verify
    if Path(bk.__file__).resolve() != root / "src" / "blochkit" / "__init__.py":
        raise SystemExit(f"imported {bk.__file__}, not the checkout at {root}")
    environment = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__,
                   "backend": bk.backend_name(), "blas_threads": 1,
                   "rounds": {"layers": ROUNDS, "norm_bounds": 2 * ROUNDS,
                              "kernels": KERNEL_ROUNDS, "suites": SUITE_ROUNDS,
                              "statistic": "best per invocation; median and "
                                           "quartiles across invocations"}}
    best = measure(bk, verify, cli)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if data.get("environment", environment) != environment:
        raise SystemExit(f"{args.out} was written under another environment")
    data["environment"] = environment
    record = data.setdefault("runs", {}).get(args.label)
    if record is None or record["code_sha256"] != code_digest(root):
        record = {"code_sha256": code_digest(root), "bests": []}
    # the same code measured again: one more invocation's bests
    record["bests"].append(best)
    record["invocations"] = len(record["bests"])
    record["seconds"] = {name: summary([b[name] for b in record["bests"]]) for name in best}
    data["runs"][args.label] = record
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps({args.label: record["seconds"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
