"""Per-invocation best timings of blochkit's refinement and scan layers
for one checkout, or for two checkouts side by side, summarized across
invocations.

    python3 benchmarks/layers.py --root <checkout> --label <name> --out <file.json>
    python3 benchmarks/layers.py --root <checkout> --label <name> --out <file.json> \
        --against <other checkout> --against-label <other name>

Each checkout is timed in a child process of its own, which imports
blochkit from <checkout>/src (no install, no build) and nothing else of
the package. Each layer is timed as the best of several rounds after one
warm-up round:

- battery: `empirical_opnorm_lower` (battery of 6) on three cubics on
  ball:2 and on polydisk:2;
- ladder.<domain>: `isometry_verdict` once on ball:2 and twice on ball:5,
  for symbols whose power ladder runs to psi^16, one row per domain;
- norm_bounds: one `norm_bounds` call on ball:2 and one on polydisk:2;
- scan_singles: `beta_estimate` plus `sigma_estimate` of one 10-term
  symbol on each of ball:3, polydisk:3 and product(ball:2,disk), with
  50 000 samples and no refinement, as the scan workload of perfbench
  asks single components;
- spectrum and boundedness: `spectrum_cloud`, and `boundedness_verdict`,
  of the same symbol on the same three domains with the same sampling;
- scan_round: `beta_estimate`, `sigma_estimate`, `spectrum_cloud` and
  `boundedness_verdict` of two 10-term symbols on each of the same three
  domains, with 50 000 samples and no refinement, as one round of the
  perfbench scan workload asks them: the estimates draw 50 000 points and
  the boundedness sup-norm 12 500, one after the other;
- kernel.single and kernel.batch: `evaluate_many` plus `gradient_many`
  at one point on the expanded psi^16 (153 terms) of the first ball:5
  ladder symbol, and at 20 000 points on the 10-term scan symbol;
- cli.beta, cli.sigma, cli.bounds and cli.isometry: one in-process
  `blochkit` call of that command on ball:2 with a cubic symbol and the
  default 20 000 samples, and cli.rho: one `blochkit rho` call at a point
  of ball:2, output captured;
- the `growth-lemma`, `isometry` and `norm-sandwich` verify suites at
  seed 42;
- cold.spectrum_s and cold.spectrum_peak_mb: the wall time and the peak
  resident memory of a fresh `python -m blochkit spectrum --domain ball:3
  --samples 50000` process on the 10-term scan symbol, import included.
  The peak is each child's own, from `os.wait4`, taken before any timing
  child starts. With --against, the two checkouts' children take turns.

Other sampled sups use 1000 samples (1024 for the ladder), 2 restarts and
20 golden-section steps, as the refine workload of perfbench does. BLAS runs
on one thread. Each invocation's bests are merged into the JSON file at
--out under --label, next to an environment block (CPU count, Python, the
numpy version, and the scipy version when scipy is installed: the package
does not need it). Each label also records its code digest, the line
count of src/blochkit/*.py and the number of names in `blochkit.__all__`.
Measuring the same code under the same label again appends the
invocation, and the label reports the median and quartiles of the
per-invocation bests.

A process can run in a faster or slower speed mode than the next. With
--against, both checkouts' children live through the whole invocation,
and each layer times them in turn, one round at a time, alternating which
goes first from round to round, so a swing of the machine's speed reaches
both. The two children share no heap. The other checkout's bests go
under --against-label, and the ratio of the two bests (--label over
--against-label) of every invocation under "ratios".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
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
SECOND_SCAN_SYMBOL = ("(0.1+0.4i)*z1 + (0.3-0.2i)*z2^2 + (-0.4-0.1i)*z3^2 + (0.2+0.2i)*z1*z3"
                      " + (-0.3+0.5i)*z1^2*z2 + (0.5+0.1i)*z2^3*z3 + (0.1-0.3i)*z1*z2^2*z3"
                      " + (0.4+0.2i)*z3^4 + (-0.2-0.4i)*z1^5 + (0.3+0.1i)*z1*z2^2*z3^2")
SCAN_DOMAINS = ("ball:3", "polydisk:3", "product(ball:2,disk)")


def best_of(rounds: int, fns) -> list[float]:
    """The best of `rounds` calls of each of fns, each of which returns its
    own time, after one warm-up call each (caches and the remembered
    sample draws), alternating which one goes first from round to round."""
    for fn in fns:
        fn()
    times = [[] for _ in fns]
    for r in range(rounds):
        order = list(enumerate(fns))
        for k, fn in (order if r % 2 == 0 else order[::-1]):
            times[k].append(fn())
    return [min(t) for t in times]


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


def code_record(root: Path, bk) -> dict:
    """The code digest of a checkout, next to the size of its code: the
    line count of src/blochkit/*.py (as `wc -l` counts) and the number of
    names in `blochkit.__all__`."""
    lines = sum(path.read_bytes().count(b"\n")
                for path in (root / "src" / "blochkit").glob("*.py"))
    return {"code_sha256": code_digest(root), "src_lines": lines,
            "public_names": len(bk.__all__)}


def cli_call(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"blochkit {' '.join(argv)} failed")


def layers(bk, verify, cli) -> dict:
    """Every timed layer of one imported package: name -> (rounds, call)."""
    cfg = bk.SamplingConfig(samples=1000, seed=7, refine_restarts=2, refine_iters=20)
    iso_cfg = cfg.with_(samples=1024)
    planes = [bk.parse_domain(spec) for spec in ("ball:2", "polydisk:2")]
    cubics = [bk.parse_symbol(text, 2) for text in CUBICS]
    ladder = [(bk.parse_domain(spec), bk.parse_symbol(text, bk.parse_domain(spec).ambient_dim))
              for spec, text in LADDER]
    out = {
        "battery_s": (ROUNDS, lambda: [
            bk.empirical_opnorm_lower(d, psi, cfg, nfuncs=6) for d in planes for psi in cubics]),
    }
    for spec in dict(LADDER):
        out[f"ladder.{spec}_s"] = (ROUNDS, lambda spec=spec: [
            bk.isometry_verdict(d, psi, iso_cfg) for d, psi in ladder if str(d) == spec])
    for d in planes:
        out[f"norm_bounds.{d}_s"] = (2 * ROUNDS, lambda d=d: bk.norm_bounds(d, cubics[0], cfg))
    scan_cfg = bk.SamplingConfig(samples=50000, seed=7, refine_restarts=0)
    scans = [(bk.parse_domain(spec), [bk.parse_symbol(text, 3) for text in
                                      (SCAN_SYMBOL, SECOND_SCAN_SYMBOL)])
             for spec in SCAN_DOMAINS]
    out["scan_singles_s"] = (ROUNDS, lambda: [
        (bk.beta_estimate(d, psis[0], scan_cfg), bk.sigma_estimate(d, psis[0], scan_cfg))
        for d, psis in scans])
    out["spectrum_s"] = (ROUNDS, lambda: [
        bk.spectrum_cloud(d, psis[0], scan_cfg) for d, psis in scans])
    out["boundedness_s"] = (ROUNDS, lambda: [
        bk.boundedness_verdict(d, psis[0], scan_cfg) for d, psis in scans])
    out["scan_round_s"] = (ROUNDS, lambda: [
        (bk.beta_estimate(d, psi, scan_cfg), bk.sigma_estimate(d, psi, scan_cfg),
         bk.spectrum_cloud(d, psi, scan_cfg), bk.boundedness_verdict(d, psi, scan_cfg))
        for d, psis in scans for psi in psis])
    d5, psi5 = ladder[1]
    kernels = {"kernel.single_s": (bk.combine("power", psi5, 16),
                                   bk.sample_interior(d5, 1, 7)),
               "kernel.batch_s": (scans[0][1][0], bk.sample_interior(scans[0][0], 20000, 7))}
    for name, (psi, Z) in kernels.items():
        out[name] = (KERNEL_ROUNDS, lambda psi=psi, Z=Z: (
            bk.evaluate_many(psi, Z), bk.gradient_many(psi, Z)))
    cli_argvs = {command: [command, "--domain", "ball:2", "--symbol", CUBICS[0]]
                 for command in ("beta", "sigma", "bounds", "isometry")}
    cli_argvs["rho"] = ["rho", "--domain", "ball:2", "--point", "0.3,0.4j"]
    for command, argv in cli_argvs.items():
        out[f"cli.{command}_s"] = (ROUNDS, lambda argv=argv: cli_call(cli, argv))
    for suite in ("growth-lemma", "isometry", "norm-sandwich"):
        out[f"verify.{suite}_s"] = (SUITE_ROUNDS, lambda s=suite: verify.run_suite(s, 42))
    return out


def cold_spectrum(roots) -> list[dict]:
    """Each checkout's best wall time and least peak resident memory (MB)
    of ROUNDS fresh `blochkit spectrum` processes, the checkouts taking
    turns, in the other order every other round."""
    argv = [sys.executable, "-m", "blochkit", "spectrum", "--domain", "ball:3",
            "--symbol", SCAN_SYMBOL, "--samples", "50000"]
    times, peaks = [[] for _ in roots], [[] for _ in roots]
    for r in range(ROUNDS):
        order = list(enumerate(roots))
        for k, root in (order if r % 2 == 0 else order[::-1]):
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            start = time.perf_counter()
            child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            times[k].append(time.perf_counter() - start)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise SystemExit(f"blochkit spectrum from {root} exited {child.returncode}")
            peaks[k].append(usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB
    return [{"cold.spectrum_s": min(t), "cold.spectrum_peak_mb": min(p)}
            for t, p in zip(times, peaks)]


def load(root: Path):
    """(blochkit, verify, cli) of the checkout at <root>/src."""
    sys.path.insert(0, str(root / "src"))
    try:
        bk = importlib.import_module("blochkit")
        package = (bk, importlib.import_module("blochkit.verify"),
                   importlib.import_module("blochkit.cli"))
    finally:
        sys.path.pop(0)
    if Path(bk.__file__).resolve() != root / "src" / "blochkit" / "__init__.py":
        raise SystemExit(f"imported {bk.__file__}, not the checkout at {root}")
    return package


def serve(root: Path, conn) -> None:
    """The loop of one checkout's timing child: send the checkout's code
    record, the versions and every layer's round count, then run the named
    layer of each request once and send back its time, until None."""
    import numpy

    bk, verify, cli = load(root)
    table = layers(bk, verify, cli)
    versions = {"numpy": numpy.__version__}
    with contextlib.suppress(ImportError):
        import scipy
        versions["scipy"] = scipy.__version__
    conn.send((code_record(root, bk), versions,
               {name: rounds for name, (rounds, _) in table.items()}))
    while (name := conn.recv()) is not None:
        start = time.perf_counter()
        table[name][1]()
        conn.send(time.perf_counter() - start)


def measure(roots) -> tuple[list[dict], dict, list[dict]]:
    """Each checkout's code record, the versions, and each checkout's best
    time of every layer, one child process per checkout, the children
    timed in turn round by round."""
    spawn = multiprocessing.get_context("spawn")
    pipes, children = [], []
    try:
        for root in roots:
            pipe, theirs = spawn.Pipe()
            children.append(spawn.Process(target=serve, args=(root, theirs)))
            children[-1].start()
            pipes.append(pipe)
        hellos = [pipe.recv() for pipe in pipes]
        bests = [{} for _ in roots]
        for name, rounds in hellos[0][2].items():
            calls = [lambda pipe=pipe: (pipe.send(name), pipe.recv())[1] for pipe in pipes]
            for best, side_best in zip(bests, best_of(rounds, calls)):
                best[name] = side_best
    finally:
        for pipe, child in zip(pipes, children):
            with contextlib.suppress(OSError):
                pipe.send(None)
            child.join()
    if any(child.exitcode for child in children):
        raise SystemExit("a timing child failed")
    return [code for code, _, _ in hellos], hellos[0][1], bests


def record_bests(data: dict, label: str, code: dict, best: dict) -> dict:
    """Append one invocation's bests to the run under `label`, starting the
    run again when its code changed; returns the run's summary."""
    record = data.setdefault("runs", {}).get(label)
    if record is None or record["code_sha256"] != code["code_sha256"]:
        record = {"bests": []}
    record.update(code)
    # the same code measured again: one more invocation's bests
    record["bests"].append(best)
    record["invocations"] = len(record["bests"])
    record["seconds"] = {name: summary([b[name] for b in record["bests"]]) for name in best}
    data["runs"][label] = record
    return record["seconds"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path, help="checkout to measure")
    p.add_argument("--label", required=True, help="key of this run in --out")
    p.add_argument("--out", required=True, type=Path, help="JSON file to merge into")
    p.add_argument("--against", type=Path,
                   help="another checkout, timed in a child process in turn with --root's")
    p.add_argument("--against-label", default="against", help="key of --against in --out")
    args = p.parse_args(argv)
    root = args.root.resolve()
    against = None if args.against is None else args.against.resolve()
    if against is not None and args.against_label == args.label:
        raise SystemExit("--against-label must differ from --label")
    # first, while no timing child runs: on Linux a child's peak from
    # wait4 is at least the resident set of the process it forked from
    roots = [root] if against is None else [root, against]
    colds = cold_spectrum(roots)
    codes, versions, bests = measure(roots)
    environment = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                   **versions, "blas_threads": 1,
                   "rounds": {"layers": ROUNDS, "norm_bounds": 2 * ROUNDS,
                              "kernels": KERNEL_ROUNDS, "suites": SUITE_ROUNDS,
                              "statistic": "best per invocation; median and "
                                           "quartiles across invocations"}}
    for best, cold in zip(bests, colds):
        best.update(cold)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if data.get("environment", environment) != environment:
        raise SystemExit(f"{args.out} was written under another environment")
    data["environment"] = environment
    report = {args.label: record_bests(data, args.label, codes[0], bests[0])}
    if against is not None:
        report[args.against_label] = record_bests(data, args.against_label, codes[1], bests[1])
        pair = f"{args.label}/{args.against_label}"
        ratios = data.setdefault("ratios", {}).get(pair)
        digests = [code["code_sha256"] for code in codes]
        if ratios is None or ratios["code_sha256"] != digests:
            ratios = {"code_sha256": digests, "invocations": []}
        ratios["invocations"].append({name: bests[0][name] / bests[1][name] for name in bests[0]})
        ratios["ratio"] = {name: summary([r[name] for r in ratios["invocations"]])
                           for name in bests[0]}
        data["ratios"][pair] = ratios
        report[pair] = ratios["ratio"]
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
