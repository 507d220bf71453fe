"""blochkit benchmark: one command, three closed-loop question workloads.

    python3 perfbench/run.py --workload refine --seed 42 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's src/ (no install, no build). Set-up is timed in several fresh
processes; the questions are answered in one more. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics. The line before it holds the environment block. Full
results, and the answer digest of every (code, workload, seed, size)
seen so far, are kept under .perfbench_out/ in the checkout.

See perfbench/README.md for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

DEFAULT_SEED = 42
HELD_OUT_SEED = 20261017
WORKLOADS = ("refine", "scan", "distance")
SETUP_PROBES = 2  # fresh set-up processes besides the measuring one
RUN_LIMIT_S = 170.0


def code_digest(root: Path) -> str:
    """sha256 over the package source and the benchmark's own code."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def call_worker(root: Path, args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # one client, one process: BLAS stays on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = root / "src" / "blochkit" / "__init__.py"
    if Path(out["blochkit_file"]).resolve() != expected.resolve():
        raise RuntimeError(f"imported blochkit from {out['blochkit_file']}, not {expected}")
    return out


def check_digest(root: Path, key: str, digests: list[str]):
    """Answers must match across the rounds of a run and across runs of
    one code version, traced or not. Returns a failure reason or None."""
    if len(digests) != 1:
        return f"answers differ between rounds: {digests}"
    store = root / ".perfbench_out" / "digests.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    if seen.get(key, digests[0]) != digests[0]:
        return f"answers differ from an earlier run: {seen[key]} != {digests[0]}"
    seen[key] = digests[0]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="minimum measuring time; the run also answers at least 3 "
                        "rounds and 100 questions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the self-test only")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "blochkit" / "__init__.py").is_file():
        print(f"perfbench: no blochkit package under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        setups = [call_worker(root, common + ["--setup-only"], remaining())["setup"]
                  for _ in range(SETUP_PROBES)]
        run = call_worker(root, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--min-samples", "100" if args.size == "full" else "10"], remaining())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup"])

    code = code_digest(root)
    digest_error = check_digest(root, f"{code}/{args.workload}/{args.size}/{args.seed}",
                                run["digests"])
    correct = run["failed"] == 0 and digest_error is None
    environment = dict(run["environment"], git_commit=git_commit(root), code_sha256=code)

    if args.trace:
        values = dict(run["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
        declared = PER_LAYER
    else:
        values = dict(run["end_to_end"])
        values["setup_s"] = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
        declared = END_TO_END
    # a layer the workload never calls reads zero
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in declared.items()}

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "setups": setups,
              "digest_error": digest_error,
              **{k: v for k, v in run.items() if k not in ("environment", "setup")},
              "metrics": metrics}
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    for line in run["failures"] + ([digest_error] if digest_error else []):
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
