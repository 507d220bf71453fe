"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks
that the last stdout line has exactly the keys correct, attempted, failed
and metrics; that every metric BENCHMARK.json names is printed with its
unit and a finite value; that the answers pass their checks and the
traced run's answer digest equals the untraced run's; and that in a
directory holding only BENCHMARK.json and perfbench/ the command fails
without printing a result. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(line: str, declared: dict) -> list[str]:
    errors = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            errors.append(f"{name}: value {v!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        errors.append("BENCHMARK.json and perfbench/metrics.py name different metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json and perfbench/run.py name different workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            errors += [f"{tag}: {e}" for e in
                       check_result(proc.stdout.strip().splitlines()[-1], declared[trace])]

    bare = ROOT / ".perfbench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "refine", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
