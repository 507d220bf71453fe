"""One benchmark process: import blochkit, build one workload's inputs,
then answer its question set in closed-loop rounds and print one JSON
object on stdout.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/;
not meant to be started by hand. `--setup-only` stops after the inputs
are built, which is how run.py times set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MAX_LOOP_S = 110.0  # with set-up, a run ends within three minutes


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_round(questions, tracer=None):
    """Answer every question once. Returns per-question latencies, the
    failures, and the sha256 of the answers."""
    import workloads

    answers, latencies, failures, digest_rows = {}, [], [], []
    for q in questions:
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result, error = q.ask(), None
        except Exception as exc:  # a raising question is a failed answer
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            answers[q.qid] = result
            try:
                error = q.check(result, answers)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{q.qid}: {error}")
        digest_rows.append([q.qid, workloads.canonical(result) if error is None
                            else error])
    blob = json.dumps(digest_rows, sort_keys=True).encode()
    return latencies, failures, hashlib.sha256(blob).hexdigest()


def kernel_micro(bk, seed: int) -> dict:
    """The two kernel regimes through the public gradient entry point:
    one point against a 2000-term symbol, and 20000 points against an
    8-term symbol. Median of seven timed calls after one warm-up."""
    import numpy as np
    from blochkit.symbols import Polynomial

    rng = np.random.default_rng(seed)
    out = {}
    for name, terms, points, top in (("grad_1x2000_s", 2000, 1, 13),
                                     ("grad_20000x8_s", 8, 20000, 5)):
        codes = rng.choice(top ** 3, size=terms, replace=False)
        exps = sorted(tuple(int(c) // top ** j % top for j in range(3)) for c in codes)
        coeffs = rng.standard_normal((terms, 2))
        poly = Polynomial(3, tuple((e, complex(a, b)) for e, (a, b) in zip(exps, coeffs)))
        Z = 0.5 * (rng.standard_normal((points, 3)) + 1j * rng.standard_normal((points, 3))) / 3
        bk.gradient_many(poly, Z)
        times = []
        for _ in range(7):
            start = perf_counter()
            bk.gradient_many(poly, Z)
            times.append(perf_counter() - start)
        out[f"kernels.micro.{name}"] = statistics.median(times)
    return out


def _blas(np) -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(bk) -> dict:
    import numpy as np
    import scipy

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": bk.backend_name(),
        "blas": _blas(np),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(args, questions, bk) -> dict:
    """Closed loop: one client asks the next question only after the
    previous answer. Runs until --seconds have passed and the minimum
    rounds and latency samples are in. With --trace, traced and untraced
    rounds alternate, so one process gives both the layer counts and the
    untraced round time they are compared against."""
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rounds = []
    start, cpu_start = perf_counter(), process_time()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(bk)
        try:
            lat, failures, digest = run_round(questions, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "latencies": lat, "failures": failures,
                       "digest": digest, "wall_s": sum(lat),
                       "layers": dict(tracer.totals) if traced else None})
        plain = [r for r in rounds if not r["traced"]]
        # a traced run prints no latency percentile, so it needs no
        # minimum sample count
        if tracer is None:
            enough = sum(len(r["latencies"]) for r in plain) >= args.min_samples
        else:
            enough = len(rounds) - len(plain) >= MIN_TRACED_ROUNDS
        done = len(plain) >= MIN_ROUNDS and enough
        elapsed = perf_counter() - start
        if (done and elapsed >= args.seconds) or elapsed >= MAX_LOOP_S:
            break

    loop_s, loop_cpu_s = perf_counter() - start, process_time() - cpu_start
    plain = [r for r in rounds if not r["traced"]]
    pooled = [x for r in plain for x in r["latencies"]]
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    result = {
        "rounds": len(rounds),
        # below 1 when the process waited for a CPU (shared machine)
        "loop_cpu_over_wall": loop_cpu_s / loop_s,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "questions_per_round": len(questions),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for r in rounds for f in r["failures"]}),
        "digests": sorted({r["digest"] for r in rounds}),
        "latency_samples": len(pooled),
        "question_median_s": {q.qid: statistics.median(r["latencies"][i] for r in plain)
                              for i, q in enumerate(questions)},
        "end_to_end": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "question_p50_s": statistics.median(pooled),
            "question_p90_s": _quantile(pooled, 0.90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - failed / attempted,
        },
    }
    if tracer is not None:
        traced_rounds = [r for r in rounds if r["traced"]]
        keys = sorted({k for r in traced_rounds for k in r["layers"]})
        layers = {k: statistics.median(r["layers"].get(k, 0.0) for r in traced_rounds)
                  for k in keys}
        attempts = layers.pop("bloch.sup.refine_attempts", 0.0)
        raised = layers.pop("bloch.sup.refine_raised", 0.0)
        layers["bloch.sup.refine_raised_frac"] = raised / attempts if attempts else 0.0
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_rounds)
            / result["end_to_end"]["wall_s"] - 1.0)
        layers.update(kernel_micro(bk, args.seed))
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--min-samples", type=int, default=100)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = perf_counter()
    import blochkit as bk
    t1 = perf_counter()
    import workloads
    questions = workloads.build(args.workload, args.seed, args.size)
    t2 = perf_counter()
    out = {"setup": {"import_s": t1 - t0, "inputs_s": t2 - t1},
           "blochkit_file": bk.__file__}
    if not args.setup_only:
        out["environment"] = environment(bk)
        out.update(measure(args, questions, bk))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
