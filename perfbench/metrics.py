"""Names and units of the metrics the benchmark prints (BENCHMARK.json
lists the same names; perfbench/selftest.py checks that they agree)."""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "question_p50_s": "s",
    "question_p90_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}

OPERATORS = ("isometry_verdict", "norm_bounds", "empirical_opnorm_lower",
             "sigma_estimate", "supnorm_estimate", "boundedness_verdict",
             "spectrum_cloud")

PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "domains.sample_interior.calls": "count",
    "domains.sample_interior.points": "count",
    "domains.sample_interior.s": "s",
    "domains.contains.calls": "count",
    "domains.contains.s": "s",
    "kernels.grad.single.calls": "count",
    "kernels.grad.single.terms": "count",
    "kernels.grad.single.s": "s",
    "kernels.eval.single.calls": "count",
    "kernels.eval.single.s": "s",
    "kernels.grad.batch.calls": "count",
    "kernels.grad.batch.term_points": "count",
    "kernels.grad.batch.s": "s",
    "kernels.eval.batch.term_points": "count",
    "kernels.eval.batch.s": "s",
    "kernels.micro.grad_1x2000_s": "s",
    "kernels.micro.grad_20000x8_s": "s",
    "symbols.power.calls": "count",
    "symbols.power.terms_out": "count",
    "symbols.power.s": "s",
    "bloch.q_values.calls": "count",
    "bloch.q_values.points": "count",
    "bloch.q_values.s": "s",
    "bloch.q_value.calls": "count",
    "bloch.q_value.s": "s",
    "bloch.sup.scan_s": "s",
    "bloch.sup.refine_s": "s",
    "bloch.sup.refine_raised_frac": "ratio",
    "metric.path_length.calls": "count",
    "metric.path_length.s": "s",
    "metric.quad.calls": "count",
    "metric.quad.evals": "count",
    "metric.quad.s": "s",
    "metric.nelder_mead.nfev": "count",
    "metric.nelder_mead.s": "s",
    **{f"operators.{fn}.{suffix}": unit for fn in OPERATORS
       for suffix, unit in (("calls", "count"), ("s", "s"))},
    "trace.overhead_frac": "ratio",
}
