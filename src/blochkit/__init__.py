"""Numerical toolkit for Bloch-space calculus and multiplication
operators on bounded symmetric domains: invariant gradient lengths,
Bloch seminorms, extremal growth functions, boundary multiplier
weights, operator-norm sandwiches, spectra as range closures, and
compactness/isometry verdicts, with a registry of the classical Bloch
constants."""

from ._kernels import backend_name
from .bloch import (beta_estimate, beta_upper_poly, bloch_norm_estimate,
                    lipschitz_beta_estimate, little_star_membership_diagnostic,
                    omega_empirical_lower, q_value, q_value_oracle, q_values)
from .constants import (REGISTRY, AmbiguousConstantError, bloch_constant,
                        bloch_constant_candidates, has_disk_factor,
                        in_class_D, registry_table, resolved_constant,
                        standard_form)
from .domains import (DomainDescriptor, Kind, ball, cartan1, cartan2, cartan3,
                      cartan4, contains, disk, exceptional16, exceptional27,
                      parse_domain, polydisk, product, sample_interior,
                      sample_near_distinguished_boundary)
from .errors import (BlochkitError, BranchCutError, DimensionMismatch,
                     NumericalDomainError, OutsideDomainError, ParseError,
                     SuiteFailure, UnsupportedDomainError,
                     UnsupportedMetricError, UsageError)
from .estimates import (DEFAULT_EPS_LADDER, EstimateInterval, SamplingConfig,
                        exact)
from .metric import (metric_matrix, path_length, rho_from_origin,
                     segment_from_origin)
from .operators import (boundedness_verdict, compactness_verdict,
                        empirical_opnorm_lower, grid_coverage,
                        isometry_verdict, norm_bounds, operator_report,
                        sigma_estimate, sigma_upper_poly, spectrum_cloud,
                        supnorm_estimate)
from .symbols import (SymbolExpr, combine, constant, coordinate, evaluate,
                      evaluate_many, gradient, gradient_many, parse_symbol,
                      supnorm_upper)

omega_bounds = rho_from_origin  # omega(z) = rho(0, z) on every metric domain

# names of the verify, probes and report modules, imported on first use
# so that `import blochkit` does not load them
_LAZY = {"SUITES": "verify", "CheckResult": "verify", "run_suite": "verify",
         "run_probe": "probes", "VERSION": "report", "__version__": "report",
         "AnalysisReport": "report", "ResultRow": "report", "render": "report"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{_LAZY[name]}", __name__)
    value = getattr(module, "VERSION" if name == "__version__" else name)
    globals()[name] = value
    return value

__all__ = [
    "AmbiguousConstantError", "AnalysisReport", "BlochkitError",
    "BranchCutError", "CheckResult", "DEFAULT_EPS_LADDER",
    "DimensionMismatch", "DomainDescriptor", "EstimateInterval", "Kind",
    "NumericalDomainError", "OutsideDomainError", "ParseError", "REGISTRY",
    "ResultRow", "SUITES", "SamplingConfig", "SuiteFailure", "SymbolExpr",
    "UnsupportedDomainError", "UnsupportedMetricError", "UsageError",
    "VERSION", "backend_name", "ball", "beta_estimate",
    "beta_upper_poly", "bloch_constant", "bloch_constant_candidates",
    "bloch_norm_estimate", "boundedness_verdict", "cartan1", "cartan2",
    "cartan3", "cartan4", "combine", "compactness_verdict", "constant",
    "contains", "coordinate", "disk", "empirical_opnorm_lower", "evaluate",
    "evaluate_many", "exact", "exceptional16", "exceptional27", "gradient",
    "gradient_many", "grid_coverage", "has_disk_factor", "in_class_D",
    "isometry_verdict", "lipschitz_beta_estimate",
    "little_star_membership_diagnostic", "metric_matrix", "norm_bounds",
    "omega_bounds", "omega_empirical_lower", "operator_report", "parse_domain",
    "parse_symbol", "path_length", "polydisk", "product", "q_value",
    "q_value_oracle", "q_values", "registry_table",
    "render", "resolved_constant", "rho_from_origin", "run_probe",
    "run_suite", "sample_interior", "sample_near_distinguished_boundary",
    "segment_from_origin", "sigma_estimate", "sigma_upper_poly",
    "spectrum_cloud", "standard_form", "supnorm_estimate", "supnorm_upper",
]
