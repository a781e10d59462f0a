"""Zero-inflated left-truncated generalized Pareto regression.

A mixture of a point mass at zero and a generalized Pareto positive part,
with the zero mass fed both by true non-events and by positives recorded as
zeros below a known threshold. Covariates act on the positive-outcome
probability (logit link) and on the positive mean (log link). The package
covers density evaluation, maximum-likelihood fitting with Wald and
likelihood-ratio inference, unit-mean Pareto residual diagnostics, and a
seeded Monte-Carlo harness for estimator coverage studies.
"""

__version__ = "0.1.0"

from .gpd import (
    GpdMean,
    GpdScale,
    excess_distribution,
    gpd_cdf,
    gpd_log_pdf,
    gpd_pdf,
    gpd_quantile,
    mean_over_threshold,
    mean_quantile_level,
)
from .model import (
    CoefVector,
    MixturePoint,
    ModelSpec,
    ZitpoParams,
    density,
    density_shifted,
    linkinv_log,
    linkinv_logit,
    log_density,
    log_likelihood,
    predict,
    zero_prob,
)
from .estimation import (
    FitResult,
    TestResult,
    confidence_interval,
    fit_mle,
    lrt,
    wald_test,
)
from .diagnostics import (
    ResidualSet,
    ks_statistic,
    qq_data,
    residuals,
    residuals_from_params,
    zero_calibration,
)
from .simulation import (
    CoverageReport,
    SimConfig,
    coverage_study,
    reference_config,
    reference_grid,
    replicate_rng,
    rtrunc_gpd,
    simulate_dataset,
)
from .data_io import (
    ContrastSpec,
    Dataset,
    FormulaSpec,
    build_design,
    make_model_spec,
    parse_formula,
    read_csv,
)

__all__ = [
    "__version__",
    # gpd
    "GpdScale",
    "GpdMean",
    "gpd_cdf",
    "gpd_pdf",
    "gpd_log_pdf",
    "gpd_quantile",
    "mean_quantile_level",
    "excess_distribution",
    "mean_over_threshold",
    # model
    "ZitpoParams",
    "ModelSpec",
    "CoefVector",
    "MixturePoint",
    "linkinv_logit",
    "linkinv_log",
    "zero_prob",
    "density",
    "log_density",
    "density_shifted",
    "predict",
    "log_likelihood",
    # estimation
    "FitResult",
    "TestResult",
    "fit_mle",
    "confidence_interval",
    "wald_test",
    "lrt",
    # diagnostics
    "ResidualSet",
    "residuals",
    "residuals_from_params",
    "qq_data",
    "ks_statistic",
    "zero_calibration",
    # simulation
    "SimConfig",
    "CoverageReport",
    "replicate_rng",
    "rtrunc_gpd",
    "simulate_dataset",
    "coverage_study",
    "reference_config",
    "reference_grid",
    # data
    "Dataset",
    "ContrastSpec",
    "FormulaSpec",
    "read_csv",
    "parse_formula",
    "build_design",
    "make_model_spec",
]
