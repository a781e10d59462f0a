"""Pareto residuals and fit diagnostics for the positive part.

Positive observations above the threshold satisfy, in finite samples,

    (Y - y_trunc) / (mu_i + xi * y_trunc / (1 - xi))  ~  GPD(mean 1, xi)

so residuals computed this way can be compared directly to a unit-mean
generalized Pareto law: a straight QQ plot indicates a good fit. The zero
part is assessed separately by a calibration table of predicted versus
observed zero fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import FitResult
from .gpd import GpdMean, gpd_cdf, gpd_quantile
from .model import ModelSpec, _linear_predictors, _loglik_terms, linkinv_logit, predict

__all__ = [
    "ResidualSet",
    "residuals",
    "residuals_from_params",
    "qq_data",
    "ks_statistic",
    "zero_calibration",
]


@dataclass(frozen=True)
class ResidualSet:
    """Residuals of the positive observations with their reference law.

    ``order`` is the stable sort order of ``residuals``, so ``ordered`` is
    ``residuals[order]``; ``theoretical_q`` holds unit-mean GPD quantiles at
    the plotting positions ``(i - 0.5) / n`` matching the sorted residuals.
    """

    residuals: np.ndarray
    row_ids: np.ndarray
    xi_hat: float
    ordered: np.ndarray
    theoretical_q: np.ndarray
    order: np.ndarray

    @property
    def n_pos(self) -> int:
        return self.residuals.size


def _residual_set(y_pos, row_ids, mu_hat, xi_hat: float, y_trunc: float) -> ResidualSet:
    denom = mu_hat + xi_hat * y_trunc / (1.0 - xi_hat)
    res = (y_pos - y_trunc) / denom
    order = np.argsort(res, kind="stable")
    n = res.size
    positions = (np.arange(1, n + 1) - 0.5) / n
    theo = gpd_quantile(positions, GpdMean(1.0, xi_hat)) if n else np.empty(0)
    return ResidualSet(
        residuals=res,
        row_ids=np.asarray(row_ids, dtype=int),
        xi_hat=float(xi_hat),
        ordered=res[order],
        theoretical_q=np.asarray(theo, dtype=float),
        order=order,
    )


def residuals(y, y_trunc: float, fit: FitResult, spec: ModelSpec) -> ResidualSet:
    """Residuals of the positive part under the fitted coefficients.

    With ``y_trunc = 0`` this reduces to ``y_i / mu_hat_i``.
    """
    if not fit.converged:
        raise ValueError("residuals require a converged fit")
    y = np.asarray(y, dtype=float)
    pos = y > y_trunc
    _, mu = predict(spec, fit.coef)
    return _residual_set(
        y[pos], np.nonzero(pos)[0], mu[pos], fit.coef.xi, y_trunc
    )


def residuals_from_params(y, y_trunc: float, mu, xi: float) -> ResidualSet:
    """Residuals from known per-row means, e.g. the simulation truth."""
    y = np.asarray(y, dtype=float)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
    pos = y > y_trunc
    return _residual_set(y[pos], np.nonzero(pos)[0], mu[pos], xi, y_trunc)


def qq_data(rs: ResidualSet) -> dict[str, np.ndarray]:
    """Quantile pairs for QQ plotting, on the original and log scales.

    Returns columns ``row_id``, ``residual``, ``empirical_q``,
    ``theoretical_q``, ``log_empirical_q``, ``log_theoretical_q``; rows are
    ordered by residual size. The empirical quantile at position i is the
    i-th order statistic itself.
    """
    if rs.n_pos < 2:
        raise ValueError("QQ data needs at least two positive residuals")
    with np.errstate(divide="ignore"):
        return {
            "row_id": rs.row_ids[rs.order],
            "residual": rs.ordered,
            "empirical_q": rs.ordered,
            "theoretical_q": rs.theoretical_q,
            "log_empirical_q": np.log(rs.ordered),
            "log_theoretical_q": np.log(rs.theoretical_q),
        }


def ks_statistic(rs: ResidualSet) -> float:
    """Sup distance between the residual ECDF and the unit-mean GPD CDF."""
    if rs.n_pos < 1:
        raise ValueError("no residuals to compare")
    n = rs.n_pos
    cdf = np.asarray(gpd_cdf(rs.ordered, GpdMean(1.0, rs.xi_hat)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def zero_calibration(
    y, y_trunc: float, fit: FitResult, spec: ModelSpec, bins: int = 10
) -> list[dict]:
    """Observed vs predicted zero fractions across bins of predicted pi.

    Rows carry the bin index, its size, the mean predicted zero probability
    (including the truncation mass) and the observed zero fraction.
    """
    if not fit.converged:
        raise ValueError("calibration requires a converged fit")
    y = np.asarray(y, dtype=float)
    eta1, eta2 = _linear_predictors(spec, fit.coef)
    pi = linkinv_logit(eta1)
    # each row's zero probability: the kernel's term, every row a zero row
    v = np.full(y.size, float(y_trunc))
    p_zero = np.exp(_loglik_terms(v, y.size, eta1, eta2, fit.coef.xi))
    edges = np.quantile(pi, np.linspace(0.0, 1.0, bins + 1))
    idx = np.clip(np.searchsorted(edges[1:-1], pi, side="right"), 0, bins - 1)
    count = np.bincount(idx, minlength=bins)
    sums = [np.bincount(idx, weights=w, minlength=bins) for w in (pi, p_zero, y == 0.0)]
    return [
        {
            "bin": b,
            "count": int(count[b]),
            "mean_pi": float(sums[0][b] / count[b]),
            "predicted_zero": float(sums[1][b] / count[b]),
            "observed_zero": float(sums[2][b] / count[b]),
        }
        for b in np.flatnonzero(count).tolist()
    ]
