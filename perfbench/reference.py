"""Independent reference computations for the benchmark's correctness checks.

Written from the model's closed form, not from the package:

    P(Y = 0)          = 1 - pi * S(y0)
    f(y), y > y0      = pi * g(y)

where g and S are the density and survival function of a generalized Pareto
law with shape xi and scale sigma = mu * (1 - xi), so that its mean is mu.
With z = y / sigma,

    log g(y) = -log sigma - (1 + xi) * L(xi, z)
    log S(y) = -L(xi, z),          L(xi, z) = log(1 + xi * z) / xi

and L(0, z) = z is the exponential limit, which log1p reaches continuously.
Only numpy and scipy are used; nothing here imports ``zitpo``.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def _log1p_ratio(xi: float, z):
    """log(1 + xi*z) / xi, continuous in xi at 0 where it equals z."""
    z = np.asarray(z, dtype=float)
    if xi == 0.0:
        return z
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log1p(xi * z) / xi
    # xi < 0 beyond the support end: the survival is zero there.
    return np.where(1.0 + xi * z > 0.0, out, np.inf)


def log_p_zero(pi, mu, xi: float, y0: float):
    """log P(Y = 0): true zeros plus positives at or below the threshold."""
    sigma = np.asarray(mu, dtype=float) * (1.0 - xi)
    surv = np.exp(-_log1p_ratio(xi, y0 / sigma))
    return np.log1p(-np.asarray(pi, dtype=float) * surv)


def p_zero(pi, mu, xi: float, y0: float):
    """Closed-form P(Y = 0)."""
    return np.exp(log_p_zero(pi, mu, xi, y0))


def log_pos_density(y, pi, mu, xi: float):
    """log of pi * g(y), the continuous part above the threshold."""
    sigma = np.asarray(mu, dtype=float) * (1.0 - xi)
    z = np.asarray(y, dtype=float) / sigma
    return np.log(pi) - np.log(sigma) - (1.0 + xi) * _log1p_ratio(xi, z)


def loglik_terms(y, y0: float, x1, x2, b1, b2, xi: float) -> np.ndarray:
    """Per-row log-likelihood contributions of the zero-inflated model."""
    y = np.asarray(y, dtype=float)
    pi = 1.0 / (1.0 + np.exp(-(x1 @ b1)))
    mu = np.exp(x2 @ b2)
    pos = y > 0.0
    out = np.empty(y.shape)
    out[~pos] = log_p_zero(pi[~pos], mu[~pos], xi, y0)
    out[pos] = log_pos_density(y[pos], pi[pos], mu[pos], xi)
    return out


def loglik(y, y0: float, x1, x2, params) -> float:
    """Log-likelihood at natural parameters (beta1, beta2, xi)."""
    p1 = x1.shape[1]
    p2 = x2.shape[1]
    b1, b2, xi = params[:p1], params[p1 : p1 + p2], float(params[p1 + p2])
    if xi >= 1.0:
        return -np.inf
    return float(np.sum(loglik_terms(y, y0, x1, x2, b1, b2, xi)))


def loglik_theta(y, y0: float, x1, x2, theta) -> float:
    """Log-likelihood in the fitter's coordinates, xi = 1 - exp(-t)."""
    params = np.array(theta, dtype=float)
    params[-1] = -np.expm1(-params[-1])
    return loglik(y, y0, x1, x2, params)


def theta_from_params(params) -> np.ndarray:
    """Map (beta1, beta2, xi) to the fitter's coordinates (beta1, beta2, t)."""
    theta = np.array(params, dtype=float)
    theta[-1] = -np.log1p(-theta[-1])
    return theta


def central_gradient(f, x, h: float = EPS ** (1.0 / 3.0)) -> np.ndarray:
    """Central-difference gradient, step h*max(1, |x_j|) per coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        e = np.zeros(x.size)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def central_hessian(f, x, h: float = EPS ** 0.25) -> np.ndarray:
    """Central second differences, symmetric by construction."""
    x = np.asarray(x, dtype=float)
    k = x.size
    steps = h * np.maximum(1.0, np.abs(x))
    f0 = f(x)
    H = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i):
            ej = np.zeros(k)
            ej[j] = steps[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return H


def score_tolerance(abs_terms_sum: float, theta, gtol: float) -> float:
    """Bound on the reference score at a point where the fitter stopped.

    The fitter stops once its own central-difference gradient has max-norm
    below ``gtol``. The exact score there differs from that reading, and the
    reference reading differs from the exact score, each by at most the
    rounding of two log-likelihood sums over the step, a few ulps of the
    absolute term sum divided by the smallest step. Eight ulps per side,
    two sides.
    """
    h_min = EPS ** (1.0 / 3.0) * max(1.0, float(np.min(np.abs(theta))))
    return gtol + 2.0 * 8.0 * EPS * abs_terms_sum / h_min


def pareto_residuals(y_pos, mu_pos, xi: float, y0: float) -> np.ndarray:
    """(y - y0) / E[Y - y0 | Y > y0]: unit-mean GPD(xi) under the model."""
    return (np.asarray(y_pos) - y0) / (np.asarray(mu_pos) + xi * y0 / (1.0 - xi))


def unit_mean_gpd_quantile(p, xi: float):
    """Quantile of the GPD with mean 1 and shape xi (scale 1 - xi)."""
    p = np.asarray(p, dtype=float)
    if xi == 0.0:
        return -np.log1p(-p)
    return (1.0 - xi) * np.expm1(-xi * np.log1p(-p)) / xi


def first_appearance_levels(values) -> list[str]:
    """Factor levels in the order they first occur."""
    _, first = np.unique(np.asarray(values), return_index=True)
    return [str(values[i]) for i in sorted(first)]


def treatment_design(
    columns: dict[str, np.ndarray],
    terms: list[str],
    levels: dict[str, list[str]],
) -> tuple[np.ndarray, list[str]]:
    """Design matrix with an intercept, numeric columns, treatment-coded
    factors (first level is the base) and pairwise products for 'a:b'.

    ``columns`` holds float arrays for numeric variables and string arrays
    for the factors named in ``levels``.
    """

    def coded(var: str) -> tuple[list[str], list[np.ndarray]]:
        col = columns[var]
        if var not in levels:
            return [var], [np.asarray(col, dtype=float)]
        kept = levels[var][1:]
        return [f"{var}={lv}" for lv in kept], [(col == lv).astype(float) for lv in kept]

    names = ["intercept"]
    cols = [np.ones(len(next(iter(columns.values()))))]
    for term in terms:
        parts = term.split(":")
        if len(parts) == 1:
            n, c = coded(parts[0])
            names += n
            cols += c
            continue
        na, ca = coded(parts[0])
        nb, cb = coded(parts[1])
        for a_name, a_col in zip(na, ca):
            for b_name, b_col in zip(nb, cb):
                names.append(f"{a_name}:{b_name}")
                cols.append(a_col * b_col)
    return np.column_stack(cols), names
