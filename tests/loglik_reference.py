"""Closed-form reference of the model's per-row log-likelihood terms.

These are the closed forms that ``zitpo.model`` used before its row kernel
``_row_derivs`` became the one formula for a row's term: the log survival of
the truncation threshold, the zero-row log mass, the positive-row log
density, and the per-row terms of both kinds, with their own exponential
branch for ``|xi| < XI_TOL``. Tests check the kernel and every value entry
point of the package against them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from zitpo.gpd import XI_TOL
from zitpo.model import _row_derivs


def log_trunc_survival(mu, xi: float, y_trunc: float):
    """log P(Y* > y_trunc | Y* > 0) for the positive GPD part. Vectorized in mu."""
    if y_trunc == 0.0:
        return np.zeros_like(np.asarray(mu, dtype=float))
    if abs(xi) < XI_TOL:
        return -y_trunc / np.asarray(mu, dtype=float)
    a = (xi / (1.0 - xi)) * y_trunc / np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log1p(a) / xi
    # xi < 0 with the threshold at/above the support endpoint: survival 0
    out = np.where(a <= -1.0, -np.inf, out)
    return out


def zero_log_prob(pi, qi, mu, xi: float, y_trunc: float):
    """log P(Y = 0) = log(1 - pi * S(y_trunc)) as log(qi - pi * (S - 1)),
    with qi = 1 - pi given by the caller, so nothing cancels when pi is near
    1. Vectorized in (pi, qi, mu)."""
    log_s = log_trunc_survival(mu, xi, y_trunc)
    with np.errstate(divide="ignore"):
        out = np.log(qi - np.asarray(pi, dtype=float) * np.expm1(log_s))
    # a threshold beyond a xi < 0 support end leaves no mass above it: log(1)
    return np.where(log_s == -np.inf, 0.0, out)


def pos_log_density(y, pi, mu, xi: float):
    """log of the continuous mixture part, -inf outside the support."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_pi = np.log(np.asarray(pi, dtype=float))
        if abs(xi) < XI_TOL:
            out = log_pi - np.log(mu) - y / mu
        else:
            a = (xi / (1.0 - xi)) * y / mu
            out = (
                log_pi
                - np.log(mu * (1.0 - xi))
                - (1.0 / xi + 1.0) * np.log1p(a)
            )
            out = np.where(a <= -1.0, -np.inf, out)
    return out


def loglik_terms(y: np.ndarray, pi, qi, mu, xi: float, y_trunc: float) -> np.ndarray:
    """Per-row log mass/density contributions, with qi = 1 - pi given by the
    caller (see :func:`zero_log_prob`); -inf marks invalid regions."""
    terms = np.empty_like(y, dtype=float)
    zero = y == 0.0
    pi = np.broadcast_to(np.asarray(pi, dtype=float), y.shape)
    qi = np.broadcast_to(np.asarray(qi, dtype=float), y.shape)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
    terms[zero] = zero_log_prob(pi[zero], qi[zero], mu[zero], xi, y_trunc)
    terms[~zero] = pos_log_density(y[~zero], pi[~zero], mu[~zero], xi)
    return terms


def loglik(y, y_trunc: float, spec, coef) -> float:
    """The model log-likelihood of ``coef`` from the closed forms."""
    eta1 = spec.x1 @ coef.beta1
    mu = np.exp(spec.x2 @ coef.beta2)
    return math.fsum(loglik_terms(y, expit(eta1), expit(-eta1), mu, coef.xi, y_trunc))


# The kernel on one row kind, the form in which the tests compare it.


def zero_row_derivs(eta1, eta2, xi: float, y_trunc: float):
    """``_row_derivs`` on zero rows alone."""
    return _row_derivs(np.full(np.shape(eta2), float(y_trunc)), np.size(eta2), eta1, eta2, xi)


def pos_row_derivs(y, eta1, eta2, xi: float):
    """``_row_derivs`` on positive rows alone."""
    return _row_derivs(np.asarray(y, dtype=float), 0, eta1, eta2, xi)
