"""Every log-likelihood value the package reports, against the closed forms.

The row kernel ``zitpo.model._row_derivs`` is the package's one formula for a
row's term. ``loglik_reference`` keeps the closed forms it replaced, with
their own exponential branch; each value entry point must agree with them
within 1e-13 relative on both sides of xi = 0 and with and without a
threshold.
"""

import numpy as np
import pytest

import loglik_reference as ref
from zitpo.diagnostics import zero_calibration
from zitpo.estimation import FitResult, fit_mle
from zitpo.model import CoefVector, ZitpoParams, log_density, log_likelihood, predict, zero_prob
from zitpo.simulation import SimConfig, simulate_dataset

# (0, XI_TOL) is left out: there the closed forms take their exponential branch
XI_GRID = [-0.3, -1e-6, 0.0, 1e-6, 1e-3, 0.25, 0.7]
RTOL = 1e-13

grid = pytest.mark.parametrize("xi", XI_GRID)
thresholds = pytest.mark.parametrize("y_trunc", [0.0, 0.125])


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= RTOL * np.abs(want)), np.max(np.abs(got / want - 1.0))


def dataset(xi, y_trunc, n=600):
    """Data drawn from the model at xi, with one covariate in both parts."""
    cfg = SimConfig(
        n=n, reps=1, beta1=(0.2, 0.8), beta2=(0.4, -0.5), xi=xi, y_trunc=y_trunc,
        covariate_recipe=(("normal", 0.0, 1.0),), seed=61,
    )
    y, spec = simulate_dataset(cfg, 0)
    return y, spec, CoefVector(beta1=cfg.beta1, beta2=cfg.beta2, xi=xi)


def params(xi, y_trunc, count=40):
    """Random (pi, mu) with positive values inside a xi < 0 support end."""
    rng = np.random.default_rng(62)
    for _ in range(count):
        p = ZitpoParams(
            pi=rng.uniform(0.02, 0.98), mu=float(np.exp(rng.normal(0.3, 1.0))), xi=xi,
            y_trunc=y_trunc,
        )
        yield p, y_trunc + rng.uniform(0.05, 2.0) * p.mu


@grid
@thresholds
def test_log_likelihood(xi, y_trunc):
    y, spec, coef = dataset(xi, y_trunc)
    close(log_likelihood(y, y_trunc, spec, coef), ref.loglik(y, y_trunc, spec, coef))


@grid
@thresholds
def test_zero_prob(xi, y_trunc):
    for p, _ in params(xi, y_trunc):
        close(zero_prob(p), np.exp(ref.zero_log_prob(p.pi, 1.0 - p.pi, p.mu, xi, y_trunc)))


@grid
@thresholds
def test_log_density(xi, y_trunc):
    for p, y in params(xi, y_trunc):
        close(log_density(0.0, p), ref.zero_log_prob(p.pi, 1.0 - p.pi, p.mu, xi, y_trunc))
        close(log_density(y, p), ref.pos_log_density(y, p.pi, p.mu, xi))


@grid
@thresholds
def test_zero_calibration(xi, y_trunc):
    y, spec, coef = dataset(xi, y_trunc)
    fit = FitResult(
        coef=coef, se=np.ones(5), cov=np.eye(5), loglik=0.0, n_zero=0, n_pos=y.size,
        converged=True, iterations=1, names1=spec.names1, names2=spec.names2,
        y_trunc=y_trunc,
    )
    pi, mu = predict(spec, coef)
    p0 = np.exp(ref.zero_log_prob(pi, 1.0 - pi, mu, xi, y_trunc))
    table = zero_calibration(y, y_trunc, fit, spec)
    # bins are contiguous runs of rows sorted by predicted pi
    order = np.argsort(pi, kind="stable")
    bounds = np.cumsum([0] + [row["count"] for row in table])
    assert bounds[-1] == y.size
    close(
        [row["predicted_zero"] for row in table],
        [np.mean(p0[order[lo:hi]]) for lo, hi in zip(bounds[:-1], bounds[1:])],
    )


@grid
@thresholds
def test_fit_loglik(xi, y_trunc):
    y, spec, _ = dataset(xi, y_trunc)
    fit = fit_mle(y, y_trunc, spec, fix_xi=xi)
    assert fit.converged
    close(fit.loglik, ref.loglik(y, y_trunc, spec, fit.coef))
