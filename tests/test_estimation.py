"""Optimizer, derivative and inference tests.

The LRT null calibration and Wald z studies come from the session-scoped
``lrt_null_study`` fixture (500 seeded replicates at n=1000).
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import expit

import zitpo.estimation as estimation
import zitpo.model as model
from loglik_reference import pos_row_derivs, zero_row_derivs
from zitpo.estimation import (
    FitResult,
    _maximize_newton,
    _newton_direction,
    _score_hessian,
    _split_rows,
    chi2_sf,
    confidence_interval,
    fit_mle,
    lrt,
    numeric_gradient,
    numeric_hessian,
    wald_test,
)
from zitpo.estimation import TestResult as InferenceResult
from zitpo.model import (
    _ROW_BLOCK,
    CoefVector,
    ModelSpec,
    _m_derivs,
    _row_derivs,
    log_likelihood,
)
from zitpo.simulation import SimConfig, reference_config, rtrunc_gpd, simulate_dataset


def make_fit(est1, est2, xi, se, loglik=-10.0, names1=None, names2=None, n=(50, 50)):
    """Hand-built FitResult for testing the inference helpers."""
    k = len(est1) + len(est2) + 1
    se = np.asarray(se, dtype=float)
    return FitResult(
        coef=CoefVector(beta1=np.asarray(est1), beta2=np.asarray(est2), xi=xi),
        se=se,
        cov=np.diag(se**2),
        loglik=loglik,
        n_zero=n[0],
        n_pos=n[1],
        converged=True,
        iterations=1,
        names1=tuple(names1 or (f"a{i}" for i in range(len(est1)))),
        names2=tuple(names2 or (f"b{i}" for i in range(len(est2)))),
        y_trunc=0.0,
    )


class TestNumericGradient:
    def test_quadratic_is_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        g = numeric_gradient(lambda v: v @ a @ v, x)
        assert np.allclose(g, (a + a.T) @ x, atol=1e-8)

    def test_constant_function(self):
        g = numeric_gradient(lambda v: 3.5, np.array([1.0, -2.0]))
        assert np.array_equal(g, np.zeros(2))

    def test_nonfinite_probe_names_coordinate(self):
        def f(v):
            return np.nan if v[1] > 1.0 else float(np.sum(v))

        with pytest.raises(ValueError, match="coordinate 1"):
            numeric_gradient(f, np.array([0.0, 1.0]))

    def test_per_observation_gradient_shrinks_with_n(self):
        # max-norm of the mean-loglik gradient at the truth ~ 1/sqrt(n)
        sizes = (500, 1000, 2000, 4000)
        norms = []
        for n in sizes:
            vals = []
            for r in range(12):
                cfg = reference_config(n=n, reps=1, xi=0.25, seed=31)
                y, spec = simulate_dataset(cfg, r)
                theta0 = np.concatenate([cfg.beta1, cfg.beta2, [cfg.xi]])

                def mean_ll(t):
                    coef = CoefVector(beta1=t[:6], beta2=t[6:12], xi=t[12])
                    return log_likelihood(y, cfg.y_trunc, spec, coef) / n

                vals.append(np.max(np.abs(numeric_gradient(mean_ll, theta0))))
            norms.append(np.mean(vals))
        slope = np.polyfit(np.log(sizes), np.log(norms), 1)[0]
        assert -0.85 < slope < -0.2


class TestNumericHessian:
    def test_quadratic_is_recovered(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        x = rng.normal(size=3)
        h = numeric_hessian(lambda v: v @ a @ v, x)
        assert np.allclose(h, a + a.T, atol=1e-6)

    def test_symmetry_by_construction(self):
        rng = np.random.default_rng(2)
        h = numeric_hessian(lambda v: np.sum(np.sin(v) * v**2), rng.normal(size=4))
        assert np.array_equal(h, h.T)

    def test_negative_definite_at_mle(self):
        cfg = reference_config(n=500, reps=1, xi=0.25, seed=5)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged

        ll = natural_loglik(y, cfg.y_trunc, spec)
        eig = np.linalg.eigvalsh(numeric_hessian(ll, fit.estimates))
        assert np.all(eig < 0.0)


def random_problem(xi, y_trunc, seed, n=300):
    """Random coefficients and data drawn from the model at them; positive
    values stay clear of a xi < 0 support end so numeric probes are finite."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.random(n) < 0.5])
    spec = ModelSpec(x1=x, x2=x[:, :2])
    b1 = np.array([rng.normal(-0.3, 0.3), rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)])
    b2 = np.array([rng.normal(0.5, 0.3), rng.normal(0.0, 0.4)])
    coef = CoefVector(beta1=b1, beta2=b2, xi=xi)
    pi = expit(x @ b1)
    mu = np.exp(spec.x2 @ b2)
    y_star = rtrunc_gpd(1.0 - 0.99 * rng.random(n), mu, xi, 0.0)
    y = np.where((rng.random(n) < pi) & (y_star > y_trunc), y_star, 0.0)
    return y, spec, coef


def natural_loglik(y, y_trunc, spec, fixed_xi=None):
    p1, p2 = spec.x1.shape[1], spec.x2.shape[1]

    def f(v):
        xi = fixed_xi if fixed_xi is not None else v[p1 + p2]
        coef = CoefVector(beta1=v[:p1], beta2=v[p1 : p1 + p2], xi=xi)
        return log_likelihood(y, y_trunc, spec, coef)

    return f


def support_shifts(rows, coef, xi):
    """Per positive row, the mu-intercept shift at and below which the row
    lies past the xi < 0 support end: xi*y/(mu*(1 - xi)) = -1."""
    pos = slice(rows.n_zero, None)
    return np.log(rows.v[pos] * -xi / (1.0 - xi)) - coef.beta2 @ rows.x2[:, pos]


def kernels_finite(rows, y_trunc, b1, b2, xi):
    """Whether the per-kind kernels, summed over all rows with no support
    check, give a finite value, score and Hessian."""
    z, p = slice(0, rows.n_zero), slice(rows.n_zero, None)
    zero = zero_row_derivs(b1 @ rows.x1[:, z], b2 @ rows.x2[:, z], xi, y_trunc)
    pos = pos_row_derivs(rows.v[p], b1 @ rows.x1[:, p], b2 @ rows.x2[:, p], xi)
    return all(np.isfinite(np.sum(a, axis=-1)).all() for a in zero + pos)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the fitter's calls into the row kernel and into _m_derivs."""
    calls = {"kernel": 0, "m_derivs": 0}

    def counted(kind, kernel):
        def wrapper(*args):
            calls[kind] += 1
            return kernel(*args)

        return wrapper

    monkeypatch.setattr(estimation, "_row_derivs", counted("kernel", _row_derivs))
    monkeypatch.setattr(model, "_m_derivs", counted("m_derivs", _m_derivs))
    return calls


@pytest.fixture
def pass_counts(monkeypatch):
    """Counts of the fitter's passes, all and feasible (a finite value)."""
    passes = {"all": 0, "feasible": 0}
    real_pass = estimation._score_hessian

    def counted_pass(*args):
        out = real_pass(*args)
        passes["all"] += 1
        passes["feasible"] += math.isfinite(out[0])
        return out

    monkeypatch.setattr(estimation, "_score_hessian", counted_pass)
    return passes


def least_squares_start(y, spec, xi_start):
    """The fitter's default start, given the scaled Gram of its rank check."""
    return estimation._default_start(y, spec, xi_start, model._check_rank(spec.x1, spec.names1))


def intercept_only_start(y, spec, xi_start):
    """The fitter's start before the least-squares one: the logit of the
    positive fraction and the log of the positive mean as intercepts, every
    slope 0, and below 0 the mu intercept raised so that every positive y
    lies inside the support end twice over."""
    pos = y > 0.0
    frac = min(max(float(np.mean(pos)), 1e-3), 1.0 - 1e-3)
    b1 = np.zeros(spec.x1.shape[1])
    b1[0] = math.log(frac / (1.0 - frac))
    b2 = np.zeros(spec.x2.shape[1])
    b2[0] = math.log(float(np.mean(y[pos])))
    if xi_start < 0.0:
        b2[0] = max(b2[0], math.log(2.0 * float(np.max(y)) * -xi_start / (1.0 - xi_start)))
    return CoefVector(beta1=b1, beta2=b2, xi=xi_start)


def sweep_point(rows, coef, xi, shift, calls):
    """The pass at the mu intercept moved by ``shift``: 'infeasible' or
    'feasible', checked against the kernels summed over all rows. An
    infeasible pass makes no kernel call (``calls`` counts them)."""
    b2 = coef.beta2 + np.array([shift, 0.0])
    before = dict(calls)
    out, score, hess = _score_hessian(rows, coef.beta1, b2, xi)
    after = dict(calls)
    assert (out == -math.inf) == (not kernels_finite(rows, 0.125, coef.beta1, b2, xi))
    if out == -math.inf:
        assert after == before
        return "infeasible"
    assert np.isfinite(score).all() and np.isfinite(hess).all()
    return "feasible"


XI_GRID = [-0.3, -1e-6, 0.0, 1e-6, 1e-3, 0.25, 0.7]

# (eta1, eta2, xi) index pairs of the kernel's six second-derivative rows
UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def per_kind_sums(y, y_trunc, spec, b1, b2, xi):
    """Value, score and Hessian from the one-kind kernels, each on all its
    rows at once, summed through the per-row Jacobian of (eta1, eta2, xi)."""
    p1, p2 = spec.x1.shape[1], spec.x2.shape[1]
    k = p1 + p2 + 1
    value, score, hess = 0.0, np.zeros(k), np.zeros((k, k))
    for zero in (True, False):
        rows = (y == 0.0) == zero
        x1, x2 = spec.x1[rows], spec.x2[rows]
        if zero:
            t, g, h = zero_row_derivs(x1 @ b1, x2 @ b2, xi, y_trunc)
        else:
            t, g, h = pos_row_derivs(y[rows], x1 @ b1, x2 @ b2, xi)
        jac = np.zeros((3, t.size, k))
        jac[0, :, :p1], jac[1, :, p1:-1], jac[2, :, -1] = x1, x2, 1.0
        value += t.sum()
        score += sum(jac[a].T @ g[a] for a in range(3))
        for row, (a, b) in zip(h, UPPER):
            block = jac[a].T @ (row[:, None] * jac[b])
            hess += block if a == b else block + block.T
    return value, score, hess


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("xi", XI_GRID)
    @pytest.mark.parametrize("y_trunc", [0.0, 0.125])
    def test_score_and_information_match_numeric_oracles(self, xi, y_trunc):
        for seed in range(3):
            y, spec, coef = random_problem(xi, y_trunc, seed)
            v = np.concatenate([coef.beta1, coef.beta2, [xi]])
            f = natural_loglik(y, y_trunc, spec)
            _, score, hess = _score_hessian(
                _split_rows(y, y_trunc, spec), coef.beta1, coef.beta2, xi
            )
            g_num = numeric_gradient(f, v)
            assert np.max(np.abs(score - g_num)) <= 1e-6 * np.max(np.abs(score))
            h_num = numeric_hessian(f, v)
            assert np.max(np.abs(hess - h_num)) <= 1e-4 * np.max(np.abs(hess))

    # one block holding both row kinds; two blocks, the first straddling the
    # kind boundary and the second holding no zero rows; three blocks, the
    # first all zero rows, the second straddling, the third no zero rows
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("y_trunc", [0.0, 0.125])
    @pytest.mark.parametrize("xi", XI_GRID)
    def test_pass_equals_the_per_kind_kernels_summed(self, xi, y_trunc, blocks, kernel_calls):
        size = _ROW_BLOCK
        n = {1: 1000, 2: size + 1000, 3: 2 * size + 2000}[blocks]
        y, spec, coef = random_problem(xi, y_trunc, 31, n=n)
        rows = _split_rows(y, y_trunc, spec)
        # the zero rows end inside the straddling block
        lo, hi = {1: (0, n), 2: (0, size), 3: (size, 2 * size)}[blocks]
        assert lo < rows.n_zero < hi
        got = _score_hessian(rows, coef.beta1, coef.beta2, xi)
        assert kernel_calls == {"kernel": blocks, "m_derivs": blocks}
        want = per_kind_sums(y, y_trunc, spec, coef.beta1, coef.beta2, xi)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("xi", [-0.3, 0.0, 0.25])
    def test_pass_value_is_the_log_likelihood(self, xi):
        # more rows than one block of the assembly, so every block is summed
        y, spec, coef = random_problem(xi, 0.125, 8, n=2 * _ROW_BLOCK + 7)
        loglik, _, _ = _score_hessian(
            _split_rows(y, 0.125, spec), coef.beta1, coef.beta2, xi
        )
        ref = log_likelihood(y, 0.125, spec, coef)
        assert loglik == pytest.approx(ref, rel=1e-12)
        # a positive y past a xi < 0 support end makes the point infeasible
        y_out = y.copy()
        y_out[np.argmax(y)] = 1e6
        out, _, _ = _score_hessian(
            _split_rows(y_out, 0.125, spec), coef.beta1, coef.beta2, -0.3
        )
        assert out == -math.inf

    def test_fewer_zero_rows_than_one_block(self):
        # one partial block of zero rows beside three blocks of positive rows
        n = 2 * _ROW_BLOCK + 7
        y, spec, coef = random_problem(0.25, 0.125, 9, n=n)
        zero = np.flatnonzero(y == 0.0)
        y[zero[40:]] = 0.125 + np.random.default_rng(9).exponential(2.0, zero.size - 40)
        rows = _split_rows(y, 0.125, spec)
        assert rows.n_zero == 40 < _ROW_BLOCK < rows.v.size - rows.n_zero
        v = np.concatenate([coef.beta1, coef.beta2, [0.25]])
        f = natural_loglik(y, 0.125, spec)
        loglik, score, hess = _score_hessian(rows, coef.beta1, coef.beta2, 0.25)
        assert loglik == pytest.approx(f(v), rel=1e-12)
        assert np.max(np.abs(score - numeric_gradient(f, v))) <= 1e-6 * np.max(np.abs(score))
        assert np.max(np.abs(hess - numeric_hessian(f, v))) <= 1e-4 * np.max(np.abs(hess))

    @pytest.mark.parametrize("xi", [0.0, 0.25])
    def test_fixed_shape_mode(self, xi):
        # a frozen shape drops the xi row and column: the free block is the
        # system in (beta1, beta2) at that xi
        y, spec, coef = random_problem(xi, 0.125, 5)
        v = np.concatenate([coef.beta1, coef.beta2])
        f = natural_loglik(y, 0.125, spec, fixed_xi=xi)
        _, score, hess = _score_hessian(
            _split_rows(y, 0.125, spec), coef.beta1, coef.beta2, xi
        )
        assert score.shape == (6,) and hess.shape == (6, 6)
        score, hess = score[:5], hess[:5, :5]
        assert np.max(np.abs(score - numeric_gradient(f, v))) <= 1e-6 * np.max(np.abs(score))
        h_num = numeric_hessian(f, v)
        assert np.max(np.abs(hess - h_num)) <= 1e-4 * np.max(np.abs(hess))

    def test_standard_errors_match_numeric_hessian(self):
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=41)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        h_num = numeric_hessian(natural_loglik(y, cfg.y_trunc, spec), fit.estimates)
        se_num = np.sqrt(np.diag(np.linalg.inv(-h_num)))
        assert np.allclose(fit.se, se_num, rtol=1e-4)

    @pytest.mark.parametrize("fix_xi", [None, 0.2])
    def test_covariance_matches_the_natural_scale_information(self, fix_xi):
        # the fit inverts the free block of the Newton pass's last Hessian;
        # assembling it again at the estimates gives the same matrix, and a
        # frozen shape has zero rows and columns
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=43)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec, fix_xi=fix_xi)
        assert fit.converged
        _, _, hess = _score_hessian(
            _split_rows(y, cfg.y_trunc, spec), fit.coef.beta1, fit.coef.beta2, fit.coef.xi
        )
        k = hess.shape[0] - (fix_xi is not None)
        assert np.allclose(
            fit.cov[:k, :k], np.linalg.inv(-hess[:k, :k]), rtol=1e-10, atol=0.0
        )
        if fix_xi is not None:
            assert np.all(fit.cov[-1] == 0.0) and np.all(fit.cov[:, -1] == 0.0)

    @pytest.mark.parametrize("xi", [-0.05, -0.3, -0.9])
    def test_support_check_is_exact(self, xi, kernel_calls):
        # the pass reads -inf exactly where the kernels over all rows are not
        # finite, as the mu intercept moves the outermost positive y across the end
        y, spec, coef = random_problem(xi, 0.125, 12)
        rows = _split_rows(y, 0.125, spec)
        shifts = support_shifts(rows, coef, xi)
        start = float(np.max(shifts))
        sweep = start + np.concatenate([
            np.linspace(-0.5, 0.5, 21),
            [np.nextafter(0.0, -1.0), 0.0, np.nextafter(0.0, 1.0)],
        ])
        outcomes = [sweep_point(rows, coef, xi, s, kernel_calls) for s in sweep]
        assert {"feasible", "infeasible"} == set(outcomes)

    @pytest.mark.parametrize("xi", [-0.05, -0.3, -0.9])
    def test_support_check_reaches_the_last_positive_block(self, xi, kernel_calls):
        y, spec, coef = random_problem(xi, 0.125, 13, n=3 * _ROW_BLOCK)
        rows = _split_rows(y, 0.125, spec)
        assert rows.v.size - rows.n_zero > _ROW_BLOCK
        # lift the last positive row half a unit of eta2 past every other one
        shifts = support_shifts(rows, coef, xi)
        last = shifts.size - 1
        rows.v[rows.n_zero + last] *= math.exp(np.max(shifts[:last]) + 0.5 - shifts[last])
        shifts = support_shifts(rows, coef, xi)
        assert np.argmax(shifts) == last
        ahead = float(np.max(shifts[:last]))
        for s in np.linspace(ahead + 0.05, shifts[last] - 0.05, 5):
            # only the last block crosses: the rows before it are inside
            assert np.all(shifts[:last] < s)
            assert sweep_point(rows, coef, xi, s, kernel_calls) == "infeasible"
        assert sweep_point(rows, coef, xi, ahead + 0.55, kernel_calls) == "feasible"

    @pytest.mark.parametrize("xi", [-0.3, 0.25])
    @pytest.mark.parametrize("eta2", [-700.0, 700.0])
    def test_extreme_mu_predictor_raises_no_warning(self, xi, eta2):
        y, spec, coef = random_problem(xi, 0.125, 14)
        b2 = np.array([eta2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, _, _ = _score_hessian(_split_rows(y, 0.125, spec), coef.beta1, b2, xi)
        if xi < 0.0 and eta2 < 0.0:
            assert out == -math.inf

    def test_score_vanishes_at_the_fit(self):
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=42)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        _, score, _ = _score_hessian(
            _split_rows(y, cfg.y_trunc, spec), fit.coef.beta1, fit.coef.beta2, fit.coef.xi
        )
        assert np.max(np.abs(score)) < 1e-6


class TestNewton:
    def test_work_count_gate(self, monkeypatch):
        # machine-independent: kernel passes and iterations per fit
        calls = []
        real = estimation._score_hessian

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, "_score_hessian", counted)
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=21)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        assert fit.iterations <= 15
        # 13 passes over 9 iterations when this was written
        assert len(calls) <= 15

    def test_one_kernel_pass_per_trial_point(self, monkeypatch):
        # value, score and Hessian share a pass; the compensated sum runs
        # once, and so does the zero/positive row split
        calls = {"terms": 0, "passes": 0, "splits": 0}
        real_terms, real_pass = estimation._loglik_terms, estimation._score_hessian
        real_split = estimation._split_rows

        def counted_terms(*args, **kwargs):
            calls["terms"] += 1
            return real_terms(*args, **kwargs)

        def counted_pass(*args, **kwargs):
            calls["passes"] += 1
            return real_pass(*args, **kwargs)

        def counted_split(*args, **kwargs):
            calls["splits"] += 1
            return real_split(*args, **kwargs)

        monkeypatch.setattr(estimation, "_loglik_terms", counted_terms)
        monkeypatch.setattr(estimation, "_score_hessian", counted_pass)
        monkeypatch.setattr(estimation, "_split_rows", counted_split)
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=21)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        assert calls["terms"] == 1
        assert calls["passes"] <= 20
        assert calls["splits"] == 1

    def test_infeasible_trials_run_no_kernel(self, kernel_calls, pass_counts):
        # a trial past a xi < 0 support end costs the support check alone;
        # each feasible pass makes one kernel call and one _m_derivs call
        # (n = 1000 is one block), and each fit one more _m_derivs call, in
        # the value-only kernel call for its reported log-likelihood. The
        # intercept-only start steps past the support end; the default start
        # does not (see test_least_squares_start_pass_count)
        cfg = reference_config(n=1000, reps=40, xi=0.25, seed=801)
        for rep in range(cfg.reps):
            y, spec = simulate_dataset(cfg, rep)
            init = intercept_only_start(y, spec, estimation.XI_START)
            assert fit_mle(y, cfg.y_trunc, spec, init=init).converged
        assert kernel_calls["kernel"] == kernel_calls["m_derivs"] - cfg.reps == pass_counts["feasible"]
        # 547 passes, 143 of them infeasible, when this was written; a kernel
        # pass per trial point would make 547 calls per kind
        assert pass_counts["feasible"] <= 420 < pass_counts["all"]

    def test_least_squares_start_pass_count(self, pass_counts):
        # machine-independent: the same cell from the default start made 245
        # passes, none infeasible, when the least-squares start came in
        # (404 feasible of 547 from the intercept-only start)
        cfg = reference_config(n=1000, reps=40, xi=0.25, seed=801)
        for rep in range(cfg.reps):
            y, spec = simulate_dataset(cfg, rep)
            assert fit_mle(y, cfg.y_trunc, spec).converged
        assert pass_counts["feasible"] <= 260

    def test_indefinite_information_still_gives_an_ascent_step(self):
        hess = np.diag([-4.0, 1.0, -1e-12])
        g = np.array([1.0, -2.0, 0.5])
        p, factor = _newton_direction(g, hess)
        assert np.all(np.isfinite(p)) and g @ p > 0.0
        assert factor is None

    def test_fallback_direction_follows_covariate_units(self):
        # the fallback floors the eigenvalues of -H scaled to unit diagonal,
        # so a coefficient in units u (score g*u, Hessian u*H*u) steps p/u
        hess = -np.array([[4.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 2.0]])
        g = np.array([1.0, -2.0, 0.5])
        units = np.array([1.0, 1e9, 1e-3])
        p, _ = _newton_direction(g, hess)
        q, factor = _newton_direction(g * units, hess * units[:, None] * units)
        assert factor is None
        assert np.allclose(q * units, p, rtol=1e-12, atol=0.0)

    def test_definite_information_gives_the_newton_step(self):
        hess = -np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        g = np.array([1.0, -2.0, 0.5])
        p, factor = _newton_direction(g, hess)
        assert factor is not None
        assert np.allclose(p, np.linalg.solve(-hess, g), rtol=1e-14, atol=0.0)
        lower = np.tril(factor)
        assert np.allclose(lower @ lower.T, -hess, rtol=1e-14, atol=0.0)

    def test_decrement_stop_without_a_factor_is_not_converged(self):
        # at a saddle the gradient is zero but -H is indefinite: the pass stops
        # on the decrement with no factor; at a maximum it keeps the factor
        def quadratic(curvature):
            def evaluate(x):
                return -0.5 * x @ (curvature * x), -curvature * x, -np.diag(curvature)

            return evaluate

        _, factor, trace = _maximize_newton(quadratic(np.array([2.0, -2.0])), np.zeros(2), 2)
        assert factor is None and trace == ()
        x, factor, trace = _maximize_newton(quadratic(np.array([2.0, 3.0])), np.ones(2), 2)
        assert np.allclose(x, 0.0, rtol=0.0, atol=1e-15) and len(trace) == 1
        assert np.allclose(np.diag(factor), np.sqrt([2.0, 3.0]), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("fix_xi", [None, 0.2])
    def test_one_factorization_per_newton_direction(self, monkeypatch, fix_xi):
        # dposv decides, steps and, at the stop, gives the covariance through
        # dpotri; numpy's cholesky, solve and inv never run
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy linear algebra called inside the fit")

        for name in ("cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        calls = {"directions": 0, "dposv": 0, "dpotri": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            estimation, "_newton_direction",
            counted("directions", estimation._newton_direction),
        )
        for name in ("dposv", "dpotri"):
            real = getattr(estimation.lapack, name)
            monkeypatch.setattr(estimation.lapack, name, counted(name, real))
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=7)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec, fix_xi=fix_xi)
        assert fit.converged
        # the default start solves its two least-squares systems by dposv too
        assert calls["dposv"] - 2 == calls["directions"] == fit.iterations + 1
        assert calls["dpotri"] == 1

    def test_package_import_leaves_scipy_linalg_unloaded(self):
        # that package would add about 6 MB of resident memory to every
        # process; the fitter loads scipy's compiled LAPACK module alone
        code = "import sys, zitpo.cli; print('scipy.linalg' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_covariate_units_do_not_change_the_fit(self, scale):
        # the Newton decrement does not change under a rescaled column, so
        # neither do the iterations; the estimates agree once the scale is undone
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=7)
        y, spec = simulate_dataset(cfg, 0)
        x = spec.x1.copy()
        x[:, 1] *= scale
        scaled = ModelSpec(x1=x, x2=x, names1=spec.names1, names2=spec.names2)
        base = fit_mle(y, cfg.y_trunc, spec)
        fit = fit_mle(y, cfg.y_trunc, scaled)
        assert base.converged and fit.converged
        assert fit.iterations == base.iterations
        undo = np.ones(base.estimates.size)
        undo[[1, 1 + spec.x1.shape[1]]] = scale
        assert np.all(np.abs(fit.estimates * undo - base.estimates) < 1e-6 * base.se)
        assert np.allclose(fit.se * undo, base.se, rtol=1e-6, atol=0.0)
        assert fit.loglik == pytest.approx(base.loglik, rel=1e-12)

    def test_far_start_reaches_the_same_optimum(self):
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=3)
        y, spec = simulate_dataset(cfg, 0)
        near = fit_mle(y, cfg.y_trunc, spec)
        far_init = CoefVector(beta1=np.full(6, 0.5), beta2=np.full(6, -0.3), xi=0.7)
        far = fit_mle(y, cfg.y_trunc, spec, init=far_init)
        assert near.converged and far.converged
        assert np.allclose(far.estimates, near.estimates, atol=1e-6)
        assert far.loglik == pytest.approx(near.loglik, abs=1e-8)

    def test_frozen_exponential_shape_on_a_design(self):
        # fix_xi = 0 runs through the series limit of the derivative kernel
        cfg = SimConfig(
            n=800, reps=1, beta1=(0.2, 0.5), beta2=(1.0, -0.4), xi=0.0,
            y_trunc=0.125, covariate_recipe=(("normal", 0.0, 1.0),), seed=9,
        )
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec, fix_xi=0.0)
        assert fit.converged and fit.se[-1] == 0.0
        f = natural_loglik(y, cfg.y_trunc, spec, fixed_xi=0.0)
        assert np.max(np.abs(numeric_gradient(f, fit.estimates[:-1]))) < 1e-5


class TestFitMle:
    def test_closed_form_with_frozen_shape(self):
        rng = np.random.default_rng(11)
        n = 400
        y = np.where(rng.random(n) < 0.4, rng.exponential(3.0, n), 0.0)
        spec = ModelSpec(x1=np.ones((n, 1)), x2=np.ones((n, 1)))
        fit = fit_mle(y, 0.0, spec, fix_xi=0.0)
        assert fit.converged and fit.xi_fixed
        assert expit(fit.coef.beta1[0]) == pytest.approx(np.mean(y > 0), abs=1e-6)
        assert np.exp(fit.coef.beta2[0]) == pytest.approx(
            np.mean(y[y > 0]), rel=1e-6
        )
        assert fit.se[-1] == 0.0  # frozen shape has no sampling variance

    def test_reference_design_recovery_single_run(self):
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=21)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        err = np.abs(fit.estimates - cfg.truth)
        assert np.all(err <= 3.0 * fit.se)
        # this run shows the typical small downward shape bias; the mean-level
        # bias statement is asserted over 300 replicates in the acceptance suite
        assert fit.coef.xi < cfg.xi

    def test_degenerate_responses_rejected(self):
        spec = ModelSpec(x1=np.ones((10, 1)), x2=np.ones((10, 1)))
        with pytest.raises(ValueError, match="no positive"):
            fit_mle(np.zeros(10), 0.0, spec)
        with pytest.raises(ValueError, match="no zeros"):
            fit_mle(np.full(10, 2.0), 0.0, spec)

    def test_rank_deficient_design_rejected(self):
        x = np.column_stack([np.ones(20), np.arange(20.0), np.arange(20.0)])
        spec = ModelSpec(x1=x, x2=np.ones((20, 1)))
        y = np.where(np.arange(20) % 2 == 0, 1.5, 0.0)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_mle(y, 0.0, spec)

    def test_rank_deficiency_names_the_columns_of_either_part(self):
        x = np.column_stack([np.ones(20), np.arange(20.0), np.zeros(20)])
        y = np.where(np.arange(20) % 2 == 0, 1.5, 0.0)
        message = "design is rank deficient; redundant columns: ['x2']"
        for spec in (ModelSpec(x1=x, x2=x[:, :2]), ModelSpec(x1=x[:, :2], x2=x)):
            with pytest.raises(ValueError) as info:
                fit_mle(y, 0.0, spec)
            assert str(info.value) == message

    def test_column_in_large_units_passes_the_rank_check(self, monkeypatch):
        # one iteration is enough to show the check let the design through
        monkeypatch.setattr(estimation, "_MAX_ITER", 1)
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=7)
        y, spec = simulate_dataset(cfg, 0)
        x1 = spec.x1.copy()
        x1[:, 1] *= 1e12
        fit = fit_mle(y, cfg.y_trunc, ModelSpec(x1=x1, x2=spec.x2))
        assert fit.iterations == 1

    def test_near_separated_design_gets_no_fabricated_standard_errors(self):
        # every b = 1 row is positive, so the pi coefficient of b runs off
        # towards infinity along a flat likelihood
        rng = np.random.default_rng(5)
        n = 600
        b = (rng.random(n) < 0.3).astype(float)
        z = rng.normal(size=n)
        x = np.column_stack([np.ones(n), b, z])
        positive = (rng.random(n) < expit(-0.5 + 0.5 * z)) | (b == 1.0)
        y = np.where(positive, rng.exponential(2.0, n), 0.0)
        fit = fit_mle(y, 0.0, ModelSpec(x1=x, x2=x))
        if fit.converged:
            assert fit.se[1] > 10.0 * abs(fit.coef.beta1[1])
        else:
            assert np.all(np.isnan(fit.se))

    def test_deterministic_across_runs(self):
        cfg = reference_config(n=500, reps=1, xi=0.25, seed=13)
        y, spec = simulate_dataset(cfg, 0)
        a = fit_mle(y, cfg.y_trunc, spec)
        b = fit_mle(y, cfg.y_trunc, spec)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.se, b.se)
        assert a.loglik == b.loglik and a.iterations == b.iterations

    def test_trace_records_progress(self):
        cfg = reference_config(n=500, reps=1, xi=0.25, seed=14)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert len(fit.trace) == fit.iterations
        logliks = [t[1] for t in fit.trace]
        assert logliks[-1] >= logliks[0]

    @pytest.mark.parametrize("fix_xi", [0.2, -0.2])
    def test_fixed_shape_overrides_the_start(self, fix_xi):
        # the start's xi differs; the shape is frozen at fix_xi exactly
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=44)
        y, spec = simulate_dataset(cfg, 0)
        init = least_squares_start(y, spec, fix_xi)
        init = CoefVector(beta1=init.beta1, beta2=init.beta2, xi=0.6)
        fit = fit_mle(y, cfg.y_trunc, spec, init=init, fix_xi=fix_xi)
        assert fit.converged and fit.xi_fixed
        assert fit.coef.xi == fix_xi and fit.estimates[-1] == fix_xi
        assert fit.se[-1] == 0.0
        ref = fit_mle(y, cfg.y_trunc, spec, fix_xi=fix_xi)
        assert np.allclose(fit.estimates, ref.estimates, rtol=0.0, atol=1e-6)

    def test_iteration_cap_returns_an_unconverged_fit(self, monkeypatch):
        monkeypatch.setattr(estimation, "_MAX_ITER", 1)
        cfg = reference_config(n=500, reps=1, xi=0.25, seed=13)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert not fit.converged and fit.iterations == 1
        assert np.all(np.isnan(fit.se)) and np.all(np.isnan(fit.cov))
        assert np.isfinite(fit.loglik)

    @pytest.mark.parametrize("y_trunc", [-0.5, math.nan, math.inf])
    def test_bad_threshold_is_named(self, y_trunc):
        y, spec = simulate_dataset(reference_config(n=1000, xi=0.25, seed=11), 0)
        with pytest.raises(ValueError, match=f"truncation threshold .* got {y_trunc}"):
            fit_mle(y, y_trunc, spec)

    def test_full_model_dominates_reduced(self):
        cfg = reference_config(n=800, reps=1, xi=0.25, seed=15)
        y, spec = simulate_dataset(cfg, 0)
        full = fit_mle(y, cfg.y_trunc, spec)
        reduced_spec = ModelSpec(
            x1=spec.x1, x2=spec.x2[:, :-1], names1=spec.names1, names2=spec.names2[:-1]
        )
        reduced = fit_mle(y, cfg.y_trunc, reduced_spec)
        assert full.loglik >= reduced.loglik - 1e-6


def start_problem(n, kinds, xi, eta1, eta2, trunc, seed):
    """A response and design for the start: each of ``kinds`` adds a
    covariate ("plain", "collinear" with the previous one, "huge" in units of
    1e9, or "dead_level", a level whose rows are all zeros); the intercepts
    are eta1 and eta2, and y_trunc is ``trunc * exp(eta2)``. Some rows are
    forced positive and one zero, so that every problem can be fitted."""
    rng = np.random.default_rng(seed)
    y_trunc = trunc * math.exp(eta2)
    cols, effect, dead = [np.ones(n)], np.zeros(n), np.zeros(n, dtype=bool)
    z = cols[0]
    for kind in kinds:
        if kind == "collinear":
            z = z + 1e-3 * rng.normal(size=n)
        elif kind == "dead_level":
            z = np.zeros(n)
            z[rng.choice(n, n // 8, replace=False)] = 1.0
            dead |= z == 1.0
        else:
            z = rng.normal(size=n)
        effect += 0.4 * (z - np.mean(z)) / np.std(z)
        cols.append(z * 1e9 if kind == "huge" else z)
    x = np.column_stack(cols)
    positive = rng.random(n) < expit(eta1 + effect)
    y_star = rtrunc_gpd(1.0 - rng.random(n), np.exp(eta2 + 0.5 * effect), xi, 0.0)
    y = np.where(positive & (y_star > y_trunc), y_star, 0.0)
    forced = np.flatnonzero(~dead)[: x.shape[1] + 2]
    y[forced] = np.maximum(y[forced], 2.0 * y_trunc + math.exp(eta2))
    y[dead] = 0.0
    y[np.flatnonzero(~dead)[-1]] = 0.0
    return y, y_trunc, ModelSpec(x1=x, x2=x)


@st.composite
def start_problems(draw):
    """A :func:`start_problem` over n in [30, 400], 1-4 covariates, true xi
    in [-0.45, 0.95], y_trunc 0 or positive and intercepts that push |eta|
    high, with a fixed xi that is sometimes below 0."""
    kinds = st.sampled_from(["plain", "collinear", "huge", "dead_level"])
    problem = start_problem(
        draw(st.integers(30, 400)),
        draw(st.lists(kinds, min_size=1, max_size=4)),
        draw(st.floats(-0.45, 0.95)),
        draw(st.sampled_from([-3.0, 0.0, 4.0])),
        draw(st.sampled_from([-25.0, 1.0, 30.0])),
        draw(st.sampled_from([0.0, 0.5])),
        draw(st.integers(0, 2**32 - 1)),
    )
    return (*problem, draw(st.sampled_from([None, None, None, -0.3, -0.05])))


class TestLeastSquaresStart:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(problem=start_problems())
    def test_same_fit_as_from_the_intercept_only_start(self, problem):
        # the start is finite and feasible, and neither it nor a fit from it
        # or from the intercept-only start raises a RuntimeWarning. Many
        # draws have no finite maximum (a dead level, separation, a shape
        # near 1), so the fits run to the cap, held at 30 iterations to bound
        # the time; a converged fit here takes 5-15. At y_trunc = 0 a zero
        # row is a structural zero, so the logit part and the positive rows
        # are fitted apart: a fit the intercept-only start finds, the
        # least-squares start finds too, to within 1e-6 standard errors,
        # unless it climbs higher (at n = 30 it can run on to xi < -1, where
        # the likelihood has no upper bound; none of 3000 draws at the full
        # cap disagreed otherwise). Above 0 a zero row mixes both parts, and
        # either start can reach the higher of two maxima
        # (test_a_positive_threshold_can_give_two_maxima)
        y, y_trunc, spec, fix_xi = problem
        xi0 = estimation.XI_START if fix_xi is None else fix_xi
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error", RuntimeWarning)
            patch.setattr(estimation, "_MAX_ITER", 30)
            start = least_squares_start(y, spec, xi0)
            theta = np.concatenate([start.beta1, start.beta2, [start.xi]])
            assert np.isfinite(theta).all()
            out, _, _ = _score_hessian(_split_rows(y, y_trunc, spec), start.beta1, start.beta2, xi0)
            assert math.isfinite(out)
            new = fit_mle(y, y_trunc, spec, fix_xi=fix_xi)
            old = fit_mle(y, y_trunc, spec, init=intercept_only_start(y, spec, xi0), fix_xi=fix_xi)
        if y_trunc == 0.0 and old.converged and new.loglik < old.loglik + 1e-6:
            assert new.converged
            assert np.all(np.abs(new.estimates - old.estimates) <= 1e-6 * old.se)

    def test_a_small_sample_can_climb_past_xi_minus_one(self, monkeypatch):
        # a counter-example of the property above at y_trunc = 0: the
        # intercept-only start stops at a local maximum, and the fit from the
        # least-squares start climbs past it, to xi < -1, where the
        # likelihood of these 14 positive rows has no upper bound. It is
        # there by iteration 40 and still unconverged at 500; the cap is held
        # at 60 to bound the time
        y, y_trunc, spec = start_problem(30, ["collinear"], 1e-16, 0.0, 1.0, 0.0, 1)
        monkeypatch.setattr(estimation, "_MAX_ITER", 60)
        new = fit_mle(y, y_trunc, spec)
        old = fit_mle(y, y_trunc, spec, init=intercept_only_start(y, spec, estimation.XI_START))
        assert old.converged and not new.converged
        assert new.coef.xi < -1.0 and new.loglik > old.loglik

    @pytest.mark.parametrize("problem, fix_xi, gain", [
        ((124, ["plain"], 0.4968125940329126, -3.0, 30.0, 0.5, 3729805064), -0.3, 0.478),
        ((71, ["plain", "huge"], 0.029403395343570116, -3.0, -25.0, 0.5, 694779004), -0.05, -0.412),
    ])
    def test_a_positive_threshold_can_give_two_maxima(self, problem, fix_xi, gain):
        # counter-examples of the property above at y_trunc > 0, from a
        # 6500-draw search: each start converges to its own local maximum,
        # the least-squares start's the higher one in the first draw and the
        # lower one in the second (8 higher and 4 lower of the 12 such draws).
        # Both are maxima: a fit started at either stays there
        y, y_trunc, spec = start_problem(*problem)
        new = fit_mle(y, y_trunc, spec, fix_xi=fix_xi)
        old = fit_mle(y, y_trunc, spec, init=intercept_only_start(y, spec, fix_xi), fix_xi=fix_xi)
        assert new.converged and old.converged
        assert new.loglik - old.loglik == pytest.approx(gain, abs=1e-3)
        assert np.any(np.abs(new.estimates - old.estimates) > old.se)
        for fit in (new, old):
            again = fit_mle(y, y_trunc, spec, init=fit.coef, fix_xi=fix_xi)
            assert again.converged and again.iterations <= 1
            assert np.all(np.abs(again.estimates - fit.estimates) <= 1e-6 * fit.se)

    @pytest.mark.parametrize("units", [1.0, 1e3, 1e6, 1e9])
    def test_units_of_a_covariate_do_not_stall_the_fit(self, units):
        # a counter-example the property above found at 400 examples: -H is
        # indefinite at both starts, and the eigh fallback floored
        # |eigenvalues| at 1e-8 of the largest, which the units of a covariate
        # move. From 1e6 on the fit from the least-squares start crept along
        # at xi = 0.1 for 500 iterations. The fallback now works on -H scaled
        # to unit diagonal, so both starts converge in any units, in as many
        # iterations as in natural ones
        y, y_trunc, spec = start_problem(30, ["plain"], 0.7459600974002207, 0.0, 1.0, 0.5, 30)
        x = spec.x1.copy()
        x[:, 1] *= units
        scaled = ModelSpec(x1=x, x2=x)
        new = fit_mle(y, y_trunc, scaled)
        old = fit_mle(y, y_trunc, scaled, init=intercept_only_start(y, scaled, estimation.XI_START))
        assert new.converged and old.converged
        assert (new.iterations, old.iterations) == (7, 8)

    def test_least_squares_solution_on_the_design(self):
        # the pi part is one IRLS step from the intercept-only logit; the mu
        # part is the least-squares fit of log y with mean(y/mu) = 1
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=44)
        y, spec = simulate_dataset(cfg, 0)
        start = least_squares_start(y, spec, 0.1)
        pos = y > 0.0
        frac = np.mean(pos)
        z = math.log(frac / (1.0 - frac)) + (pos - frac) / (frac * (1.0 - frac))
        assert np.allclose(start.beta1, np.linalg.lstsq(spec.x1, z)[0], rtol=1e-10, atol=1e-12)
        b2 = np.linalg.lstsq(spec.x2[pos], np.log(y[pos]))[0]
        assert np.allclose(start.beta2[1:], b2[1:], rtol=1e-10, atol=1e-12)
        assert np.mean(y[pos] / np.exp(spec.x2[pos] @ start.beta2)) == pytest.approx(1.0, rel=1e-12)

    def test_a_level_with_no_positive_rows_keeps_the_intercept_only_mu_start(self):
        y = random_problem(0.25, 0.125, 3)[0]
        n = y.size
        level = (np.arange(n) % 5 == 0).astype(float)
        y = np.where(level == 1.0, 0.0, y)
        x = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n), level])
        spec = ModelSpec(x1=x, x2=x)
        start = least_squares_start(y, spec, 0.1)
        reference = intercept_only_start(y, spec, 0.1)
        assert np.array_equal(start.beta2, reference.beta2)
        assert start.beta1[2] < 0.0  # the pi part still takes its least-squares step

    @pytest.mark.parametrize("fix_xi", [-0.45, -0.2])
    def test_fixed_negative_shape_start_lies_inside_the_support_twice_over(self, fix_xi):
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=44)
        y, spec = simulate_dataset(cfg, 0)
        start = least_squares_start(y, spec, fix_xi)
        pos = y > 0.0
        end = np.exp(spec.x2[pos] @ start.beta2) * (1.0 - fix_xi) / -fix_xi
        assert np.all(2.0 * y[pos] <= end * (1.0 + 1e-12))
        assert np.any(2.0 * y[pos] >= end * (1.0 - 1e-12))  # the lift is no larger

    def test_start_follows_covariate_units(self):
        cfg = reference_config(n=1000, reps=1, xi=0.25, seed=44)
        y, spec = simulate_dataset(cfg, 0)
        x = spec.x1.copy()
        x[:, 1] *= 1e9
        base = least_squares_start(y, spec, 0.1)
        scaled = least_squares_start(y, ModelSpec(x1=x, x2=x), 0.1)
        for a, b in ((base.beta1, scaled.beta1), (base.beta2, scaled.beta2)):
            undo = np.ones(a.size)
            undo[1] = 1e9
            assert np.allclose(b * undo, a, rtol=1e-9, atol=1e-12)


def natural_score_norm(y, y_trunc, spec, fit):
    """Max-norm of the score in (beta1, beta2, xi) at a fit's estimates."""
    _, score, _ = _score_hessian(
        _split_rows(y, y_trunc, spec), fit.coef.beta1, fit.coef.beta2, fit.coef.xi
    )
    return float(np.max(np.abs(score)))


@pytest.fixture(scope="module")
def edge_fit():
    """Replicate 7 of this xi = 0.8 cell has a likelihood that keeps rising,
    ever more slowly, as xi -> 1."""
    cfg = reference_config(n=1000, xi=0.8, seed=11, y_trunc=0.125)
    y, spec = simulate_dataset(cfg, 7)
    return y, cfg.y_trunc, spec, fit_mle(y, cfg.y_trunc, spec)


class TestShapeEdge:
    def test_shape_running_to_the_edge_is_not_converged(self, edge_fit):
        *_, fit = edge_fit
        assert not fit.converged
        assert np.all(np.isnan(fit.se)) and np.all(np.isnan(fit.cov))
        # the edge stop ends the pass within 1e-3 of 1, not at the iteration cap
        assert fit.iterations < 100 and 1.0 - 1e-3 < fit.coef.xi < 1.0

    def test_edge_fit_reports_its_natural_scale_score(self, edge_fit):
        y, y_trunc, spec, fit = edge_fit
        norm = natural_score_norm(y, y_trunc, spec, fit)
        assert fit.trace[-1][2] == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert norm >= 1e-6

    def test_frozen_shape_near_the_edge_is_not_stopped(self, edge_fit):
        y, y_trunc, spec, _ = edge_fit
        fit = fit_mle(y, y_trunc, spec, fix_xi=1.0 - 1e-4)
        assert fit.converged and fit.se[-1] == 0.0

    @pytest.mark.parametrize("n, xi, rep", [(1000, 0.25, 0), (500, 0.5, 0), (1000, -0.2, 1)])
    def test_convergence_is_judged_on_the_newton_decrement(self, n, xi, rep):
        cfg = reference_config(n=n, reps=1, xi=xi, seed=11)
        y, spec = simulate_dataset(cfg, rep)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        _, score, hess = _score_hessian(
            _split_rows(y, cfg.y_trunc, spec), fit.coef.beta1, fit.coef.beta2, fit.coef.xi
        )
        step, factor = _newton_direction(score, hess)
        assert factor is not None and score @ step < 1e-16
        norm = float(np.max(np.abs(score)))
        assert fit.trace[-1][2] == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert norm < 1e-6


# (seed, xi) of the invariance fits: a heavy tail, a finite support end and
# the exponential limit, each at n = 600.
INVARIANCE_CASES = [(1, 0.25), (2, -0.2), (3, 0.0)]


def invariance_problem(seed, xi):
    cfg = reference_config(n=600, reps=1, xi=xi, seed=seed)
    y, spec = simulate_dataset(cfg, 0)
    return y, cfg.y_trunc, spec, fit_mle(y, cfg.y_trunc, spec)


class TestInvariance:
    @pytest.mark.parametrize("seed,xi", INVARIANCE_CASES)
    def test_row_order_does_not_change_the_fit(self, seed, xi):
        y, y_trunc, spec, fit = invariance_problem(seed, xi)
        perm = np.random.default_rng(seed).permutation(y.size)
        shuffled = ModelSpec(
            x1=spec.x1[perm], x2=spec.x2[perm], names1=spec.names1, names2=spec.names2
        )
        refit = fit_mle(y[perm], y_trunc, shuffled)
        assert fit.converged and refit.converged
        assert np.allclose(refit.estimates, fit.estimates, rtol=1e-7, atol=0.0)
        assert refit.loglik == pytest.approx(fit.loglik, rel=1e-9)

    @pytest.mark.parametrize("seed,xi", INVARIANCE_CASES)
    @pytest.mark.parametrize("c", [0.01, 7.0, 1000.0])
    def test_rescaling_the_response_shifts_only_the_mu_intercept(self, seed, xi, c):
        y, y_trunc, spec, fit = invariance_problem(seed, xi)
        refit = fit_mle(c * y, c * y_trunc, spec)
        assert fit.converged and refit.converged
        j = spec.x1.shape[1]  # the mu intercept
        assert refit.estimates[j] - fit.estimates[j] == pytest.approx(math.log(c), abs=1e-7)
        assert np.allclose(
            np.delete(refit.estimates, j), np.delete(fit.estimates, j), rtol=1e-7, atol=0.0
        )
        # each positive row's density picks up the Jacobian 1/c
        assert refit.loglik == pytest.approx(fit.loglik - fit.n_pos * math.log(c), rel=1e-9)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_raising_the_threshold_keeps_the_truth_within_4_se(self, seed):
        # the paper's threshold invariance: positives at or below a higher
        # threshold are recorded as zeros, and the same parameters still fit.
        # The worst of the 36 fits was 2.61 SE when this was written (0.35 s, 2 cores).
        cfg = reference_config(n=2000, reps=3, xi=0.25, seed=seed)
        for rep in range(cfg.reps):
            y, spec = simulate_dataset(cfg, rep)
            for y_trunc in (0.125, 0.25, 0.5, 1.0):
                fit = fit_mle(np.where(y > y_trunc, y, 0.0), y_trunc, spec)
                assert fit.converged
                assert np.max(np.abs(fit.estimates - cfg.truth) / fit.se) < 4.0


class TestConfidenceInterval:
    def test_unit_normal_case(self):
        fit = make_fit([0.0], [0.0], 0.1, se=[1.0, 1.0, 1.0])
        ci = confidence_interval(fit, 0.95)
        assert ci[0] == pytest.approx([-1.959964, 1.959964], abs=1e-6)

    def test_levels_nest(self):
        fit = make_fit([0.3], [1.2], 0.1, se=[0.5, 0.4, 0.2])
        narrow = confidence_interval(fit, 0.5)
        wide = confidence_interval(fit, 0.95)
        assert np.all(narrow[:, 0] > wide[:, 0]) and np.all(narrow[:, 1] < wide[:, 1])

    def test_level_domain(self):
        fit = make_fit([0.0], [0.0], 0.1, se=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            confidence_interval(fit, 1.0)


class TestWald:
    def test_reference_p_values(self):
        # 1.11/0.50 gives z=2.22 and a two-sided p near 0.027
        fit = make_fit([1.11], [-1.95], 0.1, se=[0.50, 0.32, 0.1])
        tests = wald_test(fit)
        assert tests[0].p_value == pytest.approx(0.0264, abs=5e-4)
        assert abs(tests[0].p_value - 0.027) < 0.005
        assert tests[1].p_value < 0.001
        assert all(t.kind == "wald" for t in tests)

    def test_zero_estimate_gives_p_one(self):
        fit = make_fit([0.0], [1.0], 0.1, se=[0.5, 0.5, 0.1])
        assert wald_test(fit)[0].p_value == 1.0

    def test_zero_se_rejected(self):
        fit = make_fit([1.0], [1.0], 0.1, se=[0.0, 0.5, 0.1])
        with pytest.raises(ValueError, match="zero standard error"):
            wald_test(fit)


class TestLrt:
    def test_identical_models(self):
        a = make_fit([0.5], [1.0], 0.1, se=[0.1, 0.1, 0.1], loglik=-55.0)
        out = lrt(a, a)
        assert out.statistic == 0.0 and out.p_value == 1.0 and out.df == 0

    def test_reference_chi_square_values(self):
        full = make_fit(
            [0.5, 0.1], [1.0], 0.1, se=[0.1] * 4, loglik=-50.0,
            names1=("intercept", "zone"),
        )
        reduced = make_fit(
            [0.5], [1.0], 0.1, se=[0.1] * 3, loglik=-50.0 - 3.92 / 2.0,
            names1=("intercept",),
        )
        out = lrt(full, reduced)
        assert out.df == 1
        assert out.statistic == pytest.approx(3.92, abs=1e-12)
        assert out.p_value == pytest.approx(0.0477, abs=5e-4)
        assert abs(out.p_value - 0.048) < 0.002

        reduced_big = make_fit(
            [0.5], [1.0], 0.1, se=[0.1] * 3, loglik=-50.0 - 24.67 / 2.0,
            names1=("intercept",),
        )
        assert lrt(full, reduced_big).p_value < 0.001

    def test_non_nested_rejected(self):
        full = make_fit([0.5], [1.0], 0.1, se=[0.1] * 3, names1=("intercept",))
        other = make_fit(
            [0.5, 0.2], [1.0], 0.1, se=[0.1] * 4, names1=("intercept", "month"),
        )
        with pytest.raises(ValueError, match="not nested"):
            lrt(full, other)

    def test_negative_statistic_beyond_tolerance_rejected(self):
        full = make_fit([0.5, 0.1], [1.0], 0.1, se=[0.1] * 4, loglik=-51.0,
                        names1=("intercept", "zone"))
        reduced = make_fit([0.5], [1.0], 0.1, se=[0.1] * 3, loglik=-50.0,
                           names1=("intercept",))
        with pytest.raises(ValueError, match="negative"):
            lrt(full, reduced)

    def test_tiny_negative_clamped(self):
        full = make_fit([0.5, 0.1], [1.0], 0.1, se=[0.1] * 4, loglik=-50.0 - 1e-10,
                        names1=("intercept", "zone"))
        reduced = make_fit([0.5], [1.0], 0.1, se=[0.1] * 3, loglik=-50.0,
                           names1=("intercept",))
        out = lrt(full, reduced)
        assert out.statistic == 0.0 and out.p_value == 1.0


class TestResultInvariants:
    def test_p_value_domain(self):
        with pytest.raises(ValueError):
            InferenceResult(statistic=1.0, p_value=1.5, kind="wald")


class TestTailHelpers:
    def test_chi2_sf_matches_scipy(self):
        for x, df in ((3.92, 1), (24.67, 1), (16.08, 5), (78.54, 8)):
            assert chi2_sf(x, df) == pytest.approx(sps.chi2.sf(x, df), rel=1e-10)


@pytest.mark.slow
class TestNullCalibration:
    def test_lrt_matches_chi_square_one(self, lrt_null_study):
        stats_arr = lrt_null_study["stats"]
        df = 1
        mean = float(np.mean(stats_arr))
        assert df - 0.3 * np.sqrt(2 * df) < mean < df + 0.3 * np.sqrt(2 * df)
        ks = sps.kstest(stats_arr, sps.chi2(df).cdf)
        assert ks.pvalue > 0.01

    def test_null_p_values_are_uniform(self, lrt_null_study):
        ks = sps.kstest(lrt_null_study["pvals"], "uniform")
        assert ks.pvalue > 0.01

    def test_wald_z_sd_near_one(self, lrt_null_study):
        z = lrt_null_study["walds"][:300]
        assert 0.85 < float(np.std(z, ddof=1)) < 1.15
