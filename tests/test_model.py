"""Mixture density, links and likelihood tests."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

import zitpo.model as model
from loglik_reference import loglik_terms, pos_row_derivs, zero_row_derivs
from zitpo.estimation import numeric_gradient, numeric_hessian
from zitpo.gpd import GpdMean, GpdScale, gpd_cdf, gpd_pdf, mean_quantile_level
from zitpo.model import (
    _SERIES_X,
    _check_rank,
    _loglik_terms,
    _redundant_columns,
    _zero_first,
    CoefVector,
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
from zitpo.simulation import reference_config, simulate_dataset


def intercept_spec(n):
    return ModelSpec(x1=np.ones((n, 1)), x2=np.ones((n, 1)))


class TestLinks:
    def test_logit_at_zero(self):
        assert linkinv_logit(0.0) == 0.5

    def test_logit_reference_value(self):
        # the -1.95 intercept backs out a contact probability near 12%
        assert linkinv_logit(-1.95) == pytest.approx(0.12455, abs=1e-5)

    def test_logit_monotone(self):
        rng = np.random.default_rng(0)
        etas = np.sort(rng.normal(0.0, 5.0, size=50))
        vals = linkinv_logit(etas)
        assert np.all(np.diff(vals) > 0.0)

    def test_logit_extreme_arguments_safe(self):
        assert linkinv_logit(-800.0) == 0.0
        assert linkinv_logit(800.0) == 1.0

    def test_log_at_zero(self):
        assert linkinv_log(0.0) == 1.0

    def test_log_reference_value(self):
        # the 4.08 intercept backs out a 59-minute average
        assert linkinv_log(4.08) == pytest.approx(59.1455, abs=1e-4)

    def test_log_roundtrip(self):
        rng = np.random.default_rng(1)
        for eta in rng.normal(0.0, 3.0, size=30):
            assert math.log(linkinv_log(eta)) == pytest.approx(eta, abs=1e-14)

    def test_log_overflow_names_row(self):
        with pytest.raises(ValueError, match="row 2"):
            linkinv_log(np.array([0.0, 1.0, 800.0]))


class TestZeroProb:
    def test_no_truncation_reduces_to_one_minus_pi(self):
        p = ZitpoParams(pi=0.7, mu=3.0, xi=0.25, y_trunc=0.0)
        assert zero_prob(p) == pytest.approx(0.3, abs=1e-15)

    def test_quarter_quantile_threshold(self):
        # y_trunc at the first quartile of the positive part adds pi * 0.25
        y0 = 0.05592744886765644
        p = ZitpoParams(pi=0.5, mu=0.25, xi=0.25, y_trunc=y0)
        assert zero_prob(p) == pytest.approx(0.625, abs=1e-10)

    def test_complement_matches_quadrature(self):
        p = ZitpoParams(pi=0.6, mu=2.0, xi=0.3, y_trunc=0.4)
        mass, _ = quad(lambda y: density(y, p).value, p.y_trunc, np.inf, limit=200)
        assert 1.0 - zero_prob(p) - mass == pytest.approx(0.0, abs=1e-6)


class TestDensity:
    def test_zero_returns_the_mass(self):
        p = ZitpoParams(pi=0.5, mu=1.5, xi=0.2, y_trunc=0.1)
        out = density(0.0, p)
        assert out.kind == "mass"
        assert out.value == pytest.approx(zero_prob(p), abs=1e-15)

    def test_positive_value_frozen(self):
        # frozen from the finite-difference oracle on the mixture CDF;
        # closed form 0.5 * (1/0.1875) * (4/3)^-5 = 0.6328125 exactly
        p = ZitpoParams(pi=0.5, mu=0.25, xi=0.25, y_trunc=0.0)
        out = density(0.25, p)
        assert out.kind == "density"
        assert out.value == pytest.approx(0.6328125, abs=1e-12)

    def test_total_mass_random_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = rng.uniform(0.1, 100.0)
            p = ZitpoParams(
                pi=rng.uniform(0.05, 0.95),
                mu=mu,
                xi=float(rng.choice([-0.3, 0.0, 0.082, 0.25, 0.5, 0.9])),
                y_trunc=float(rng.choice([0.0, 0.1])) * mu,
            )
            upper = GpdMean(p.mu, p.xi).to_scale().upper if p.xi < 0 else np.inf
            mass, _ = quad(
                lambda y: density(y, p).value, p.y_trunc, upper, limit=400
            )
            assert zero_prob(p) + mass == pytest.approx(1.0, abs=1e-6)

    def test_truncation_gap_rejected(self):
        p = ZitpoParams(pi=0.5, mu=1.0, xi=0.25, y_trunc=0.5)
        with pytest.raises(ValueError, match="truncation"):
            density(0.3, p)
        with pytest.raises(ValueError):
            log_density(0.5, p)

    def test_no_truncation_is_the_dirac_gpd(self):
        # with y_trunc=0 the continuous part is pi times the plain GPD density
        p = ZitpoParams(pi=0.37, mu=2.4, xi=0.3, y_trunc=0.0)
        for y in (0.01, 0.5, 1.7, 9.0):
            expected = p.pi * gpd_pdf(y, GpdMean(p.mu, p.xi))
            assert density(y, p).value == pytest.approx(expected, abs=1e-12)

    def test_positive_shape_independent_of_pi(self):
        # orthogonality: pi scales the positive part but not its shape
        base = ZitpoParams(pi=0.3, mu=2.0, xi=0.25, y_trunc=0.0)
        bumped = ZitpoParams(pi=0.8, mu=2.0, xi=0.25, y_trunc=0.0)
        for y in (0.1, 1.0, 5.0):
            a = density(y, base).value / base.pi
            b = density(y, bumped).value / bumped.pi
            assert a == pytest.approx(b, rel=1e-12)

    def test_shape_branch_continuity(self):
        p0 = ZitpoParams(pi=0.5, mu=2.0, xi=0.0, y_trunc=0.1)
        p1 = ZitpoParams(pi=0.5, mu=2.0, xi=1e-9, y_trunc=0.1)
        for y in (0.0, 0.2, 1.0, 8.0):
            assert log_density(y, p0) == pytest.approx(log_density(y, p1), abs=1e-6)


class TestDensityShifted:
    def test_zero_shift_reduces_to_plain_density(self):
        p = ZitpoParams(pi=0.45, mu=3.0, xi=0.2, y_trunc=0.3)
        for y in (0.0, 0.4, 1.0, 10.0):
            a = density_shifted(y, p.pi, p.mu, p.xi, 0.0, p.y_trunc)
            b = density(y, p)
            assert a.value == pytest.approx(b.value, rel=1e-14)
            assert a.kind == b.kind

    def test_equal_shift_and_truncation_is_two_part(self):
        out = density_shifted(0.0, 0.45, 5.0, 0.2, y_bullet=1.5, y_trunc=1.5)
        assert out.kind == "mass"
        assert out.value == pytest.approx(1.0 - 0.45, abs=1e-14)

    def test_total_mass(self):
        pi_b, mu_b, xi, yb, y0 = 0.5, 4.0, 0.25, 1.0, 1.5
        mass0 = density_shifted(0.0, pi_b, mu_b, xi, yb, y0).value
        mass_pos, _ = quad(
            lambda y: density_shifted(y, pi_b, mu_b, xi, yb, y0).value,
            y0,
            np.inf,
            limit=200,
        )
        assert mass0 + mass_pos == pytest.approx(1.0, abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            density_shifted(0.0, 0.5, 4.0, 0.25, y_bullet=2.0, y_trunc=1.0)
        with pytest.raises(ValueError):
            density_shifted(0.0, 0.5, 1.0, 0.25, y_bullet=1.5, y_trunc=2.0)


class TestPredict:
    def test_intercept_only_reference_values(self):
        spec = intercept_spec(4)
        coef = CoefVector(beta1=[-1.95], beta2=[4.08], xi=0.1)
        pi, mu = predict(spec, coef)
        assert np.allclose(pi, 0.12455, atol=1e-5)
        assert np.allclose(mu, 59.1455, atol=1e-4)

    def test_zero_coefficients(self):
        spec = intercept_spec(3)
        pi, mu = predict(spec, CoefVector(beta1=[0.0], beta2=[0.0], xi=0.0))
        assert np.all(pi == 0.5) and np.all(mu == 1.0)

    def test_zero_column_does_not_change_predictions(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        x_aug = np.column_stack([x, np.zeros(20)])
        coef = CoefVector(beta1=[0.4, -0.3], beta2=[1.0, 0.2], xi=0.1)
        coef_aug = CoefVector(beta1=[0.4, -0.3, 5.0], beta2=[1.0, 0.2, -7.0], xi=0.1)
        pi, mu = predict(ModelSpec(x1=x, x2=x), coef)
        pi2, mu2 = predict(ModelSpec(x1=x_aug, x2=x_aug), coef_aug)
        assert np.array_equal(pi, pi2) and np.array_equal(mu, mu2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(intercept_spec(3), CoefVector(beta1=[0.0, 1.0], beta2=[0.0], xi=0.0))


class TestLogLikelihood:
    def test_all_zero_data(self):
        spec = intercept_spec(3)
        coef = CoefVector(beta1=[0.0], beta2=[0.0], xi=0.25)
        got = log_likelihood(np.zeros(3), 0.0, spec, coef)
        assert got == pytest.approx(3.0 * math.log(0.5), abs=1e-12)

    def test_single_positive_frozen(self):
        # log of the frozen density value 0.6328125
        spec = intercept_spec(1)
        coef = CoefVector(beta1=[0.0], beta2=[math.log(0.25)], xi=0.25)
        got = log_likelihood(np.array([0.25]), 0.0, spec, coef)
        assert got == pytest.approx(math.log(0.6328125), abs=1e-12)

    def test_matches_sum_of_log_densities(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 40
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            spec = ModelSpec(x1=x, x2=x)
            coef = CoefVector(
                beta1=rng.normal(0.0, 0.5, 2),
                beta2=rng.normal(0.5, 0.5, 2),
                xi=rng.uniform(-0.2, 0.6),
            )
            y0 = 0.05
            pi, mu = predict(spec, coef)
            y = np.where(
                rng.random(n) < pi, rng.exponential(1.0, n) * mu + y0, 0.0
            )
            direct = math.fsum(
                log_density(
                    yi, ZitpoParams(pi=p, mu=m, xi=coef.xi, y_trunc=y0)
                )
                for yi, p, m in zip(y, pi, mu)
            )
            assert log_likelihood(y, y0, spec, coef) == pytest.approx(
                direct, abs=1e-10
            )

    def test_gap_observation_names_row(self):
        spec = intercept_spec(3)
        coef = CoefVector(beta1=[0.0], beta2=[0.0], xi=0.1)
        with pytest.raises(ValueError, match="row 1"):
            log_likelihood(np.array([0.0, 0.05, 2.0]), 0.1, spec, coef)

    @pytest.mark.parametrize("y_trunc", [-0.5, math.nan, math.inf])
    def test_bad_threshold_is_named(self, y_trunc):
        y, spec = simulate_dataset(reference_config(n=1000, xi=0.25, seed=11), 0)
        coef = CoefVector(beta1=np.zeros(6), beta2=np.zeros(6), xi=0.25)
        with pytest.raises(ValueError, match=f"truncation threshold .* got {y_trunc}"):
            log_likelihood(y, y_trunc, spec, coef)

    def test_truth_beats_perturbed_mean_usually(self):
        # not a theorem, a sanity property of the likelihood surface: scaling
        # every mu by 1.2 should lose against the truth nearly always
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=202)
        truth_wins = 0
        for r in range(100):
            y, spec = simulate_dataset(cfg, r)
            coef = CoefVector(
                beta1=np.asarray(cfg.beta1), beta2=np.asarray(cfg.beta2), xi=cfg.xi
            )
            bumped = np.asarray(cfg.beta2).copy()
            bumped[0] += math.log(1.2)
            coef_b = CoefVector(beta1=np.asarray(cfg.beta1), beta2=bumped, xi=cfg.xi)
            ll_true = log_likelihood(y, cfg.y_trunc, spec, coef)
            ll_pert = log_likelihood(y, cfg.y_trunc, spec, coef_b)
            truth_wins += ll_true > ll_pert
        assert truth_wins >= 95

    def test_linear_predictors_are_formed_once(self, monkeypatch):
        # one X1 beta1 serves every row; the value is the compensated sum of
        # the kernel's row terms, to the last bit
        y, spec = simulate_dataset(reference_config(n=1000, xi=0.25, seed=11), 0)
        coef = CoefVector(beta1=np.full(6, 0.1), beta2=np.full(6, 0.2), xi=0.25)
        calls = []
        real = model._linear_predictors

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "_linear_predictors", counted)
        got = log_likelihood(y, 0.125, spec, coef)
        assert len(calls) == 1
        eta1, eta2 = spec.x1 @ coef.beta1, spec.x2 @ coef.beta2
        order, n_zero, v = _zero_first(y, 0.125)
        assert got == math.fsum(_loglik_terms(v, n_zero, eta1[order], eta2[order], 0.25))

    def test_shape_branch_continuity(self):
        rng = np.random.default_rng(9)
        n = 50
        spec = intercept_spec(n)
        y = np.where(rng.random(n) < 0.5, rng.exponential(2.0, n) + 0.1, 0.0)
        a = log_likelihood(y, 0.1, spec, CoefVector(beta1=[0.1], beta2=[0.7], xi=0.0))
        b = log_likelihood(y, 0.1, spec, CoefVector(beta1=[0.1], beta2=[0.7], xi=1e-9))
        assert a == pytest.approx(b, abs=1e-6)


def row_term(y, y_trunc):
    """One row's log-likelihood term as a function of (eta1, eta2, xi)."""

    def f(v):
        yy = np.array([y])
        return float(
            loglik_terms(yy, expit(v[0]), expit(-v[0]), math.exp(v[1]), v[2], y_trunc)[0]
        )

    return f


# (11, 12, 1xi, 22, 2xi, xixi) positions of the per-row second derivatives
UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class TestLoglikDerivs:
    @pytest.mark.parametrize("xi", [-0.3, -1e-6, 0.0, 1e-6, 1e-3, 0.25, 0.7])
    @pytest.mark.parametrize("y_trunc", [0.0, 0.125])
    def test_rows_match_numeric_derivatives(self, xi, y_trunc):
        rng = np.random.default_rng(17)
        for _ in range(12):
            eta = np.array([rng.normal(0.0, 1.5), rng.normal(0.3, 1.0), xi])
            mu = math.exp(eta[1])
            # zero rows and positive rows, kept inside a xi < 0 support
            y = 0.0 if rng.random() < 0.4 else y_trunc + rng.uniform(0.05, 2.0) * mu
            if y == 0.0:
                _, g, h = zero_row_derivs(eta[:1], eta[1:2], xi, y_trunc)
            else:
                _, g, h = pos_row_derivs(np.array([y]), eta[:1], eta[1:2], xi)
            f = row_term(y, y_trunc)
            g_num = numeric_gradient(f, eta)
            h_num = numeric_hessian(f, eta)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g[:, 0] - g_num)) <= 1e-6 * scale
            h_full = np.array([h_num[i, j] for i, j in UPPER])
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(h[:, 0] - h_full)) <= 1e-4 * scale

    def test_positive_rows_separate_in_eta1(self):
        y = np.array([0.3, 1.0, 7.0])
        eta1 = np.array([-2.0, 0.0, 3.0])
        _, g, h = pos_row_derivs(y, eta1, np.zeros(3), 0.25)
        pi = expit(eta1)
        assert np.allclose(g[0], 1.0 - pi, rtol=1e-15)
        assert np.allclose(h[0], -pi * (1.0 - pi), rtol=1e-15)
        assert np.all(h[1] == 0.0) and np.all(h[2] == 0.0)

    def test_exponential_branch_limit(self):
        # at xi = 0 the eta derivatives are those of the exponential model:
        # positive rows log pi - eta2 - y*exp(-eta2), zero rows log(1 - pi*exp(-y0/mu))
        y = np.array([0.4, 2.5])
        eta1 = np.array([0.3, -1.0, 0.5, 1.2])
        eta2 = np.array([0.1, 0.7, -0.2, 0.4])
        y0 = 0.125
        mu = np.exp(eta2)
        _, g, h = pos_row_derivs(y, eta1[2:], eta2[2:], 0.0)
        assert np.allclose(g[1], -1.0 + y / mu[2:], rtol=1e-14)
        assert np.allclose(h[3], -y / mu[2:], rtol=1e-14)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
        _, g, h = zero_row_derivs(eta1[:2], eta2[:2], 0.0, y0)
        q = expit(eta1[:2]) * np.exp(-y0 / mu[:2])
        r = q / (1.0 - q)
        assert np.allclose(g[1], -r * y0 / mu[:2], rtol=1e-13)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))

    def test_zero_row_beyond_the_support_end(self):
        # xi < 0 with the threshold past the support end: no mass above it,
        # so the term is log(1) = 0 whatever eta2 and xi are
        xi, y0 = -0.5, 1.0
        eta2 = math.log(0.2)  # support end mu*(1-xi)/(-xi) = 0.6 < y0
        _, g, h = zero_row_derivs(np.array([0.4]), np.array([eta2]), xi, y0)
        assert np.all(g == 0.0) and np.all(h == 0.0)


def kernel_rows(kind, x, xi, y_trunc=0.125, seed=0):
    """One kind's kernel on rows placed at x_i = xi*w_i (any w when xi = 0).

    Returns ``(evaluate, y, eta1, eta2)``: ``evaluate(sel)`` runs the kernel
    on the rows ``sel`` selects, and ``y`` is 0 on zero rows.
    """
    rng = np.random.default_rng(seed)
    n = x.size
    c = 1.0 / (1.0 - xi)
    w = x / xi if xi != 0.0 else rng.uniform(0.05, 3.0, n)
    eta1 = rng.normal(0.0, 1.5, n)
    if kind == "zero":
        eta2 = np.log(y_trunc * c / w) if y_trunc > 0.0 else rng.normal(0.3, 1.0, n)
        y = np.zeros(n)
        return (lambda sel: zero_row_derivs(eta1[sel], eta2[sel], xi, y_trunc)), y, eta1, eta2
    eta2 = rng.normal(0.3, 1.0, n)
    y = w * np.exp(eta2) / c
    return (lambda sel: pos_row_derivs(y[sel], eta1[sel], eta2[sel], xi)), y, eta1, eta2


def rows_alone(evaluate, n):
    """The kernel's (t, g, h) with every row evaluated on its own."""
    outs = [evaluate(slice(i, i + 1)) for i in range(n)]
    return (
        np.concatenate([o[0] for o in outs]),
        np.hstack([o[1] for o in outs]),
        np.hstack([o[2] for o in outs]),
    )


# |x| = |xi*w| on both sides of the series threshold, on one side only, and
# all below it; shuffled so series and closed-form rows interleave
X_SETS = {
    "mixed": np.geomspace(1e-4, 2.0, 41),
    "no small rows": np.geomspace(2e-2, 2.0, 23),
    "all small": np.geomspace(1e-6, 9e-3, 23),
}


class TestRowKindKernels:
    @pytest.mark.parametrize("kind", ["zero", "pos"])
    @pytest.mark.parametrize("xs", list(X_SETS))
    @pytest.mark.parametrize("xi", [-0.3, 0.25])
    def test_block_matches_rows_alone(self, kind, xs, xi):
        # guards the gather of each form's rows and the scatter back
        x = np.random.default_rng(5).permutation(X_SETS[xs])
        if xi < 0.0:
            x = -np.minimum(x, 0.9)  # inside the support end x > -1
        evaluate, y, eta1, eta2 = kernel_rows(kind, x, xi)
        w = (y if kind == "pos" else 0.125) * np.exp(-eta2) / (1.0 - xi)
        n_small = np.count_nonzero(np.abs(xi * w) < _SERIES_X)
        if xs == "mixed":
            assert 0 < n_small < x.size
        else:
            assert n_small == (x.size if xs == "all small" else 0)
        block = evaluate(slice(None))
        for got, ref in zip(block, rows_alone(evaluate, x.size)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        ref = loglik_terms(y, expit(eta1), expit(-eta1), np.exp(eta2), xi, 0.125)
        assert np.all(np.abs(block[0] - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))
        assert all(np.all(np.isfinite(a)) for a in block)

    @pytest.mark.parametrize("kind", ["zero", "pos"])
    def test_exponential_shape_runs_the_series_on_every_row(self, kind):
        # xi = 0 puts every row at x = 0: positive rows are log pi - eta2 - y/mu,
        # zero rows log(1 - pi*exp(-y0/mu))
        evaluate, y, eta1, eta2 = kernel_rows(kind, np.zeros(17), 0.0, seed=3)
        t, g, h = evaluate(slice(None))
        mu = np.exp(eta2)
        if kind == "pos":
            np.testing.assert_allclose(t, np.log(expit(eta1)) - eta2 - y / mu, rtol=1e-14)
            np.testing.assert_allclose(g[1], -1.0 + y / mu, rtol=1e-14)
            np.testing.assert_allclose(h[3], -y / mu, rtol=1e-14)
        else:
            np.testing.assert_allclose(
                t, np.log1p(-expit(eta1) * np.exp(-0.125 / mu)), rtol=1e-13
            )
        for got, ref in zip((t, g, h), rows_alone(evaluate, 17)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_zero_rows_without_threshold(self):
        # y_trunc = 0 gives w0 = 0 on every zero row: the term is log(1 - pi)
        # and nothing but eta1 moves it
        evaluate, _, eta1, _ = kernel_rows("zero", np.zeros(19), 0.25, y_trunc=0.0)
        t, g, h = evaluate(slice(None))
        pi = expit(eta1)
        np.testing.assert_allclose(t, np.log1p(-pi), rtol=1e-13)
        np.testing.assert_allclose(g[0], -pi, rtol=1e-14)
        np.testing.assert_allclose(h[0], -pi * (1.0 - pi), rtol=1e-13)
        assert np.all(g[1:] == 0.0) and np.all(h[1:] == 0.0)

    def test_positive_rows_have_no_eta1_cross_terms(self):
        evaluate, _, _, _ = kernel_rows("pos", X_SETS["mixed"], 0.25)
        _, _, h = evaluate(slice(None))
        assert np.all(h[1] == 0.0) and np.all(h[2] == 0.0)


class TestLoglikTerms:
    # (0, XI_TOL) is left out: there the closed forms take their exponential branch
    @pytest.mark.parametrize("xi", [-0.3, -1e-6, 0.0, 1e-6, 1e-3, 0.25, 0.7])
    @pytest.mark.parametrize("y_trunc", [0.0, 0.125])
    def test_fused_terms_match_loglik_terms(self, xi, y_trunc):
        # five blocks of rows, zero rows first, against the closed forms
        rng = np.random.default_rng(23)
        n = 20000
        eta1 = rng.normal(0.0, 3.0, n)
        eta2 = rng.normal(0.3, 1.0, n)
        mu = np.exp(eta2)
        y = np.where(rng.random(n) < 0.4, 0.0, y_trunc + rng.uniform(0.05, 2.0, n) * mu)
        if xi < 0.0:
            # positive rows inside the support end mu*(1 - xi)/(-xi)
            y = np.where(y < 0.9 * mu * (1.0 - xi) / -xi, y, 0.0)
        order, n_zero, v = _zero_first(y, y_trunc)
        t = _loglik_terms(v, n_zero, eta1[order], eta2[order], xi)
        ref = loglik_terms(y, expit(eta1), expit(-eta1), mu, xi, y_trunc)[order]
        assert np.all(np.isfinite(ref))
        assert np.all(np.abs(t - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_zero_rows_keep_their_precision_as_pi_nears_one(self):
        # log(1 - pi) from 1 - pi itself: at eta1 = 40 pi rounds to 1, yet the
        # term is log(expit(-40)) = -40 to rounding
        eta1 = np.array([12.0, 40.0])
        t = _loglik_terms(np.zeros(2), 2, eta1, np.zeros(2), 0.25)
        np.testing.assert_allclose(t, -eta1 - np.log1p(np.exp(-eta1)), rtol=1e-15)

    def test_terms_beyond_the_support_end(self):
        # support end mu*(1-xi)/(-xi) = 0.6: a zero row with its threshold past
        # it has log(1) = 0, a positive row past it has no density: -inf
        xi, y0 = -0.5, 1.0
        eta2 = np.full(3, math.log(0.2))
        t, _, _ = zero_row_derivs(np.full(1, 0.4), eta2[:1], xi, y0)
        assert t[0] == 0.0
        t, _, _ = pos_row_derivs(np.array([1.5, 5.0]), np.full(2, 0.4), eta2[1:], xi)
        assert np.all(t == -math.inf)
        ref = loglik_terms(np.zeros(1), expit(0.4), expit(-0.4), 0.2, xi, y0)
        assert ref[0] == 0.0


class TestSupportEnd:
    # xi = -0.3, mu = 1: the support ends at mu*(1 - xi)/(-xi) = 13/3
    P = ZitpoParams(pi=0.4, mu=1.0, xi=-0.3, y_trunc=0.125)

    @pytest.mark.parametrize("y", [4.4, 5.0, 1e6])
    def test_log_density_past_the_end_is_minus_infinity(self, y):
        assert log_density(y, self.P) == -math.inf
        assert math.isfinite(log_density(4.3, self.P))

    def test_log_likelihood_past_the_end_is_not_finite(self):
        spec = intercept_spec(3)
        coef = CoefVector(beta1=[math.log(0.4 / 0.6)], beta2=[0.0], xi=-0.3)
        assert math.isfinite(log_likelihood(np.array([0.0, 1.0, 4.3]), 0.125, spec, coef))
        with pytest.raises(ValueError, match="not finite"):
            log_likelihood(np.array([0.0, 1.0, 5.0]), 0.125, spec, coef)


def rank_message(*names):
    return re.escape(f"design is rank deficient; redundant columns: {list(names)}")


class TestCheckRank:
    NAMES = ("intercept", "a", "c")

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_collinear_column_is_named(self, noise):
        rng = np.random.default_rng(3)
        a = rng.normal(size=500)
        x = np.column_stack([np.ones(500), a, 2.0 * a + noise * rng.normal(size=500)])
        with pytest.raises(ValueError, match=rank_message("c")):
            _check_rank(x, self.NAMES)

    def test_zero_column_is_named(self):
        x = np.column_stack([np.ones(50), np.zeros(50), np.arange(50.0)])
        with pytest.raises(ValueError, match=rank_message("a")):
            _check_rank(x, self.NAMES)

    def test_fewer_rows_than_columns(self):
        x = np.array([[1.0, 0.5, 2.0], [1.0, 1.5, -1.0]])
        with pytest.raises(ValueError, match=rank_message("c")):
            _check_rank(x, self.NAMES)

    def test_column_whose_norm_overflows_is_named(self):
        # its squared norm is inf: too large, and no overflow warning escapes
        x = np.column_stack([np.ones(4), [1e200, -1e200, 3e200, 1.0], np.arange(4.0)])
        with pytest.raises(ValueError, match="column 'a' is too large in magnitude.*rescale it"):
            _check_rank(x, self.NAMES)

    def test_one_eigenvalue_call_decides_as_the_walk(self):
        # random designs, some with a planted (near-)collinear or zero column:
        # the check passes exactly when the column walk alone names nothing,
        # and otherwise names the columns the walk names
        rng = np.random.default_rng(29)
        outcomes = []
        for trial in range(300):
            n, p = int(rng.integers(3, 30)), int(rng.integers(2, 7))
            scales = 10.0 ** rng.integers(-6, 7, p - 1)
            x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1)) * scales])
            if trial % 3 == 1:
                j = int(rng.integers(1, p))
                mix = rng.normal(size=p) * (np.arange(p) != j)
                x[:, j] = x @ mix + rng.choice([0.0, 1e-10]) * rng.normal(size=n)
            elif trial % 3 == 2:
                x[:, int(rng.integers(1, p))] = 0.0
            names = tuple(f"c{j}" for j in range(p))
            gram = x.T @ x
            norm = np.sqrt(np.diag(gram))
            with np.errstate(divide="ignore", invalid="ignore"):
                walk = _redundant_columns(gram / norm[:, None] / norm, norm, names)
            if walk:
                with pytest.raises(ValueError, match=rank_message(*walk)):
                    _check_rank(x, names)
            else:
                _check_rank(x, names)
            outcomes.append(bool(walk))
        assert 50 < sum(outcomes) < 250

    @pytest.mark.parametrize("scale", [1e12, 1e6, 1e-6])
    def test_decision_does_not_depend_on_column_scale(self, scale):
        cfg = reference_config(n=2000, reps=1, xi=0.25, seed=7)
        _, spec = simulate_dataset(cfg, 0)
        x = spec.x1.copy()
        x[:, 1] *= scale
        _check_rank(x, spec.names1)
        # a design with a redundant column names the same column at any scale
        deficient = np.column_stack([x, x[:, 1] - 3.0 * x[:, 3]])
        with pytest.raises(ValueError, match=rank_message("extra")):
            _check_rank(deficient, spec.names1 + ("extra",))


class TestTypes:
    def test_zitpo_params_invariants(self):
        with pytest.raises(ValueError):
            ZitpoParams(pi=0.0, mu=1.0, xi=0.1)
        with pytest.raises(ValueError):
            ZitpoParams(pi=1.0, mu=1.0, xi=0.1)
        with pytest.raises(ValueError):
            ZitpoParams(pi=0.5, mu=-1.0, xi=0.1)
        with pytest.raises(ValueError):
            ZitpoParams(pi=0.5, mu=1.0, xi=1.0)
        with pytest.raises(ValueError):
            ZitpoParams(pi=0.5, mu=1.0, xi=0.1, y_trunc=-0.5)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_shape_is_rejected(self, xi):
        with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
            ZitpoParams(pi=0.5, mu=1.0, xi=xi)
        with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
            CoefVector(beta1=[0.0], beta2=[0.0], xi=xi)
        with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
            GpdMean(mu=1.0, xi=xi)
        with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
            mean_quantile_level(xi)

    @pytest.mark.parametrize("xi", [1.0, 2.5])
    def test_shape_without_a_mean_is_rejected_by_one_rule(self, xi):
        # the model types and the gpd entry points share one message
        for make in (
            lambda: ZitpoParams(pi=0.5, mu=1.0, xi=xi),
            lambda: CoefVector(beta1=[0.0], beta2=[0.0], xi=xi),
            lambda: GpdMean(mu=1.0, xi=xi),
            lambda: GpdMean.from_scale(GpdScale(tau=1.0, xi=xi)),
            lambda: mean_quantile_level(xi),
        ):
            with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
                make()

    @pytest.mark.parametrize("y_trunc", [-0.5, math.nan, math.inf])
    def test_zitpo_params_threshold_is_named(self, y_trunc):
        with pytest.raises(ValueError, match=f"truncation threshold .* got {y_trunc}"):
            ZitpoParams(pi=0.5, mu=1.0, xi=0.1, y_trunc=y_trunc)

    def test_model_spec_checks(self):
        with pytest.raises(ValueError, match="intercept"):
            ModelSpec(x1=np.zeros((3, 1)), x2=np.ones((3, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            ModelSpec(x1=np.array([[1.0, np.nan]]), x2=np.ones((1, 1)))
        with pytest.raises(ValueError):
            ModelSpec(x1=np.ones((3, 1)), x2=np.ones((4, 1)))

    def test_coef_vector_checks(self):
        with pytest.raises(ValueError):
            CoefVector(beta1=[np.inf], beta2=[0.0], xi=0.1)
        with pytest.raises(ValueError):
            CoefVector(beta1=[0.0], beta2=[0.0], xi=1.5)
