"""Residual transform and QQ/KS diagnostic tests."""

import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

from zitpo.diagnostics import (
    ks_statistic,
    qq_data,
    residuals,
    residuals_from_params,
    zero_calibration,
)
from zitpo.estimation import FitResult, fit_mle
from zitpo.gpd import XI_TOL, GpdMean, gpd_cdf, gpd_quantile
from zitpo.model import CoefVector, ModelSpec, ZitpoParams, predict, zero_prob
from zitpo.simulation import reference_config, rtrunc_gpd, simulate_dataset


def true_mu(cfg, spec):
    coef = CoefVector(
        beta1=np.asarray(cfg.beta1), beta2=np.asarray(cfg.beta2), xi=cfg.xi
    )
    return predict(spec, coef)[1]


def unit_gpd_cdf(xi):
    return lambda x: np.asarray(gpd_cdf(x, GpdMean(1.0, xi)))


class TestResiduals:
    def test_no_truncation_reduces_to_ratio(self):
        y = np.array([0.0, 2.0, 0.0, 6.0])
        mu = np.array([1.0, 4.0, 1.0, 3.0])
        rs = residuals_from_params(y, 0.0, mu, 0.2)
        assert np.allclose(rs.residuals, [0.5, 2.0])
        assert np.array_equal(rs.row_ids, [1, 3])

    def test_reference_value(self):
        # (70-10) / (59 + 0.082*10/0.918)
        rs = residuals_from_params(np.array([70.0]), 10.0, np.array([59.0]), 0.082)
        assert rs.residuals[0] == pytest.approx(1.0017824, abs=1e-7)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        y = np.where(rng.random(50) < 0.6, rng.exponential(4.0, 50) + 0.5, 0.0)
        mu = rng.uniform(2.0, 6.0, 50)
        a = residuals_from_params(y, 0.5, mu, 0.3)
        # power-of-two rescaling is exact in floating point
        b = residuals_from_params(16.0 * y, 16.0 * 0.5, 16.0 * mu, 0.3)
        assert np.array_equal(a.residuals, b.residuals)
        c = residuals_from_params(13.7 * y, 13.7 * 0.5, 13.7 * mu, 0.3)
        assert np.allclose(a.residuals, c.residuals, rtol=1e-12)

    def test_true_parameter_residuals_follow_unit_mean_law(self):
        # finite-sample law: KS test at the 1% level passes in almost all reps
        cfg = reference_config(n=2000, reps=25, xi=0.25, seed=42)
        passed = 0
        for r in range(25):
            y, spec = simulate_dataset(cfg, r)
            rs = residuals_from_params(y, cfg.y_trunc, true_mu(cfg, spec), cfg.xi)
            ks = sps.kstest(rs.residuals, unit_gpd_cdf(cfg.xi))
            passed += ks.pvalue > 0.01
        assert passed >= 23

    def test_residual_mean_near_one(self):
        cfg = reference_config(n=10000, reps=1, xi=0.25, seed=77)
        y, spec = simulate_dataset(cfg, 0)
        rs = residuals_from_params(y, cfg.y_trunc, true_mu(cfg, spec), cfg.xi)
        assert 0.95 <= float(np.mean(rs.residuals)) <= 1.05

    def test_requires_converged_fit(self):
        cfg = reference_config(n=400, reps=1, xi=0.25, seed=1)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        bad = dataclasses.replace(fit, converged=False)
        with pytest.raises(ValueError, match="converged"):
            residuals(y, cfg.y_trunc, bad, spec)

    def test_transformed_density_matches_histogram(self):
        # chi-square goodness of fit of simulated residuals against the
        # unit-mean density over equal-probability bins
        xi = 0.3
        rng = np.random.default_rng(123)
        draws = rtrunc_gpd(1.0 - rng.random(10**5), 5.0, xi, 0.0)
        eps = draws / 5.0
        edges = gpd_quantile(np.linspace(0.0, 0.999, 41), GpdMean(1.0, xi))
        edges = np.append(edges, np.inf)
        counts, _ = np.histogram(eps, bins=edges)
        probs = np.diff(np.append(np.linspace(0.0, 0.999, 41), 1.0))
        chi2 = sps.chisquare(counts, f_exp=probs * eps.size)
        assert chi2.pvalue > 0.01


class TestQqData:
    def _fit_reference(self, n=2000, seed=50):
        cfg = reference_config(n=n, reps=1, xi=0.25, seed=seed)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        assert fit.converged
        return y, spec, fit, cfg

    @pytest.mark.slow
    def test_well_specified_fit_is_straight(self):
        # the single-replicate correlation is dominated by the heavy-tailed
        # top order statistic, so the claim is about the median over 100 reps
        # (measured 0.9902 on this seed)
        cfg = reference_config(n=2000, reps=100, xi=0.25, seed=50)
        corrs = []
        for r in range(100):
            y, spec = simulate_dataset(cfg, r)
            fit = fit_mle(y, cfg.y_trunc, spec)
            if not fit.converged:
                continue
            t = qq_data(residuals(y, cfg.y_trunc, fit, spec))
            corrs.append(np.corrcoef(t["empirical_q"], t["theoretical_q"])[0, 1])
        assert len(corrs) >= 95
        assert float(np.median(corrs)) > 0.99

    def test_columns_and_ordering(self):
        y, spec, fit, cfg = self._fit_reference(n=500, seed=51)
        table = qq_data(residuals(y, cfg.y_trunc, fit, spec))
        assert list(table) == [
            "row_id",
            "residual",
            "empirical_q",
            "theoretical_q",
            "log_empirical_q",
            "log_theoretical_q",
        ]
        assert np.all(np.diff(table["empirical_q"]) >= 0.0)
        assert np.all(np.diff(table["theoretical_q"]) > 0.0)
        assert np.allclose(table["log_theoretical_q"], np.log(table["theoretical_q"]))

    def test_row_ids_follow_the_stable_residual_order(self):
        # tied residuals keep their row order, and each row id sits beside
        # its own residual
        y = np.array([0.0, 3.0, 2.0, 0.0, 3.0, 1.0, 2.0])
        rs = residuals_from_params(y, 0.0, 1.0, 0.2)
        assert np.array_equal(rs.residuals[rs.order], rs.ordered)
        table = qq_data(rs)
        assert np.array_equal(table["row_id"], [5, 2, 6, 1, 4])
        assert np.array_equal(table["residual"], [1.0, 2.0, 2.0, 3.0, 3.0])

    def test_misspecified_shape_scores_lower(self):
        # paired comparison: the same xi=0.5 data fitted freely versus with
        # the shape frozen at zero; the frozen fit should look worse nearly
        # always
        worse = 0
        pairs = 20
        for r in range(pairs):
            cfg = reference_config(n=800, reps=pairs, xi=0.5, seed=60)
            y, spec = simulate_dataset(cfg, r)
            free = fit_mle(y, cfg.y_trunc, spec)
            frozen = fit_mle(y, cfg.y_trunc, spec, fix_xi=0.0)
            if not (free.converged and frozen.converged):
                continue
            c_free = np.corrcoef(
                *_qq_pair(residuals(y, cfg.y_trunc, free, spec))
            )[0, 1]
            c_frozen = np.corrcoef(
                *_qq_pair(residuals(y, cfg.y_trunc, frozen, spec))
            )[0, 1]
            worse += c_frozen < c_free
        assert worse >= int(0.9 * pairs)

    def test_constant_residuals(self):
        y = np.full(6, 3.0)
        rs = residuals_from_params(y, 0.0, np.full(6, 1.5), 0.1)
        table = qq_data(rs)
        assert np.all(table["empirical_q"] == 2.0)

    def test_needs_two_residuals(self):
        rs = residuals_from_params(np.array([1.0]), 0.0, np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            qq_data(rs)


def _qq_pair(rs):
    t = qq_data(rs)
    return t["empirical_q"], t["theoretical_q"]


class TestKsStatistic:
    def test_residuals_at_their_own_quantiles(self):
        n = 200
        xi = 0.25
        q = gpd_quantile((np.arange(1, n + 1) - 0.5) / n, GpdMean(1.0, xi))
        rs = residuals_from_params(np.asarray(q), 0.0, np.ones(n), xi)
        assert ks_statistic(rs) <= 1.0 / (2.0 * n) + 1e-12

    def test_true_parameter_residuals_beat_critical_value(self):
        cfg = reference_config(n=3500, reps=1, xi=0.25, seed=70)
        y, spec = simulate_dataset(cfg, 0)
        rs = residuals_from_params(y, cfg.y_trunc, true_mu(cfg, spec), cfg.xi)
        assert rs.n_pos >= 900
        assert ks_statistic(rs) < 1.63 / np.sqrt(rs.n_pos)

    def test_degenerate_residuals(self):
        rs = residuals_from_params(
            np.full(50, 1e-4), 0.0, np.ones(50), 0.25
        )
        assert ks_statistic(rs) > 0.95

    def test_empty_rejected(self):
        rs = residuals_from_params(np.zeros(3), 0.0, np.ones(3), 0.25)
        with pytest.raises(ValueError):
            ks_statistic(rs)


class TestZeroCalibration:
    def test_table_is_calibrated_on_simulated_data(self):
        cfg = reference_config(n=4000, reps=1, xi=0.25, seed=80)
        y, spec = simulate_dataset(cfg, 0)
        fit = fit_mle(y, cfg.y_trunc, spec)
        table = zero_calibration(y, cfg.y_trunc, fit, spec)
        assert sum(r["count"] for r in table) == cfg.n
        err = [abs(r["predicted_zero"] - r["observed_zero"]) for r in table]
        assert max(err) < 0.08

    @pytest.mark.parametrize(
        "xi,y_trunc",
        [(-0.4, 0.5), (0.25, 0.0), (0.3 * XI_TOL, 0.125)],
        ids=["negative-shape", "no-threshold", "exponential-branch"],
    )
    def test_predicted_zero_matches_per_row_zero_prob(self, xi, y_trunc):
        rng = np.random.default_rng(81)
        n = 300
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        spec = ModelSpec(x1=x, x2=x)
        coef = CoefVector(beta1=[0.2, 1.0], beta2=[-0.5, 0.8], xi=xi)
        fit = FitResult(
            coef=coef, se=np.ones(5), cov=np.eye(5), loglik=0.0, n_zero=n // 2,
            n_pos=n - n // 2, converged=True, iterations=1, names1=("a", "b"),
            names2=("a", "b"), y_trunc=y_trunc,
        )
        y = np.where(rng.random(n) < 0.5, 0.0, y_trunc + 1.0)
        pi, mu = predict(spec, coef)
        per_row = np.array(
            [zero_prob(ZitpoParams(pi=p, mu=m, xi=xi, y_trunc=y_trunc)) for p, m in zip(pi, mu)]
        )
        if xi < 0.0:
            # some thresholds lie past the support end: every positive is
            # recorded as a zero there
            assert np.any(per_row == 1.0)
        table = zero_calibration(y, y_trunc, fit, spec)
        # bins are contiguous runs of rows sorted by predicted pi
        order = np.argsort(pi, kind="stable")
        lo = 0
        for row in table:
            sel = order[lo : lo + row["count"]]
            lo += row["count"]
            assert row["predicted_zero"] == pytest.approx(np.mean(per_row[sel]), abs=1e-12)
        assert lo == n
