"""Random generation and coverage-study harness tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import zitpo.simulation as sim
from zitpo.gpd import GpdMean, gpd_cdf
from zitpo.simulation import (
    SimConfig,
    coverage_study,
    reference_config,
    reference_grid,
    replicate_rng,
    rtrunc_gpd,
    simulate_dataset,
)


class TestRtruncGpd:
    def test_survival_one_hits_the_threshold_exactly(self):
        assert rtrunc_gpd(1.0, 2.5, 0.25, 0.3) == 0.3
        assert rtrunc_gpd(1.0, 2.5, 0.0, 0.0) == 0.0

    def test_median_roundtrip(self):
        # frozen closed form 3*(2**0.25 - 1)
        v = rtrunc_gpd(0.5, 1.0, 0.25, 0.0)
        assert v == pytest.approx(0.5676213450081631, abs=1e-14)
        assert gpd_cdf(v, GpdMean(1.0, 0.25)) == pytest.approx(0.5, abs=1e-12)

    def test_law_of_large_numbers(self):
        rng = replicate_rng(100, 0)
        mu = 3.0
        draws = rtrunc_gpd(1.0 - rng.random(10**6), mu, 0.25, 0.0)
        sd = np.std(draws, ddof=1)
        assert abs(np.mean(draws) - mu) < 3.0 * sd / np.sqrt(draws.size)

    def test_zero_uniform_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            rtrunc_gpd(0.0, 1.0, 0.25, 0.0)
        with pytest.raises(ValueError):
            rtrunc_gpd(np.array([0.5, 1.2]), 1.0, 0.25, 0.0)

    @pytest.mark.parametrize("xi", [1.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_shape_is_rejected(self, xi):
        # checked before any draw, so no NaN draws and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
                rtrunc_gpd(0.5, 1.0, xi, 0.125)

    def test_empirical_cdf_matches_truncated_law(self):
        # KS distance against (F(y) - F(y0)) / (1 - F(y0)) below 1.63/sqrt(N)
        mu, xi, y0 = 2.5, 0.25, 0.3
        rng = replicate_rng(101, 0)
        draws = np.sort(rtrunc_gpd(1.0 - rng.random(10**5), mu, xi, y0))
        p = GpdMean(mu, xi)
        f0 = gpd_cdf(y0, p)
        theo = (np.asarray(gpd_cdf(draws, p)) - f0) / (1.0 - f0)
        n = draws.size
        ks = max(
            np.max(np.arange(1, n + 1) / n - theo),
            np.max(theo - np.arange(0, n) / n),
        )
        assert ks < 1.63 / np.sqrt(n)

    def test_exponential_branch(self):
        v = rtrunc_gpd(np.exp(-1.0), 4.0, 0.0, 1.0)
        assert v == pytest.approx(5.0, abs=1e-12)


class TestSimulateDataset:
    def test_zero_coefficients_give_half_positives(self):
        cfg = SimConfig(
            n=4000,
            reps=1,
            beta1=(0.0,),
            beta2=(1.0,),
            xi=0.25,
            y_trunc=0.0,
            covariate_recipe=(),
            seed=5,
        )
        y, spec = simulate_dataset(cfg, 0)
        assert spec.x1.shape == (4000, 1)
        frac = np.mean(y > 0)
        assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(cfg.n)

    def test_reference_positive_fraction(self):
        cfg = reference_config(n=2000, reps=50, xi=0.25, seed=7)
        fracs = [np.mean(simulate_dataset(cfg, r)[0] > 0) for r in range(50)]
        assert all(0.25 <= f <= 0.35 for f in fracs)

    def test_bitwise_reproducible(self):
        cfg = reference_config(n=300, reps=1, xi=0.25, seed=9)
        y1, s1 = simulate_dataset(cfg, 4)
        y2, s2 = simulate_dataset(cfg, 4)
        assert np.array_equal(y1, y2)
        assert np.array_equal(s1.x1, s2.x1)

    def test_replicates_differ(self):
        cfg = reference_config(n=300, reps=2, xi=0.25, seed=9)
        y1, _ = simulate_dataset(cfg, 0)
        y2, _ = simulate_dataset(cfg, 1)
        assert not np.array_equal(y1, y2)

    def test_truncation_consistency(self):
        # same stream with and without truncation: the share of positives
        # removed matches the GPD probability of (0, y0] within 3 binomial SDs
        y0 = 0.4
        base = dict(
            n=20000, reps=1, beta1=(0.3,), beta2=(0.5,), xi=0.25,
            covariate_recipe=(), seed=11,
        )
        y_plain, _ = simulate_dataset(SimConfig(y_trunc=0.0, **base), 0)
        y_trunc, _ = simulate_dataset(SimConfig(y_trunc=y0, **base), 0)
        n_pos0 = np.sum(y_plain > 0)
        removed = n_pos0 - np.sum(y_trunc > 0)
        p = gpd_cdf(y0, GpdMean(np.exp(0.5), 0.25))
        se = np.sqrt(p * (1 - p) * n_pos0)
        assert abs(removed - p * n_pos0) < 3.0 * se

    def test_recipe_length_checked(self):
        with pytest.raises(ValueError, match="recipe"):
            SimConfig(
                n=10, reps=1, beta1=(0.0, 1.0), beta2=(0.0,), xi=0.1,
                y_trunc=0.0, covariate_recipe=(), seed=0,
            )

    @pytest.mark.parametrize("y_trunc", [-0.5, float("nan"), float("inf")])
    def test_bad_threshold_is_named(self, y_trunc):
        with pytest.raises(ValueError, match=f"truncation threshold .* got {y_trunc}"):
            reference_config(n=300, reps=2, xi=0.25, y_trunc=y_trunc)

    @pytest.mark.parametrize("xi", [float("nan"), float("inf"), float("-inf")])
    def test_bad_shape_is_named(self, xi):
        with pytest.raises(ValueError, match=f"xi must be finite and < 1, got {xi}"):
            reference_config(n=300, reps=2, xi=xi)


class TestCoverageStudy:
    def test_single_replicate_report(self):
        cfg = reference_config(n=800, reps=1, xi=0.25, seed=3)
        report = coverage_study(cfg)
        assert report.n_converged == 1 and report.n_excluded == 0
        for p in report.params:
            assert p.coverage in (0.0, 1.0)
            assert p.bias == pytest.approx(p.mean - p.truth, abs=1e-15)

    def test_to_dict_is_every_field_but_the_estimates_table(self):
        report = coverage_study(reference_config(n=400, reps=1, xi=0.25, seed=6))
        d = report.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(report)} - {"estimates"}
        assert d["params"][0] == dataclasses.asdict(report.params[0])
        assert all(math.isnan(p["sd"]) for p in d["params"])

    def test_estimates_table(self):
        cfg = reference_config(n=400, reps=3, xi=0.25, seed=6)
        report = coverage_study(cfg)
        rows = [r for r in report.estimates if r[1] == "xi"]
        assert len(rows) == report.n_converged

    def test_aborts_on_mass_nonconvergence(self, monkeypatch):
        cfg = reference_config(n=400, reps=5, xi=0.25, seed=8)

        real = sim.fit_mle

        def flaky(y, y_trunc, spec, **kwargs):
            fit = real(y, y_trunc, spec, **kwargs)
            object.__setattr__(fit, "converged", False)
            return fit

        monkeypatch.setattr(sim, "fit_mle", flaky)
        with pytest.raises(RuntimeError, match="failed to converge"):
            coverage_study(cfg)


class TestPresets:
    def test_reference_grid_layout(self):
        grid = reference_grid()
        assert len(grid) == 6
        assert sorted({c.n for c in grid}) == [500, 1000, 2000]
        assert sorted({c.xi for c in grid}) == [0.25, 0.5]
        assert all(c.reps == 2500 for c in grid)
        assert all(c.y_trunc == 0.125 for c in grid)

    def test_reference_coefficients(self):
        cfg = reference_config()
        assert cfg.beta1 == (1.0, 1.0, -0.5, 0.5, 0.25, 0.25)
        assert cfg.beta2 == (2.0, 1.0, 0.5, 0.5, 0.25, 0.25)


class TestStreams:
    def test_replicate_streams_are_decorrelated(self):
        a = replicate_rng(0, 1).random(1000)
        b = replicate_rng(0, 2).random(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_same_key_same_stream(self):
        assert np.array_equal(replicate_rng(3, 5).random(10), replicate_rng(3, 5).random(10))
