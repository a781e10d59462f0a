"""The benchmark's reference formulas: normalization and the xi -> 0 limit.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference as ref  # noqa: E402


@pytest.mark.parametrize(
    "pi, mu, xi, y0",
    [
        (0.3, 2.0, 0.25, 0.125),
        (0.7, 0.5, 0.6, 0.3),
        (0.5, 1.5, 0.0, 0.2),
        (0.4, 1.0, 1e-9, 0.5),
        (0.6, 3.0, -0.3, 1.0),
        (0.2, 1.0, 0.3, 0.0),
    ],
)
def test_zero_mass_plus_density_integrates_to_one(pi, mu, xi, y0):
    upper = np.inf if xi >= 0.0 else mu * (1.0 - xi) / -xi
    mass, err = quad(
        lambda y: float(np.exp(ref.log_pos_density(y, pi, mu, xi))), y0, upper, limit=200
    )
    total = float(ref.p_zero(pi, mu, xi, y0)) + mass
    assert abs(total - 1.0) < 1e-8 + err


@pytest.mark.parametrize("xi", [1e-6, 1e-9, 1e-12, -1e-12, -1e-9, -1e-6])
def test_formulas_are_continuous_at_xi_zero(xi):
    y = np.array([0.2, 1.0, 7.5])
    mu = np.array([0.8, 2.0, 5.0])
    tol = 2.0 * abs(xi) * 50.0 + 1e-14
    at_zero = ref.log_pos_density(y, 0.4, mu, 0.0)
    assert np.allclose(ref.log_pos_density(y, 0.4, mu, xi), at_zero, rtol=tol, atol=0)
    assert np.allclose(
        ref.log_p_zero(0.4, mu, xi, 0.125), ref.log_p_zero(0.4, mu, 0.0, 0.125), rtol=tol, atol=0
    )
    p = np.array([0.01, 0.5, 0.99])
    assert np.allclose(
        ref.unit_mean_gpd_quantile(p, xi), ref.unit_mean_gpd_quantile(p, 0.0), rtol=tol, atol=0
    )
