"""Generalized Pareto distribution kernels.

Two parameter bundles are supported: :class:`GpdScale` carries the classic
(location ``alpha``, scale ``tau``, shape ``xi``) triple, while
:class:`GpdMean` carries the zero-located distribution through its mean
``mu`` and shape ``xi`` (valid for ``xi < 1``, where ``tau = mu * (1 - xi)``).

All probability computations run in log space and are exponentiated on
demand; the ``xi -> 0`` exponential limit is taken automatically once
``|xi|`` falls below :data:`XI_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "XI_TOL",
    "GpdScale",
    "GpdMean",
    "gpd_cdf",
    "gpd_pdf",
    "gpd_log_pdf",
    "gpd_quantile",
    "mean_quantile_level",
    "excess_distribution",
    "mean_over_threshold",
]

# |xi| below this uses the exponential branch; keeps the relative branch
# error under 1e-7 while avoiding cancellation in (1 + xi*z)**(-1/xi).
XI_TOL = 1e-8

# Relative slack when deciding whether y sits on the xi<0 support boundary.
_BOUNDARY_RTOL = 1e-12


def _check_shape(xi: float) -> None:
    """Raise unless the shape is finite and below 1, where the mean exists."""
    if not (np.isfinite(xi) and xi < 1.0):
        raise ValueError(f"xi must be finite and < 1, got {xi}")


@dataclass(frozen=True)
class GpdScale:
    """Location/scale/shape parameters of a generalized Pareto distribution.

    Parameters
    ----------
    tau : float
        Scale, in the units of the data; must be positive.
    xi : float
        Shape. ``xi = 0`` gives the exponential distribution with mean
        ``tau``; ``xi < 0`` bounds the support at ``alpha - tau / xi``.
    alpha : float, optional
        Location (lower support endpoint), nonnegative. Default 0.
    """

    tau: float
    xi: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.tau) or self.tau <= 0.0:
            raise ValueError(f"scale tau must be positive and finite, got {self.tau}")
        if not np.isfinite(self.xi):
            raise ValueError(f"shape xi must be finite, got {self.xi}")
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError(f"location alpha must be nonnegative, got {self.alpha}")

    @property
    def upper(self) -> float:
        """Upper endpoint of the support (+inf unless ``xi < 0``)."""
        if self.xi < -XI_TOL:
            return self.alpha - self.tau / self.xi
        return float("inf")


@dataclass(frozen=True)
class GpdMean:
    """Zero-located generalized Pareto distribution with mean ``mu``.

    Requires ``xi < 1`` so the mean exists; the scale is then
    ``tau = mu * (1 - xi)`` and conversion to :class:`GpdScale` round-trips
    exactly.
    """

    mu: float
    xi: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError(f"mean mu must be positive and finite, got {self.mu}")
        _check_shape(self.xi)

    def to_scale(self) -> GpdScale:
        return GpdScale(tau=self.mu * (1.0 - self.xi), xi=self.xi, alpha=0.0)

    @classmethod
    def from_scale(cls, p: GpdScale) -> "GpdMean":
        if p.alpha != 0.0:
            raise ValueError("GpdMean is defined for zero-located distributions only")
        _check_shape(p.xi)
        return cls(mu=p.tau / (1.0 - p.xi), xi=p.xi)


def _as_scale(p: GpdScale | GpdMean) -> GpdScale:
    return p.to_scale() if isinstance(p, GpdMean) else p


def _standardize(y, p: GpdScale):
    """Map y to z = (y - alpha)/tau, validating the support.

    Returns (z, scalar) where ``scalar`` flags scalar input. On the xi<0
    boundary, z is clamped to exactly -1/xi (closed support convention).
    """
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    z = (arr - p.alpha) / p.tau
    if np.any(z < 0.0):
        raise ValueError(f"y below the support start alpha={p.alpha}")
    if p.xi < -XI_TOL:
        zmax = -1.0 / p.xi
        if np.any(z > zmax * (1.0 + _BOUNDARY_RTOL)):
            raise ValueError(
                f"y beyond the upper support endpoint {p.upper} for xi={p.xi}"
            )
        z = np.minimum(z, zmax)
    return z, scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def gpd_cdf(y, p: GpdScale | GpdMean):
    """Cumulative distribution function of the generalized Pareto law.

    Parameters
    ----------
    y : float or array_like
        Evaluation points; must lie in the support of ``p``.
    p : GpdScale or GpdMean
        Distribution parameters.

    Returns
    -------
    float or ndarray
        ``P(Y <= y)``.
    """
    p = _as_scale(p)
    z, scalar = _standardize(y, p)
    if abs(p.xi) < XI_TOL:
        out = -np.expm1(-z)
    else:
        with np.errstate(divide="ignore"):
            # log survival = -(1/xi) * log1p(xi*z); log1p(-1) -> -inf at the
            # closed xi<0 boundary, giving cdf exactly 1 there.
            log_sf = -np.log1p(p.xi * z) / p.xi
        out = -np.expm1(log_sf)
    return _ret(out, scalar)


def gpd_log_pdf(y, p: GpdScale | GpdMean):
    """Natural log of the density; -inf on the boundary where it vanishes."""
    p = _as_scale(p)
    z, scalar = _standardize(y, p)
    if abs(p.xi) < XI_TOL:
        out = -np.log(p.tau) - z
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -np.log(p.tau) - (1.0 / p.xi + 1.0) * np.log1p(p.xi * z)
        # 0 * inf at the xi<0 boundary when xi == -1 exactly
        out = np.where(np.isnan(out), -np.inf, out)
    return _ret(out, scalar)


def gpd_pdf(y, p: GpdScale | GpdMean):
    """Density of the generalized Pareto law (1 / units of y)."""
    lp = gpd_log_pdf(y, p)
    return float(np.exp(lp)) if np.ndim(lp) == 0 else np.exp(lp)


def gpd_quantile(q, p: GpdScale | GpdMean):
    """Inverse CDF.

    Parameters
    ----------
    q : float or array_like
        Probabilities in ``[0, 1)``.
    p : GpdScale or GpdMean
        Distribution parameters.
    """
    p = _as_scale(p)
    arr = np.asarray(q, dtype=float)
    scalar = arr.ndim == 0
    if np.any((arr < 0.0) | (arr >= 1.0)):
        raise ValueError("quantile level must lie in [0, 1)")
    if abs(p.xi) < XI_TOL:
        out = p.alpha - p.tau * np.log1p(-arr)
    else:
        out = p.alpha + p.tau * np.expm1(-p.xi * np.log1p(-arr)) / p.xi
    return _ret(out, scalar)


def mean_quantile_level(xi: float) -> float:
    """Probability level at which the mean of a GPD (xi < 1) sits,
    ``1 - (1-xi)**(1/xi)``; the ``xi -> 0`` limit is ``1 - 1/e``."""
    _check_shape(xi)
    if abs(xi) < XI_TOL:
        return float(-np.expm1(-1.0))
    return float(-np.expm1(np.log1p(-xi) / xi))


def excess_distribution(p: GpdScale, y_bullet: float) -> GpdScale:
    """Distribution of Y given Y > y_bullet for a zero-located GPD.

    The conditional law is again generalized Pareto with location
    ``y_bullet``, unchanged shape, and scale ``tau + xi * y_bullet``.

    Parameters
    ----------
    p : GpdScale
        Zero-located parameters (``alpha`` must be 0).
    y_bullet : float
        Conditioning threshold, inside the support.
    """
    if p.alpha != 0.0:
        raise ValueError("excess_distribution expects a zero-located distribution")
    if y_bullet < 0.0 or y_bullet >= p.upper:
        raise ValueError(f"threshold {y_bullet} outside the support [0, {p.upper})")
    return GpdScale(tau=p.tau + p.xi * y_bullet, xi=p.xi, alpha=y_bullet)


def mean_over_threshold(p: GpdMean, y_bullet: float) -> float:
    """Conditional mean E[Y | Y > y_bullet] = mu + xi*y_bullet/(1-xi) + y_bullet."""
    if y_bullet < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {y_bullet}")
    return p.mu + p.xi * y_bullet / (1.0 - p.xi) + y_bullet
