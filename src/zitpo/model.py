"""Zero-inflated left-truncated generalized Pareto mixture.

The observed response is a mixture of a point mass at zero and a continuous
generalized Pareto part on ``(y_trunc, inf)``. Zeros arise both from true
non-events (probability ``1 - pi``) and from positive values at or below the
recording threshold ``y_trunc``, so

    P(Y = 0)       = 1 - pi * (1 + (xi/(1-xi)) * y_trunc/mu)**(-1/xi)
    f(y), y>y_trunc = pi / (mu*(1-xi)) * (1 + (xi/(1-xi)) * y/mu)**(-1/xi-1)

with ``pi`` the probability of a positive underlying value and ``mu`` the
mean of the untruncated positive part. Covariates enter through a logit link
for ``pi`` and a log link for ``mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .gpd import XI_TOL

__all__ = [
    "ZitpoParams",
    "ModelSpec",
    "CoefVector",
    "MixturePoint",
    "linkinv_logit",
    "linkinv_log",
    "zero_prob",
    "density",
    "log_density",
    "density_shifted",
    "predict",
    "log_likelihood",
]


@dataclass(frozen=True)
class ZitpoParams:
    """Mixture parameters for one observation.

    Parameters
    ----------
    pi : float
        Probability of a positive underlying value, strictly in (0, 1).
    mu : float
        Mean of the untruncated positive part (same units as the data).
    xi : float
        Shape of the positive part; must be < 1. Values with ``|xi|`` below
        the shape tolerance use the exponential branch.
    y_trunc : float
        Recording threshold: positives at or below it appear as zeros.
    """

    pi: float
    mu: float
    xi: float
    y_trunc: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.pi < 1.0):
            raise ValueError(f"pi must lie strictly in (0, 1), got {self.pi}")
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not np.isfinite(self.xi) or self.xi >= 1.0:
            raise ValueError(f"xi must be < 1, got {self.xi}")
        if not np.isfinite(self.y_trunc) or self.y_trunc < 0.0:
            raise ValueError(f"y_trunc must be nonnegative, got {self.y_trunc}")


@dataclass(frozen=True)
class ModelSpec:
    """Design matrices for the two model parts.

    ``x1`` drives the positive-outcome probability (logit link), ``x2`` the
    positive mean (log link); the first column of each must be the intercept.
    """

    x1: np.ndarray
    x2: np.ndarray
    names1: tuple[str, ...] = field(default=())
    names2: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        x1 = np.atleast_2d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_2d(np.asarray(self.x2, dtype=float))
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        if x1.shape[0] != x2.shape[0]:
            raise ValueError(
                f"design matrices disagree on n: {x1.shape[0]} vs {x2.shape[0]}"
            )
        for label, x in (("x1", x1), ("x2", x2)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{label} contains non-finite entries")
            if not np.all(x[:, 0] == 1.0):
                raise ValueError(f"first column of {label} must be the intercept")
        if not self.names1:
            object.__setattr__(
                self, "names1", tuple(f"x{j}" for j in range(x1.shape[1]))
            )
        if not self.names2:
            object.__setattr__(
                self, "names2", tuple(f"x{j}" for j in range(x2.shape[1]))
            )
        if len(self.names1) != x1.shape[1] or len(self.names2) != x2.shape[1]:
            raise ValueError("column names do not match design dimensions")

    @property
    def n(self) -> int:
        return self.x1.shape[0]


@dataclass(frozen=True)
class CoefVector:
    """Regression coefficients for both parts plus the shared shape."""

    beta1: np.ndarray
    beta2: np.ndarray
    xi: float

    def __post_init__(self) -> None:
        b1 = np.atleast_1d(np.asarray(self.beta1, dtype=float))
        b2 = np.atleast_1d(np.asarray(self.beta2, dtype=float))
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("coefficients must be finite")
        if not np.isfinite(self.xi) or self.xi >= 1.0:
            raise ValueError(f"xi must be < 1, got {self.xi}")


@dataclass(frozen=True)
class MixturePoint:
    """Tagged mixture evaluation: a zero-point mass or a density value.

    ``kind`` is ``"mass"`` (dimensionless probability at y = 0) or
    ``"density"`` (1 / units of y); the two are not interchangeable.
    """

    kind: str
    value: float
    log_value: float


def linkinv_logit(eta):
    """Inverse logit link, exp(eta) / (1 + exp(eta)), overflow-safe."""
    arr = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("linear predictor for pi must be finite")
    out = expit(arr)
    return float(out) if arr.ndim == 0 else out


def linkinv_log(eta):
    """Inverse log link, exp(eta); raises on overflow naming the row."""
    arr = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("linear predictor for mu must be finite")
    with np.errstate(over="ignore"):
        out = np.exp(arr)
    bad = ~np.isfinite(out)
    if np.any(bad):
        row = int(np.argmax(np.atleast_1d(bad)))
        raise ValueError(f"exp overflow in the mu link at row {row} (eta={arr.flat[row]})")
    return float(out) if arr.ndim == 0 else out


def _log_trunc_survival(mu, xi: float, y_trunc: float):
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


def _zero_log_prob(pi, mu, xi: float, y_trunc: float):
    """log P(Y = 0) = log(1 - pi * S(y_trunc)). Vectorized in (pi, mu)."""
    log_s = _log_trunc_survival(mu, xi, y_trunc)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.asarray(pi, dtype=float) * np.exp(log_s))


def _pos_log_density(y, pi, mu, xi: float):
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


def zero_prob(p: ZitpoParams) -> float:
    """Probability of observing a zero: non-events plus truncated positives."""
    return float(np.exp(_zero_log_prob(p.pi, p.mu, p.xi, p.y_trunc)))


def log_density(y: float, p: ZitpoParams) -> float:
    """Log mass at zero or log density above the threshold.

    Raises for ``0 < y <= y_trunc`` (such values cannot be observed) and for
    negative ``y``.
    """
    if not np.isfinite(y) or y < 0.0:
        raise ValueError(f"response must be a nonnegative number, got {y}")
    if y == 0.0:
        return float(_zero_log_prob(p.pi, p.mu, p.xi, p.y_trunc))
    if y <= p.y_trunc:
        raise ValueError(
            f"y={y} lies in (0, {p.y_trunc}]: positives at or below the "
            "truncation threshold are recorded as zeros"
        )
    return float(_pos_log_density(y, p.pi, p.mu, p.xi))


def density(y: float, p: ZitpoParams) -> MixturePoint:
    """Evaluate the mixture at ``y``, tagged as point mass or density."""
    lv = log_density(y, p)
    kind = "mass" if y == 0.0 else "density"
    return MixturePoint(kind=kind, value=float(np.exp(lv)), log_value=lv)


def density_shifted(
    y: float,
    pi_b: float,
    mu_b: float,
    xi: float,
    y_bullet: float,
    y_trunc: float,
) -> MixturePoint:
    """Three-parameter variant with a shift ``y_bullet``.

    Data at or below ``y_bullet`` count as zeros; ``pi_b`` is the probability
    of exceeding the shift and ``mu_b`` the conditional mean above it. Reduces
    to :func:`density` when ``y_bullet = 0`` and to a two-part model (mass
    ``1 - pi_b`` at zero) when ``y_trunc = y_bullet``.
    """
    if y_bullet < 0.0 or y_bullet > y_trunc:
        raise ValueError(
            f"shift must satisfy 0 <= y_bullet <= y_trunc, got {y_bullet} vs {y_trunc}"
        )
    if mu_b <= y_bullet:
        raise ValueError(f"conditional mean {mu_b} must exceed the shift {y_bullet}")
    inner = ZitpoParams(pi=pi_b, mu=mu_b - y_bullet, xi=xi, y_trunc=y_trunc - y_bullet)
    if y == 0.0:
        return density(0.0, inner)
    if y <= y_trunc:
        raise ValueError(
            f"y={y} lies in (0, {y_trunc}]: positives at or below the "
            "truncation threshold are recorded as zeros"
        )
    out = density(y - y_bullet, inner)
    return MixturePoint(kind="density", value=out.value, log_value=out.log_value)


def predict(spec: ModelSpec, coef: CoefVector) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (pi_i, mu_i) from the linear predictors of both parts."""
    if spec.x1.shape[1] != coef.beta1.shape[0]:
        raise ValueError(
            f"pi part: design has {spec.x1.shape[1]} columns, "
            f"coefficient vector has {coef.beta1.shape[0]}"
        )
    if spec.x2.shape[1] != coef.beta2.shape[0]:
        raise ValueError(
            f"mu part: design has {spec.x2.shape[1]} columns, "
            f"coefficient vector has {coef.beta2.shape[0]}"
        )
    pi = linkinv_logit(spec.x1 @ coef.beta1)
    mu = linkinv_log(spec.x2 @ coef.beta2)
    return pi, mu


def _loglik_terms(y: np.ndarray, pi, mu, xi: float, y_trunc: float) -> np.ndarray:
    """Per-row log mass/density contributions; -inf marks invalid regions."""
    terms = np.empty_like(y, dtype=float)
    zero = y == 0.0
    pi = np.broadcast_to(np.asarray(pi, dtype=float), y.shape)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
    terms[zero] = _zero_log_prob(pi[zero], mu[zero], xi, y_trunc)
    terms[~zero] = _pos_log_density(y[~zero], pi[~zero], mu[~zero], xi)
    return terms


# Below |x| = |xi * y / sigma| of this size the closed forms of phi' and phi''
# cancel (relative error ~eps/x^2); the ten-term series there is exact to
# rounding, and at x = 0 it is the exponential branch's limit.
_SERIES_X = 1e-2
_SERIES_TERMS = 10
_J = np.arange(_SERIES_TERMS)
_SIGN = (-1.0) ** _J
_PHI_COEF = _SIGN / (_J + 1.0)
_DPHI_COEF = -_SIGN * (_J + 1.0) / (_J + 2.0)
_D2PHI_COEF = _SIGN * (_J + 2.0) * (_J + 1.0) / (_J + 3.0)


def _phi_derivs(x):
    """phi(x) = log1p(x)/x and its first two derivatives, continuous at 0."""
    polyval = np.polynomial.polynomial.polyval
    small = np.abs(x) < _SERIES_X
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.log1p(x)
        num = x / (1.0 + x) - lg
        phi = np.where(small, polyval(x, _PHI_COEF), lg / x)
        d1 = np.where(small, polyval(x, _DPHI_COEF), num / x**2)
        d2 = np.where(
            small,
            polyval(x, _D2PHI_COEF),
            -1.0 / (x * (1.0 + x) ** 2) - 2.0 * num / x**3,
        )
    return phi, d1, d2


def _loglik_derivs(y: np.ndarray, eta1, eta2, xi: float, y_trunc: float):
    """Per-row log-likelihood terms of :func:`_loglik_terms` with their first
    and second derivatives in (eta1 = logit pi, eta2 = log mu, xi).

    Returns ``(t, g, h)``: ``t`` of shape (n,) holds the terms, ``g`` of
    shape (3, n) the first derivatives in that order, ``h`` of shape (6, n)
    the unique second derivatives in the order (11, 12, 1xi, 22, 2xi, xixi).
    Positive rows depend on eta1 only through log pi, so their eta1 cross
    terms are zero; zero rows couple all three. A zero row whose threshold
    lies beyond a ``xi < 0`` support end has no mass above it: its term is
    log(1) = 0 and all its derivatives are zero. A positive row beyond the
    support end has a term that is not finite.

    Both row kinds go through M = log(1 + xi*w)/xi with w = y/sigma,
    sigma = mu*(1 - xi) (w0 = y_trunc/sigma on zero rows): the positive term
    is log pi - log sigma - (1 + xi)*M and the zero term log(1 - pi*exp(-M)).
    Writing M = w*phi(xi*w) keeps every term finite as xi -> 0, where it
    meets the exponential branch (M = y/mu at xi = 0).
    """
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    zero = y == 0.0
    pi = expit(eta1)
    qi = expit(-eta1)  # 1 - pi without cancellation
    c = 1.0 / (1.0 - xi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.where(zero, y_trunc, y) * np.exp(-eta2) * c
        x = xi * w
        b = 1.0 / (1.0 + x)
        phi, d1, d2 = _phi_derivs(x)
        m = w * phi
        m2 = -w * b
        mx = w * w * d1 + c * w * b
        m22 = w * b * b
        m2x = c * w * b * (w * b - 1.0)
        mxx = w**3 * d2 - 2.0 * c * (w * b) ** 2 - xi * (c * w * b) ** 2 + 2.0 * c * c * w * b

        # zero rows: l = log(1 - q), q = pi*S, S = exp(-M); r = q / (1 - q)
        beyond = zero & (x <= -1.0)
        surv = np.where(beyond, 0.0, np.exp(-m))
        one_minus_q = np.where(beyond, 1.0, qi - pi * np.expm1(-m))
        r = pi * surv / one_minus_q
        rr = r * (1.0 + r)
        for arr in (m2, mx, m22, m2x, mxx):
            arr[beyond] = 0.0

        one_xi = 1.0 + xi
        t = np.where(zero, np.log(one_minus_q), np.log(pi) - eta2 - np.log1p(-xi) - one_xi * m)
        g = np.empty((3, y.size))
        h = np.empty((6, y.size))
        g[0] = np.where(zero, -r * qi, qi)
        g[1] = np.where(zero, r * m2, -1.0 - one_xi * m2)
        g[2] = np.where(zero, r * mx, c - m - one_xi * mx)
        h[0] = np.where(zero, -r * qi * ((1.0 + r) * qi - pi), -pi * qi)
        h[1] = np.where(zero, rr * qi * m2, 0.0)
        h[2] = np.where(zero, rr * qi * mx, 0.0)
        h[3] = np.where(zero, r * m22 - rr * m2 * m2, -one_xi * m22)
        h[4] = np.where(zero, r * m2x - rr * m2 * mx, -m2 - one_xi * m2x)
        h[5] = np.where(zero, r * mxx - rr * mx * mx, c * c - 2.0 * mx - one_xi * mxx)
    return t, g, h


def _check_response(y, y_trunc: float, spec: ModelSpec) -> np.ndarray:
    """The response as a float array, checked against the design length and
    for rows that are neither 0 nor above ``y_trunc`` (the first is named)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != spec.n:
        raise ValueError(f"response length {y.shape} does not match design n={spec.n}")
    bad = (y < 0.0) | ((y > 0.0) & (y <= y_trunc)) | ~np.isfinite(y)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"row {row}: response {y[row]} is neither 0 nor above the "
            f"truncation threshold {y_trunc}"
        )
    return y


def log_likelihood(
    y, y_trunc: float, spec: ModelSpec, coef: CoefVector
) -> float:
    """Model log-likelihood, summed in row order with compensated summation.

    Every response must be exactly zero or strictly above ``y_trunc``;
    offending rows are reported. A non-finite total (e.g. a zero observed
    where the model puts no mass) raises.
    """
    y = _check_response(y, y_trunc, spec)
    pi, mu = predict(spec, coef)
    total = math.fsum(_loglik_terms(y, pi, mu, coef.xi, y_trunc))
    if not np.isfinite(total):
        raise ValueError("log-likelihood is not finite for these coefficients")
    return total
