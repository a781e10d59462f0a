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

from .gpd import XI_TOL, _check_shape

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
        _check_shape(self.xi)
        _check_threshold(self.y_trunc)


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
        _check_shape(self.xi)


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


def _zero_log_prob(pi, qi, mu, xi: float, y_trunc: float):
    """log P(Y = 0) = log(1 - pi * S(y_trunc)) as log(qi - pi * (S - 1)),
    with qi = 1 - pi given by the caller, so nothing cancels when pi is near
    1. Vectorized in (pi, qi, mu)."""
    log_s = _log_trunc_survival(mu, xi, y_trunc)
    with np.errstate(divide="ignore"):
        out = np.log(qi - np.asarray(pi, dtype=float) * np.expm1(log_s))
    # a threshold beyond a xi < 0 support end leaves no mass above it: log(1)
    return np.where(log_s == -np.inf, 0.0, out)


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
    return float(np.exp(_zero_log_prob(p.pi, 1.0 - p.pi, p.mu, p.xi, p.y_trunc)))


def log_density(y: float, p: ZitpoParams) -> float:
    """Log mass at zero or log density above the threshold.

    Raises for ``0 < y <= y_trunc`` (such values cannot be observed) and for
    negative ``y``.
    """
    if not np.isfinite(y) or y < 0.0:
        raise ValueError(f"response must be a nonnegative number, got {y}")
    if y == 0.0:
        return float(_zero_log_prob(p.pi, 1.0 - p.pi, p.mu, p.xi, p.y_trunc))
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
    eta1, eta2 = _linear_predictors(spec, coef)
    return linkinv_logit(eta1), linkinv_log(eta2)


def _linear_predictors(spec: ModelSpec, coef: CoefVector) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (eta1, eta2) = (X1 beta1, X2 beta2), after checking that the
    coefficient vectors match the design columns."""
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
    return spec.x1 @ coef.beta1, spec.x2 @ coef.beta2


def _loglik_terms(y: np.ndarray, pi, qi, mu, xi: float, y_trunc: float) -> np.ndarray:
    """Per-row log mass/density contributions, with qi = 1 - pi given by the
    caller (see :func:`_zero_log_prob`); -inf marks invalid regions."""
    terms = np.empty_like(y, dtype=float)
    zero = y == 0.0
    pi = np.broadcast_to(np.asarray(pi, dtype=float), y.shape)
    qi = np.broadcast_to(np.asarray(qi, dtype=float), y.shape)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
    terms[zero] = _zero_log_prob(pi[zero], qi[zero], mu[zero], xi, y_trunc)
    terms[~zero] = _pos_log_density(y[~zero], pi[~zero], mu[~zero], xi)
    return terms


# Below |x| = |xi * w| of this size the closed forms of phi' and phi''
# cancel (relative error ~eps/x^2); the ten-term series there is exact to
# rounding, and at x = 0 it is the exponential branch's limit.
_SERIES_X = 1e-2
_SERIES_TERMS = 10
_J = np.arange(_SERIES_TERMS)
_SIGN = (-1.0) ** _J
# Power-series coefficients of (phi, phi', phi''), one column each (10 x 3).
_SERIES_COEF = np.column_stack([
    _SIGN / (_J + 1.0),
    -_SIGN * (_J + 1.0) / (_J + 2.0),
    _SIGN * (_J + 2.0) * (_J + 1.0) / (_J + 3.0),
])


def _phi_series(x):
    """(phi, phi', phi'') near 0, shape (3, n): the Vandermonde matrix of x,
    built transposed (one row per power), times the coefficient matrix."""
    powers = np.empty((_SERIES_TERMS, x.size))
    powers[0] = 1.0
    for j in range(1, _SERIES_TERMS):
        np.multiply(powers[j - 1], x, out=powers[j])
    return _SERIES_COEF.T @ powers


def _phi_closed(x):
    """(phi, phi', phi'') from log1p, for |x| >= _SERIES_X."""
    lg = np.log1p(x)
    num = x / (1.0 + x) - lg
    return lg / x, num / x**2, -1.0 / (x * (1.0 + x) ** 2) - 2.0 * num / x**3


def _m_derivs(w, xi: float, c: float):
    """M = log(1 + xi*w)/xi = w*phi(xi*w) with its derivatives in
    (eta2 = log mu, xi), where w = v/sigma for the row's value v (y, or
    y_trunc on a zero row) and sigma = mu/c, c = 1/(1 - xi).

    Returns ``(x, m, m2, mx, m22, m2x, mxx)`` with x = xi*w. phi = log1p(x)/x
    and its first two derivatives come from the series on the rows with
    |x| < ``_SERIES_X`` and from the closed forms on the others, each form
    evaluated only on its own rows, so M stays finite as xi -> 0, where it
    meets the exponential branch (M = y/mu at xi = 0).
    """
    x = xi * w
    phi = np.empty((3, x.size))
    small = np.abs(x) < _SERIES_X
    for rows, form in ((small, _phi_series), (~small, _phi_closed)):
        k = np.count_nonzero(rows)
        if k == x.size:
            phi[:] = form(x)
        elif k:
            # row by row of phi: a masked store into a 1-d view is the fast one
            for out, part in zip(phi, form(x[rows])):
                out[rows] = part
    b = 1.0 / (1.0 + x)
    wb = w * b
    cwb = c * wb
    ww = w * w
    m = w * phi[0]
    mx = ww * phi[1] + cwb
    m22 = wb * b
    m2x = cwb * (wb - 1.0)
    # w^3 phi'' - (2c + xi c^2) (wb)^2 + 2c^2 wb
    mxx = ww * w * phi[2] + cwb * (2.0 * c - (2.0 + xi * c) * wb)
    return x, m, -wb, mx, m22, m2x, mxx


def _expit_pair(eta1):
    """(pi, 1 - pi) for pi = expit(eta1), each without cancellation; the
    same expression as scipy's expit, with numpy's faster exp."""
    return 1.0 / (1.0 + np.exp(-eta1)), 1.0 / (1.0 + np.exp(eta1))


# Per-kind kernels. Each returns ``(t, g, h)`` for its rows: ``t`` of shape
# (n,) holds the log-likelihood terms of :func:`_loglik_terms`, ``g`` of shape
# (3, n) their first derivatives in (eta1 = logit pi, eta2 = log mu, xi), and
# ``h`` of shape (6, n) the unique second derivatives in the order
# (11, 12, 1xi, 22, 2xi, xixi).


def _zero_row_derivs(eta1, eta2, xi: float, y_trunc: float):
    """Zero rows: log(1 - pi*S) with S = exp(-M) at w0 = y_trunc/sigma.

    All three parameters couple. A row whose threshold lies beyond a
    ``xi < 0`` support end has no mass above it: its term is log(1) = 0 and
    all its derivatives are zero.
    """
    c = 1.0 / (1.0 - xi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi, qi = _expit_pair(eta1)
        w = y_trunc * np.exp(-eta2) * c
        x, m, m2, mx, m22, m2x, mxx = _m_derivs(w, xi, c)
        neg_m = -m
        surv = np.exp(neg_m)
        one_minus_q = qi - pi * np.expm1(neg_m)
        beyond = x <= -1.0
        if beyond.any():
            surv[beyond] = 0.0
            one_minus_q[beyond] = 1.0
            for arr in (m2, mx, m22, m2x, mxx):
                arr[beyond] = 0.0
        # q = pi*S, r = q / (1 - q)
        r = pi * surv / one_minus_q
        rr = r * (1.0 + r)
        rrq = rr * qi
        t = np.log(one_minus_q)
        g0 = -r * qi
        g = np.array([g0, r * m2, r * mx])
        h = np.array([
            g0 * ((1.0 + r) * qi - pi),
            rrq * m2,
            rrq * mx,
            r * m22 - rr * m2 * m2,
            r * m2x - rr * m2 * mx,
            r * mxx - rr * mx * mx,
        ])
    return t, g, h


def _pos_row_derivs(y, eta1, eta2, xi: float):
    """Positive rows: log pi - log sigma - (1 + xi)*M at w = y/sigma.

    These rows depend on eta1 only through log pi, so their eta1 cross
    derivatives h[1] and h[2] are identically zero. A row beyond a ``xi < 0``
    support end has a term that is not finite.
    """
    c = 1.0 / (1.0 - xi)
    one_xi = 1.0 + xi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pi, qi = _expit_pair(eta1)
        w = y * np.exp(-eta2) * c
        _, m, m2, mx, m22, m2x, mxx = _m_derivs(w, xi, c)
        t = np.log(pi) - eta2 - np.log1p(-xi) - one_xi * m
        g = np.array([qi, -1.0 - one_xi * m2, c - m - one_xi * mx])
        h = np.zeros((6, y.size))
        h[0] = -pi * qi
        h[3] = -one_xi * m22
        h[4] = -m2 - one_xi * m2x
        h[5] = c * c - 2.0 * mx - one_xi * mxx
    return t, g, h


# Relative eigenvalue floor of the rank check. On the Gram matrix scaled to
# unit diagonal, an exactly collinear column reads about 1e-17 (rounding) and
# the reference design about 2e-2, so 1e-12 leaves margin on both sides.
_RANK_RTOL = 1e-12


def _check_rank(x: np.ndarray, names) -> None:
    """Raise, naming the offending columns, unless ``x`` has full column rank.

    Rank is decided on X'X scaled to unit diagonal, so the decision does not
    depend on column units. A column whose sum of squares overflows is
    rejected as too large in magnitude. Otherwise one eigenvalue call on the
    whole scaled Gram decides: full rank when its smallest eigenvalue is
    above ``_RANK_RTOL`` times its largest. By Cauchy interlacing every
    principal block then passes too, so this is the decision of the column
    walk of :func:`_redundant_columns`, which runs only on failure, to name
    the redundant columns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x.T @ x
    norm = np.sqrt(np.diag(gram))
    huge = np.flatnonzero(norm == math.inf)
    if huge.size:
        raise ValueError(
            f"column {names[huge[0]]!r} is too large in magnitude (its sum of "
            "squares overflows); rescale it"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = gram / norm[:, None] / norm
    if np.all(norm > 0.0) and _well_conditioned(scaled):
        return
    offenders = _redundant_columns(scaled, norm, names)
    raise ValueError(f"design is rank deficient; redundant columns: {offenders}")


def _well_conditioned(scaled: np.ndarray) -> bool:
    lam = np.linalg.eigvalsh(scaled)
    return bool(lam[0] > _RANK_RTOL * lam[-1])


def _redundant_columns(scaled: np.ndarray, norm: np.ndarray, names) -> list:
    """Walk the columns in order, keeping a column when the scaled Gram
    block of the kept columns and it is well conditioned; a column of zero
    or non-finite norm is redundant. Returns the names not kept."""
    kept: list[int] = []
    offenders = []
    for j, name in enumerate(names):
        block = kept + [j]
        if 0.0 < norm[j] < math.inf and _well_conditioned(scaled[np.ix_(block, block)]):
            kept.append(j)
        else:
            offenders.append(name)
    return offenders


def _check_threshold(y_trunc: float) -> None:
    """Raise unless the recording threshold is finite and nonnegative."""
    if not (math.isfinite(y_trunc) and y_trunc >= 0.0):
        raise ValueError(f"truncation threshold must be finite and nonnegative, got {y_trunc}")


def _check_response(y, y_trunc: float, spec: ModelSpec) -> np.ndarray:
    """The response as a float array, checked against the design length and
    for rows that are neither 0 nor above ``y_trunc`` (the first is named);
    ``y_trunc`` itself must be finite and nonnegative."""
    _check_threshold(y_trunc)
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
    eta1, eta2 = _linear_predictors(spec, coef)
    pi = linkinv_logit(eta1)
    mu = linkinv_log(eta2)
    total = math.fsum(_loglik_terms(y, pi, expit(-eta1), mu, coef.xi, y_trunc))
    if not np.isfinite(total):
        raise ValueError("log-likelihood is not finite for these coefficients")
    return total
