"""Deterministic numerics for the space-varying long-memory process.

Everything here is pure: exact series covariances with certified tails,
the scale integral c(s, t) = int_0^inf x^{-d(s)} (x+1)^{-d(t)} dx and its
closed form, asymptotic laws, regime classifiers, partial-sum coefficient
tables and limit kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ProcessSpec, ValidationError


class RegimeError(ValueError):
    """The requested asymptotic law is not available in this regime."""


# ---------------------------------------------------------------------------
# the scale integral c(d_s, d_t)
# ---------------------------------------------------------------------------

# the fixed tanh-sinh rule on [0, 1]: nodes t = k h, |t| <= 3.2 rounded up to
# a whole step (207 nodes at h = 1/32)
TANH_SINH_STEP = 1.0 / 32.0
TANH_SINH_SPAN = 3.2


def _check_scale_regime(d_s: float, d_t: float) -> None:
    if not (0.5 < d_s < 1.0):
        raise RegimeError(f"scale integral requires 1/2 < d_s < 1 "
                          f"(integrability at 0); got d_s={d_s!r}")
    if not (d_s + d_t > 1.0):
        raise RegimeError(f"scale integral requires d_s + d_t > 1 "
                          f"(integrability at infinity); got d_s={d_s!r}, d_t={d_t!r}")


@functools.lru_cache(maxsize=1)
def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights (log u_k, w_k) of the tanh-sinh rule on [0, 1].

    u = 1/(1 + e^{-s}) with s = pi sinh t (Takahasi & Mori 1974), so
    log u = -log1p(e^{-s}) keeps full relative precision at nodes near 0,
    and w = h pi cosh t u (1 - u).  The outermost nodes lie within 1e-17 of
    the ends, so a bounded integrand loses no more than that there.
    """
    k = math.ceil(TANH_SINH_SPAN / TANH_SINH_STEP)
    t = TANH_SINH_STEP * np.arange(-k, k + 1)
    s = math.pi * np.sinh(t)
    log_u = -np.log1p(np.exp(-s))
    w = TANH_SINH_STEP * math.pi * np.cosh(t) / ((1.0 + np.exp(-s)) * (1.0 + np.exp(s)))
    log_u.flags.writeable = w.flags.writeable = False
    return log_u, w


def scale_integral(d_s: float, d_t: float) -> float:
    """int_0^inf x^{-d_s} (x+1)^{-d_t} dx by a fixed tanh-sinh rule.

    The integrand has a power singularity at 0 and a slow power tail, so
    each half is transformed to a bounded integrand (1 + u^{1/e})^{-d_t}
    on [0, 1] first:

    * on [0, 1], substitute x = u^{1/(1-d_s)}, so e = 1 - d_s;
    * on [1, inf), substitute x = 1/v followed by v = w^{1/a} with
      e = a = d_s + d_t - 1.

    Both halves share the 207 nodes of ``_tanh_sinh_rule``.  For d_t <= 5
    the result agrees with the Gamma closed form within 4e-15 relative,
    up to the edges of the regime (d_s -> 1/2 or 1, d_s + d_t -> 1).
    """
    _check_scale_regime(d_s, d_t)
    log_u, w = _tanh_sinh_rule()
    p = 1.0 - d_s
    a = d_s + d_t - 1.0
    head = float(np.dot(w, (1.0 + np.exp(log_u / p)) ** (-d_t)))
    tail = float(np.dot(w, (1.0 + np.exp(log_u / a)) ** (-d_t)))
    return head / p + tail / a


def scale_integral_closed_form(d_s: float, d_t: float) -> float:
    """Gamma-function closed form Gamma(1-d_s) Gamma(d_s+d_t-1) / Gamma(d_t)."""
    _check_scale_regime(d_s, d_t)
    return math.exp(math.lgamma(1.0 - d_s) + math.lgamma(d_s + d_t - 1.0) - math.lgamma(d_t))


# ---------------------------------------------------------------------------
# exact and asymptotic cross-covariances
# ---------------------------------------------------------------------------

MAX_LAG = 1_250_000  # J = max(4096, 4h) past terms keep h/(J+1.5) <= 1/4
LAG_BLOCK = 65_536   # head terms per numpy block of the lag series


def _binomial_tail(side_s, side_t, A: float) -> tuple[float, float]:
    """int_A^inf G_s(y) G_t(y) dy as (value, certified error), for x/A <= 1/4.

    A side (a, k0, x) is G(y) = sum_{k>=k0} binom(a,k) x^k y^{a-k} / binom(a,k0):
    (1-d, 1, n) is F_d(y) = int_y^{y+n} u^{-d} du (the log1p series at
    d = 1), (-d, 0, 0) is y^{-d} and (-d, 0, h) is (y+h)^{-d}.  With
    c_k = binom(a,k) (x/A)^k / binom(a,k0), beta = c_s * c_t and
    p = -(a_s + a_t),  tail = A^{1-p} sum_{m>=k0_s+k0_t} beta_m / (p+m-1).

    Past k0 the c_k alternate in sign, so |beta_m| convolves magnitudes with
    ratio x/A |a-k|/(k+1); pairing the terms of beta_{m+1} with those of
    beta_m bounds the term ratio past m by rho = 2 x/A max(1, (i-a)/(i+1))
    at i = m//2, the larger over the sides.  The error is the geometric
    remainder |t_m| rho/(1-rho) after the last term plus roundoff in the
    terms, their sum and the prefactor.
    """
    sides = (side_s, side_t)
    (a_s, k0_s, _), (a_t, k0_t, _) = sides
    m0 = k0_s + k0_t
    # |G(y)| <= x^k0 y^{a-k0} bounds the tail by prod (x/A)^k0 A^{1-p}/(p+m0-1);
    # below 1e-300 it is returned as 0 with that bound
    if (sum(k0 * math.log(x / A) for _, k0, x in sides if k0)
            + (1.0 + a_s + a_t) * math.log(A) - math.log(m0 - 1.0 - a_s - a_t) < -700.0):
        return 0.0, 1e-300

    def coefficients(a, k0, x, count):  # c_k, k = k0 .. k0+count-1
        k = np.arange(k0 + 1.0, k0 + count)
        return np.cumprod(np.concatenate(([(x / A) ** k0], (a + 1.0 - k) / k * (x / A))))

    eps = np.finfo(float).eps
    terms = 64
    while True:
        c_s, c_t = (coefficients(*side, terms) for side in sides)
        # the convolution is exact up to m = m0 + terms - 1
        m = np.arange(m0, m0 + terms, dtype=float)
        t = np.convolve(c_s, c_t)[:terms] / ((-a_s) + ((m - 1.0) - a_t))
        i = (m0 + terms - 1) // 2
        # i - a, rounded as d + i - 1 with d = 1 - a on a window side
        rho = 2.0 * max(x / A * max(1.0, ((1.0 - a) + i - 1.0) / (i + 1.0))
                        for a, _, x in sides)
        abs_t = np.abs(t)
        remainder = abs_t[-1] * rho / (1.0 - rho) if rho < 1.0 else math.inf
        if remainder <= eps * abs_t.sum() or terms >= 4096:
            break
        terms *= 2
    prefactor = A ** a_s * A ** a_t * A
    # roundings per term t_m: 4m in its factors c_k c_{m-k}, m in the
    # convolution, 8 in the divisor and prefactor, `terms` in the sum; a is
    # exact for d in [1/2, 2] and elsewhere moves A^a by log(A) ulps
    exponent_err = 0.5 * math.log(A) * (abs(a_s) + abs(a_t))
    roundoff = eps * float(np.dot(5.0 * m + terms + 8.0 + exponent_err, abs_t))
    return prefactor * float(t.sum()), prefactor * (remainder + roundoff)


def _lag_series(d_s: float, d_t: float, h: int) -> tuple[float, float, float]:
    """sum_{j>=0} (j+1)^{-d_s} (j+h+1)^{-d_t} as (value, error, partial sum).

    Sums the series directly up to J = max(4096, 4h), in blocks of
    ``LAG_BLOCK`` terms whose sums are added exactly (one block for
    h < 16,384), then adds the midpoint-rule tail integral, a binomial
    series in h/(J+1.5); the error covers the midpoint error and the
    series' own error, before the roundoff term proportional to the
    partial sum.
    """
    J = max(4096, 4 * h)
    blocks = []
    for start in range(0, J + 1, LAG_BLOCK):
        jj = np.arange(start, min(start + LAG_BLOCK, J + 1), dtype=float)
        blocks.append(float(np.sum((jj + 1.0) ** (-d_s) * (jj + h + 1.0) ** (-d_t))))
    partial = math.fsum(blocks)
    # int_{J+1/2}^inf (x+1)^{-d_s} (x+h+1)^{-d_t} dx, with y = x + 1
    tail, tail_err = _binomial_tail((-d_s, 0, 0), (-d_t, 0, h), J + 1.5)
    a_tot = d_s + d_t
    midpoint_err = (a_tot / 24.0) * (J + 1.5) ** (-a_tot - 1.0)
    return partial + tail, midpoint_err + tail_err, partial


def _pair_blocks(spec: ProcessSpec):
    """``(d_s, d_t, block)`` once per distinct exponent pair, row-major; the
    ``np.ix_`` block selects the grid pairs (i, j) with d(t_i), d(t_j) = d_s, d_t."""
    u, idx = spec.memory.distinct
    for a, b in np.ndindex(len(u), len(u)):
        yield float(u[a]), float(u[b]), np.ix_(idx == a, idx == b)


def cross_covariance_matrix(spec: ProcessSpec, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag-h cross-covariances and certified bounds over the whole grid, as q x q arrays.

    Entry (i, j) is E[X_0(t_i) X_h(t_j)] = sigma(t_i, t_j) sum_{k>=0}
    (k+1)^{-d(t_i)} (k+h+1)^{-d(t_j)}.  The series is summed once per
    distinct exponent pair with a nonzero sigma entry and then scaled by
    sigma(t_i, t_j); the bound adds roundoff proportional to the partial
    sum to the series' certified error.
    """
    if h < 0:
        raise ValueError("lag h must be nonnegative")
    if h > MAX_LAG:
        raise ValueError(f"lag h={h} exceeds MAX_LAG={MAX_LAG}, the largest certified lag")
    sigma = spec.innovations.sigma
    value, err, partial = np.zeros((3, *sigma.shape))
    for d_s, d_t, block in _pair_blocks(spec):
        if sigma[block].any():
            value[block], err[block], partial[block] = _lag_series(d_s, d_t, h)
    values = sigma * value
    bounds = np.abs(sigma) * err + 1e-15 * np.abs(sigma) * partial
    nonzero = sigma != 0.0
    return np.where(nonzero, values, 0.0), np.where(nonzero, bounds, 0.0)


def cross_covariance_asymptotic(d_s: float, d_t: float, sigma, h: float):
    """Leading-order lag-h cross-covariance in the two covered regimes.

    Power regime (1/2 < d_s < 1, d_t > 1/2): c(d_s, d_t) sigma h^{1-(d_s+d_t)}.
    Boundary regime (d_s = d_t = 1): sigma h^{-1} ln h.
    ``sigma`` may be an array: the sigma block of every grid pair with
    these exponents, each entry scaled by the same arithmetic.
    """
    if h < 2:
        raise ValueError("asymptotic law needs h >= 2")
    if d_s == 1.0 and d_t == 1.0:
        return sigma * math.log(h) / h
    if 0.5 < d_s < 1.0 and d_t > 0.5:
        return scale_integral_closed_form(d_s, d_t) * sigma * h ** (1.0 - (d_s + d_t))
    raise RegimeError(f"asymptotic law not stated in this regime "
                      f"(d_s={d_s:g}, d_t={d_t:g})")


def classify_summability(d_s: float, d_t: float) -> str:
    """Absolute summability of the lag covariances sum_h E[X_0(s) X_h(t)].

    Convergent iff d_t > 1 and d_s + d_t > 2; the criterion is
    order-sensitive (d_t is the lagged coordinate).
    """
    if d_s <= 0.5 or d_t <= 0.5:
        raise ValidationError("summability classifier requires d_s, d_t > 1/2")
    return "convergent" if (d_t > 1.0 and d_s + d_t > 2.0) else "divergent"


@dataclass(frozen=True)
class L2Report:
    """Grid quadratures of the two L2(mu) integrals and the margin of d over 1/2."""

    integral_sigma2: float
    integral_weighted: float
    min_d_minus_half: float  # min over the grid of d(t) - 1/2
    min_d_point: float       # the grid point t where that minimum occurs


def l2_membership(spec: ProcessSpec) -> L2Report:
    """Grid quadratures of int sigma^2 dmu and int sigma^2/(2d-1) dmu, finite
    for any valid spec (d > 1/2 at every point), and no verdict: whether the
    integrals are finite depends on d between the points, which no grid sees."""
    s2 = spec.innovations.sigma2
    d = spec.memory.values
    return L2Report(integral_sigma2=spec.grid.quadrature(s2),
                    integral_weighted=spec.grid.quadrature(s2 / (2.0 * d - 1.0)),
                    min_d_minus_half=spec.memory.d_min - 0.5,
                    min_d_point=float(spec.grid.points[np.argmin(d)]))


# ---------------------------------------------------------------------------
# partial-sum weights
# ---------------------------------------------------------------------------

def _prefix_powers(d: float, m: int) -> np.ndarray:
    """P with P[k] = sum_{i=1}^{k} i^{-d}, k = 0..m."""
    out = np.empty(m + 1)
    out[0] = 0.0
    np.cumsum(np.arange(1, m + 1, dtype=float) ** (-d), out=out[1:])
    return out


def _windowed_weights(d: float, n: int, M: int) -> np.ndarray:
    """z_{n,m} of the window-M model for m = 1-M .. n (vector, oldest first).

    z_{n,m} = sum_{k=max(1,m)}^{min(n, m+M)} (k-m+1)^{-d}
            = P(min(n-m+1, M+1)) - P(max(0, 1-m)).
    """
    P = _prefix_powers(d, M + 1)
    m = np.arange(1 - M, n + 1)
    hi = np.minimum(n - m + 1, M + 1)
    lo = np.maximum(0, 1 - m)
    return P[hi] - P[lo]


def partial_sum_weights(spec: ProcessSpec, n: int,
                        window: int | None = None) -> np.ndarray:
    """Weights z_{n,j} of eps_j in the partial sum S_n(t), a (nu, n + M) array.

    They depend on t only through d(t): rows are the distinct exponents of
    ``spec.memory.distinct``, grid point i reads row ``idx[i]``, and the
    truncated covariance of S_n is ``sigma * (z @ z.T)[np.ix_(idx, idx)]``.
    Columns are j = 1 - M .. n, so j sits in column j + M - 1.  M is
    ``window``, by default the spec's, which the simulator uses, so that the
    independent-summands identity is exact.  The weights coincide with the
    two defining formulas

        z_{n,j} = sum_{k=1}^{n-j+1} k^{-d}          (2 <= j <= n)
        z_{n,j} = sum_{k=1}^{n} (k-j+1)^{-d}        (j < 2)

    wherever the window does not bite.
    """
    if n < 2:
        raise ValueError("coefficient table defined for n >= 2")
    M = spec.window if window is None else window
    return np.stack([_windowed_weights(float(d), n, M) for d in spec.memory.distinct[0]])


# ---------------------------------------------------------------------------
# partial-sum covariances
# ---------------------------------------------------------------------------

def partial_sum_covariance_series(d_s: float, d_t: float, n: int, *,
                                  past_terms: int | None = None) -> tuple[float, float]:
    """Converged (untruncated) E[S_n(s) S_n(t)] at unit sigma, semi-analytically,
    as (value, certified error); scale both by sigma(s, t).

    Writes the covariance through the independent-summands weights,
    sums the first ``past_terms`` past weights exactly via prefix sums,
    and replaces the remainder by its midpoint-rule integral
    int_A^inf F_s(y) F_t(y) dy with F_d(y) = int_y^{y+n} u^{-d} du and
    A = past_terms + 1, summed as a power series in n/A (``_binomial_tail``):

        E[S_n S_n]/sigma = sum_{m=1}^{n-1} P_s(m) P_t(m)
                         + sum_{i>=0} [P_s(n+i)-P_s(i)][P_t(n+i)-P_t(i)].

    The certified error adds the midpoint-rule error, the series' own
    error and roundoff in the prefix sums.  ``past_terms`` defaults to
    max(4096, 8n) and must satisfy n/(past_terms+1) <= 1/4.
    """
    if d_s <= 0.5 or d_t <= 0.5:
        raise ValidationError("series variance requires d_s, d_t > 1/2")
    if n < 1:
        raise ValueError("n must be >= 1")
    J = past_terms if past_terms is not None else max(4096, 8 * n)
    if 4 * n > J + 1:
        raise ValueError(f"past_terms={J} too few for n={n}: the tail series "
                         f"needs n/(past_terms+1) <= 1/4")
    P_s = _prefix_powers(d_s, n + J)
    P_t = P_s if d_t == d_s else _prefix_powers(d_t, n + J)
    head = float(np.dot(P_s[1:n], P_t[1:n])) if n > 1 else 0.0
    w_s = P_s[n:n + J + 1] - P_s[: J + 1]
    w_t = P_t[n:n + J + 1] - P_t[: J + 1]
    mid = float(np.dot(w_s, w_t))
    tail, tail_err = _binomial_tail((1.0 - d_s, 1, n), (1.0 - d_t, 1, n), J + 1.0)
    err = abs(tail) * min(1.0, (n / (J + 0.5)) ** 2) + tail_err + 1e-14 * (head + mid)
    return head + mid + tail, err


# ---------------------------------------------------------------------------
# limit kernel, normalization, bounds
# ---------------------------------------------------------------------------

def _clt_regime(spec: ProcessSpec) -> str:
    if spec.report.regime is None:
        raise RegimeError("CLT not stated for mixed regimes "
                          "(need 1/2 < d(t) < 1 everywhere, or d(t) = 1 everywhere)")
    return spec.report.regime


def limit_kernel(spec: ProcessSpec) -> np.ndarray:
    """Limit covariance K of S_n / b_n at the grid points, as a q x q array.

    Boundary regime: K = sigma.  Long regime: the n^{3-D} coefficient of
    E[S_n(s) S_n(t)], [c(s,t) + c(t,s)] sigma / ((2-D)(3-D)), D = d(s) + d(t).
    """
    regime = _clt_regime(spec)
    sigma = spec.innovations.sigma
    if regime == "boundary":
        K = sigma
    else:
        # sigma is symmetric only to roundoff, so its upper triangle decides
        # both halves
        c = np.empty_like(sigma)
        for d_s, d_t, block in _pair_blocks(spec):
            c[block] = scale_integral_closed_form(d_s, d_t)
        D = spec.memory.values[:, None] + spec.memory.values
        K = np.where(sigma == 0.0, 0.0, (c + c.T) * sigma / ((2.0 - D) * (3.0 - D)))
        K = np.triu(K) + np.triu(K, 1).T
    return (K + K.T) / 2.0


def normalization_plan(spec: ProcessSpec, n: int) -> np.ndarray:
    """Per-point normalizers b_n(t) of the partial sums at horizon n, as a
    q-vector: n^{3/2-d(t)} (long) or sqrt(n) ln n (boundary)."""
    regime = _clt_regime(spec)
    if regime == "boundary":
        if n < 2:
            raise ValueError("boundary normalization sqrt(n) ln n needs n >= 2")
        return np.full(spec.grid.q, math.sqrt(n) * math.log(n))
    return n ** (1.5 - spec.memory.values)
