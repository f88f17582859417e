"""Pointwise covariance routes, kept as independent oracles for the tests.

The library computes covariances as q x q kernels: ``cross_covariance_matrix``
for lag covariances and ``sigma * (z @ z.T)[np.ix_(idx, idx)]``, with
``z = partial_sum_weights(spec, n)`` and ``idx`` of ``spec.memory.distinct``,
for the truncated partial sums.
The routes here resolve one pair of grid points at a time, looked up by
value, and the partial-sum ones sum lag covariances instead of contracting
coefficient tables.  ``window_tail_quad`` is the QUADPACK
route to the tail of the untruncated partial-sum variance series, which the
library sums as a binomial series, and ``scale_integral_quad`` the QUADPACK
route to the scale integral, which the library evaluates on a fixed
tanh-sinh rule.  ``scale_integral_upper_bound`` and
``partial_sums_direct`` are closed-form and direct routes that only the
tests call, and ``dominating_bound`` the integrable bound on the normalized
partial-sum variance that A7 checks.  ``partial_sum_covariance_asymptotic``
is the pointwise form of the library's limit law
``limit_kernel(spec) * np.outer(b, b)``.
``write_table_csv_rows`` writes a table row by row, formatting every field,
where ``io.write_table_csv`` takes columns and formats each distinct value
once.
"""

import functools
import math
import re
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from longmem.analytics import (RegimeError, _check_scale_regime, _lag_series,
                               _windowed_weights, partial_sum_covariance_series,
                               scale_integral_closed_form)
from longmem.io import FLOAT_FMT

QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)

# route (a) / route (b) internal consistency tolerance for the partial-sum
# covariance, and the work budget n*M above which that cross-check is skipped
CROSS_CHECK_RTOL = 1e-9
CROSS_CHECK_BUDGET = 2 ** 24


def _grid_index(spec, s: float) -> int:
    hits = np.nonzero(np.isclose(spec.grid.points, s, rtol=0.0, atol=1e-12))[0]
    if len(hits) != 1:
        raise ValueError(f"{s!r} is not a grid point of this spec")
    return int(hits[0])


def cross_covariance_exact(spec, s: float, t: float, h: int) -> tuple[float, float]:
    """E[X_0(s) X_h(t)] = sigma(s,t) sum_{j>=0} (j+1)^{-d(s)} (j+h+1)^{-d(t)},
    as (value, certified error bound).

    The pointwise form of ``cross_covariance_matrix``, by the same
    arithmetic, so the two agree bit for bit.
    """
    if h < 0:
        raise ValueError("lag h must be nonnegative")
    i, j = _grid_index(spec, s), _grid_index(spec, t)
    sig = float(spec.innovations.sigma[i, j])
    if sig == 0.0:
        return 0.0, 0.0
    d = spec.memory.values
    value, err, partial = _lag_series(float(d[i]), float(d[j]), h)
    return sig * value, abs(sig) * err + 1e-15 * abs(sig) * partial


def partial_sum_covariance_lagsum(spec, n: int, s: float, t: float,
                                  window: int | None = None) -> float:
    """Route (a): E[S_n(s) S_n(t)] = n r(0) + sum_{h=1}^{n-1} (n-h)[r_st(h) + r_ts(h)].

    Lag covariances r are those of the window-M truncated model, so the
    value agrees exactly with the coefficient-table route on the shared
    window.
    """
    i, j = _grid_index(spec, s), _grid_index(spec, t)
    sig = float(spec.innovations.sigma[i, j])
    if sig == 0.0:
        return 0.0
    d_s, d_t = float(spec.memory.values[i]), float(spec.memory.values[j])
    M = spec.window if window is None else window
    k = np.arange(M + 1, dtype=float)
    c_s = (k + 1.0) ** (-d_s)
    c_t = (k + 1.0) ** (-d_t)
    r0 = float(np.dot(c_s, c_t))
    total = n * r0
    for h in range(1, n):
        if h > M:
            break
        r_st = float(np.dot(c_s[: M - h + 1], c_t[h:]))
        r_ts = float(np.dot(c_t[: M - h + 1], c_s[h:]))
        total += (n - h) * (r_st + r_ts)
    return sig * total


def partial_sum_covariance_exact(spec, n: int, s: float, t: float,
                                 window: int | None = None) -> float:
    """E[S_n(s) S_n(t)] of the window-M truncated model (M = ``window``,
    by default the spec's), computed two independent ways.

    Route (b), sigma(s,t) sum_j z_{n,j}(s) z_{n,j}(t), is returned; route
    (a), the triple-sum over lag covariances, is recomputed as a
    consistency check whenever n * window is small enough to be cheap.
    A disagreement beyond 1e-9 relative is an internal error and aborts.
    At n = 1 the two routes coincide and route (a) is returned.
    """
    if n == 1:
        return partial_sum_covariance_lagsum(spec, 1, s, t, window=window)
    i, j = _grid_index(spec, s), _grid_index(spec, t)
    sig = float(spec.innovations.sigma[i, j])
    M = spec.window if window is None else window
    d = spec.memory.values
    vb = sig * float(np.dot(_windowed_weights(float(d[i]), n, M),
                            _windowed_weights(float(d[j]), n, M)))
    if n * M <= CROSS_CHECK_BUDGET:
        va = partial_sum_covariance_lagsum(spec, n, s, t, window=M)
        scale = max(abs(va), abs(vb), 1e-300)
        if abs(va - vb) > CROSS_CHECK_RTOL * scale:
            raise RuntimeError(
                f"partial-sum covariance routes disagree: lag-sum {va!r} vs "
                f"coefficient route {vb!r} (relative {abs(va - vb) / scale:.3e}); "
                f"this indicates an implementation bug")
    return vb


def window_tail_quad(d_s: float, d_t: float, n: int, A: float) -> tuple[float, float]:
    """int_A^inf F_s(y) F_t(y) dy, F_d(y) = int_y^{y+n} u^{-d} du, by QUADPACK.

    F_d is taken in closed form, so it cancels for y >> n, and QUADPACK's
    estimate is not a bound: it is a fair oracle only where the integrand
    decays fast, d_s + d_t >= 1.4.  Returns (value, QUADPACK's estimate).
    """
    def window(d):
        if d == 1.0:
            return lambda y: np.log((y + n) / y)
        return lambda y: ((y + n) ** (1.0 - d) - y ** (1.0 - d)) / (1.0 - d)

    f_s, f_t = window(d_s), window(d_t)
    with warnings.catch_warnings():
        # tolerances tighter than roundoff on near-zero tails are reported
        # as non-convergence; the returned estimate is still usable
        warnings.simplefilter("ignore", IntegrationWarning)
        # the tail mapped to (0, 1] via y = A/u
        return quad(lambda u: f_s(A / u) * f_t(A / u) * A / (u * u), 0.0, 1.0, **QUAD_OPTS)


def scale_integral_quad(d_s: float, d_t: float) -> float:
    """int_0^inf x^{-d_s} (x+1)^{-d_t} dx by adaptive quadrature.

    The integrand has a power singularity at 0 and a slow power tail, so
    each half is transformed to a smooth integrand on [0, 1] first:

    * on [0, 1], substitute x = u^{1/(1-d_s)};
    * on [1, inf), substitute x = 1/v followed by v = w^{1/a} with
      a = d_s + d_t - 1.
    """
    _check_scale_regime(d_s, d_t)
    p = 1.0 - d_s
    head, _ = quad(lambda u: (1.0 + u ** (1.0 / p)) ** (-d_t), 0.0, 1.0, **QUAD_OPTS)
    a = d_s + d_t - 1.0
    tail, _ = quad(lambda w: (1.0 + w ** (1.0 / a)) ** (-d_t), 0.0, 1.0, **QUAD_OPTS)
    return head / p + tail / a


def scale_integral_upper_bound(d: float) -> float:
    """Splitting bound c(d, d) <= 1/(1-d) + 1/(2d-1) for 1/2 < d < 1."""
    if not (0.5 < d < 1.0):
        raise RegimeError(f"upper bound stated for 1/2 < d < 1; got d={d:g}")
    return 1.0 / (1.0 - d) + 1.0 / (2.0 * d - 1.0)


@functools.lru_cache(maxsize=1)
def _boundary_variance_constant() -> float:
    """Empirical sup over n of Var(S_n)/(sigma^2 n ln^2 n) at d = 1, times 1.05.

    The boundary dominating bound is stated with an unspecified positive
    constant; the normalized variance sequence is largest at small n, so
    the supremum over a dense-then-dyadic ladder is a faithful stand-in.
    """
    ns = list(range(2, 65)) + [2 ** k for k in range(7, 17)]
    sup = max(partial_sum_covariance_series(1.0, 1.0, n)[0] / (n * math.log(n) ** 2)
              for n in ns)
    return 1.05 * sup


def dominating_bound(d: float, sigma2: float) -> float:
    """Integrable bound dominating Var(S_n(t))/b_n(t)^2 for every n >= 1.

    Power regime: sigma^2 [1 + 1/(2d-1)] + sigma^2 c(d,d)/((1-d)(3-2d)).
    Boundary regime (d = 1): C sigma^2 with the empirical constant.
    """
    if sigma2 == 0.0:
        return 0.0
    if d == 1.0:
        return _boundary_variance_constant() * sigma2
    if 0.5 < d < 1.0:
        c = scale_integral_closed_form(d, d)
        return sigma2 * (1.0 + 1.0 / (2.0 * d - 1.0)) \
            + sigma2 * c / ((1.0 - d) * (3.0 - 2.0 * d))
    raise RegimeError(f"dominating bound stated for 1/2 < d < 1 or d = 1; got d={d:g}")


def partial_sums_direct(values: np.ndarray) -> np.ndarray:
    """S_n(t_i) = sum_{k=1}^n X_k(t_i), summed over the (n, q) paths."""
    return values.sum(axis=0)


def partial_sum_covariance_asymptotic(d_s: float, d_t: float, sigma_st: float,
                                      n: int) -> float:
    """Leading-order E[S_n(s) S_n(t)] in the two covered regimes.

    Power regime (both exponents in (1/2, 1)):
    [c(s,t)+c(t,s)] sigma / ((2-D)(3-D)) * n^{3-D} with D = d_s + d_t.
    Boundary regime (both equal 1): sigma n ln^2 n.
    """
    if d_s == 1.0 and d_t == 1.0:
        return sigma_st * n * math.log(n) ** 2
    if 0.5 < d_s < 1.0 and 0.5 < d_t < 1.0:
        D = d_s + d_t
        c_sum = scale_integral_closed_form(d_s, d_t) + scale_integral_closed_form(d_t, d_s)
        return c_sum * sigma_st / ((2.0 - D) * (3.0 - D)) * n ** (3.0 - D)
    raise RegimeError(f"partial-sum asymptotics stated only for both exponents in "
                      f"(1/2, 1) or both equal to 1 (d_s={d_s:g}, d_t={d_t:g})")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def write_table_csv_rows(path: Path, header, rows) -> None:
    """Generic table: header list plus iterable of row tuples.

    Python floats are written with FLOAT_FMT and other fields with ``str``;
    a text field holding a comma, a quote or a line break is quoted as in
    RFC 4180, so every row has the header's width.
    """
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([FLOAT_FMT % v if type(v) is float
                               else '"' + v.replace('"', '""') + '"'
                               if type(v) is str and _NEEDS_QUOTES.search(v)
                               else str(v) for v in row]) + "\n")
