"""Monte Carlo and deterministic verification of the central limit theorem.

The empirical covariance of normalized partial sums is compared against
the exact finite-n covariance of the same (truncated) model — a bias-free
target — while the deterministic distance between the finite-n covariance
and the limit kernel is reported separately as the convergence gap.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ProcessSpec, ValidationError
from .analytics import (
    LimitKernel,
    limit_kernel,
    normalization_plan,
    partial_sum_covariance_series,
    partial_sum_weights,
)
from .simulate import _replication_sampler

DEFAULT_Z_STAR = 4.0
BATCH_COUNT = 50  # batch-means shards for non-Gaussian standard errors
MIN_NORMALITY_N = 500  # replications the normality bands are stated for


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Empirical vs. exact finite-n vs. limit covariance, with verdicts."""

    n: int
    replications: int
    empirical: np.ndarray
    finite_n_exact: np.ndarray
    limit: LimitKernel
    se: np.ndarray
    verdicts: np.ndarray   # bool per entry: |empirical - finite_n_exact| <= z* se
    gap_rel: np.ndarray    # |finite_n_exact - limit| / |limit| (0 where limit = 0)
    samples: np.ndarray    # (N, q) normalized partial sums
    seed: int
    z_star: float
    window: int            # truncation length M of the target's model
    truncation_tail_var: np.ndarray  # tail_var / b**2: certified truncation loss per point
    innovations_drawn: int  # innovation rows drawn over all replications

    @property
    def passed(self) -> bool:
        return bool(np.all(self.verdicts))

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gap_rel))


def _require_nondegenerate(spec: ProcessSpec) -> None:
    """Refuse grid points with zero innovation variance: S_n is identically 0
    there, and a degenerate marginal has no Gaussian-marginal verdict."""
    zero = spec.innovations.sigma2 == 0.0
    if np.any(zero):
        where = ", ".join(f"t={t:g}" for t in spec.grid.points[zero])
        raise ValidationError(f"zero innovation variance at {where}: the partial "
                              f"sums there are identically 0, so no CLT verdict exists")


def _pool_size(shards: int) -> int:
    """Worker threads for ``shards`` shards: one each, capped at the core count."""
    return min(shards, os.cpu_count() or 1)


def run_clt_experiment(spec: ProcessSpec, n: int, N: int, seed: int,
                       z_star: float = DEFAULT_Z_STAR,
                       shards: int = 1) -> CovarianceReport:
    """Simulate N normalized partial-sum vectors and compare covariances.

    Replications are addressed by absolute index and the covariance is
    reduced once over the index-ordered samples, so splitting them into
    shards (run on at most ``os.cpu_count()`` threads) changes no bit of the
    result.
    """
    if N < 100:
        raise ValueError("N must be >= 100")
    if shards < 1:
        raise ValueError(f"shards must be at least 1; got {shards}")
    if not 0.0 < z_star < math.inf:
        raise ValueError(f"z_star must be positive and finite; got {z_star}")
    spec.require_valid()
    _require_nondegenerate(spec)
    plan = normalization_plan(spec, n)   # raises RegimeError on mixed regimes
    kern = limit_kernel(spec)
    table = partial_sum_weights(spec, n)
    b = plan.b
    sigma = np.asarray(spec.innovations.sigma)

    finite = sigma * (table.z @ table.z.T) / np.outer(b, b)

    sample, rows = _replication_sampler(spec, table, seed)
    shards = min(int(shards), N)
    bounds = [(N * s) // shards for s in range(shards + 1)]
    if shards == 1:
        sums = sample(0, N)
    else:
        with ThreadPoolExecutor(max_workers=_pool_size(shards)) as pool:
            futures = [pool.submit(sample, bounds[s], bounds[s + 1] - bounds[s])
                       for s in range(shards)]
            sums = np.concatenate([f.result() for f in futures], axis=0)
    samples = sums / b
    empirical = samples.T @ samples / N

    if spec.innovations.law == "gaussian":
        se = np.sqrt((np.outer(np.diag(finite), np.diag(finite)) + finite ** 2) / N)
    else:
        batches = np.array_split(samples, BATCH_COUNT, axis=0)
        batch_cov = np.array([bt.T @ bt / len(bt) for bt in batches])
        se = batch_cov.std(axis=0, ddof=1) / math.sqrt(len(batches))

    verdicts = np.abs(empirical - finite) <= z_star * se
    denom = np.where(np.abs(kern.K) > 0, np.abs(kern.K), 1.0)
    gap_rel = np.abs(finite - kern.K) / denom
    return CovarianceReport(n=int(n), replications=int(N), empirical=empirical,
                            finite_n_exact=finite, limit=kern, se=se,
                            verdicts=verdicts, gap_rel=gap_rel, samples=samples,
                            seed=int(seed), z_star=float(z_star), window=table.window,
                            truncation_tail_var=table.tail_var / b ** 2,
                            innovations_drawn=N * rows)


@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Per-coordinate Gaussianity diagnostics of a sample matrix."""

    n_samples: int
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    ks_distance: np.ndarray
    skew_band: float
    kurt_band: float

    @property
    def skew_ok(self) -> np.ndarray:
        return np.abs(self.skewness) <= self.skew_band

    @property
    def kurt_ok(self) -> np.ndarray:
        return np.abs(self.excess_kurtosis) <= self.kurt_band

    @property
    def passed(self) -> bool:
        return bool(np.all(self.skew_ok) and np.all(self.kurt_ok))


def normality_diagnostics(samples: np.ndarray, variances=None,
                          skew_z: float = 4.0,
                          kurt_z: float = 4.0) -> NormalityReport:
    """Sample skewness, excess kurtosis, and a KS distance per coordinate.

    Bands are Monte Carlo: +-skew_z sqrt(6/N) and +-kurt_z sqrt(24/N).
    The KS distance is taken against the zero-mean normal with the exact
    finite-n variance when ``variances`` is given, else the sample variance.
    The statistics follow the arithmetic of ``scipy.stats.skew``,
    ``kurtosis`` and ``kstest`` (biased moments; NaN where the second moment
    vanishes against the mean), which the tests hold them to bit for bit.
    """
    from scipy.special import ndtr   # loaded on first use: `import longmem` stays light

    samples = np.asarray(samples, dtype=float)
    N, _ = samples.shape
    if N < MIN_NORMALITY_N:
        raise ValueError(f"normality diagnostics need N >= {MIN_NORMALITY_N}; got N={N}")
    if variances is None:
        variances = samples.var(axis=0, ddof=1)
    variances = np.asarray(variances, dtype=float)

    # two (N, q) buffers at a time: the moments reuse dev and s2 in place,
    # the KS distance sorts into one buffer and takes both gaps in another
    mean = samples.mean(axis=0, keepdims=True)
    dev = samples - mean
    s2 = np.square(dev)
    m2 = s2.mean(axis=0)
    dev *= s2
    m3 = dev.mean(axis=0)
    np.square(s2, out=s2)
    m4 = s2.mean(axis=0)
    del dev, s2
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(float).eps * mean[0]) ** 2
        skew = np.where(zero, np.nan, m3 / m2 ** 1.5)
        kurt = np.where(zero, np.nan, m4 / m2 ** 2.0) - 3

        # KS distance: the largest gap between the empirical CDF and F
        scale = np.sqrt(variances)
        cdf = np.sort(samples, axis=0)
        cdf /= scale
        ndtr(cdf, out=cdf)
    np.copyto(cdf, np.nan, where=~(scale > 0))
    gap = np.subtract((np.arange(1.0, N + 1) / N)[:, None], cdf)
    upper = gap.max(axis=0)
    np.subtract(cdf, (np.arange(0.0, N) / N)[:, None], out=gap)
    ks = np.maximum(upper, gap.max(axis=0))
    return NormalityReport(n_samples=int(N), skewness=skew, excess_kurtosis=kurt,
                           ks_distance=ks,
                           skew_band=skew_z * math.sqrt(6.0 / N),
                           kurt_band=kurt_z * math.sqrt(24.0 / N))


@dataclass(frozen=True, eq=False)
class ExponentFit:
    """Log-log fit of the exact variance growth of the partial sums."""

    n_list: tuple
    slopes: np.ndarray
    theoretical: np.ndarray
    corrected: np.ndarray    # True where the ln^2-corrected model was fitted (d = 1)
    max_residual: np.ndarray

    @property
    def deviations(self) -> np.ndarray:
        return np.abs(self.slopes - self.theoretical)


def fit_variance_exponent(spec: ProcessSpec, n_list) -> ExponentFit:
    """Least-squares slope of log Var(S_n) vs. log n per grid point.

    Variances are exact (semi-analytic series), so the fit carries no
    Monte Carlo noise.  Boundary points (d = 1) are fitted with the
    ln^2 n correction divided out; their theoretical slope is 3 - 2d = 1.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 5:
        raise ValueError("need at least 5 horizons")
    if any(n < 2 or (n & (n - 1)) for n in n_list):
        raise ValueError("horizons must be dyadic (powers of two, >= 2)")
    spec.require_valid()
    _require_nondegenerate(spec)
    log_n = np.log(n_list)
    q = spec.grid.q
    slopes = np.empty(q)
    max_resid = np.empty(q)
    corrected = np.zeros(q, dtype=bool)
    u, idx = spec.memory.distinct
    # Var(S_n) at sigma2 = 1 per distinct exponent
    unit_var = [np.array([partial_sum_covariance_series(float(d), float(d), 1.0, n).value
                          for n in n_list]) for d in u]
    for i in range(q):
        d = float(spec.memory.values[i])
        y = np.log(unit_var[idx[i]] * float(spec.innovations.sigma2[i]))
        if d == 1.0:
            corrected[i] = True
            y = y - 2.0 * np.log(np.log(n_list))
        coef = np.polyfit(log_n, y, 1)
        slopes[i] = coef[0]
        max_resid[i] = float(np.max(np.abs(y - np.polyval(coef, log_n))))
    return ExponentFit(n_list=tuple(n_list), slopes=slopes,
                       theoretical=3.0 - 2.0 * spec.memory.values.copy(),
                       corrected=corrected, max_residual=max_resid)
