"""Monte Carlo and deterministic verification of the central limit theorem.

The empirical covariance of normalized partial sums is compared against
the exact finite-n covariance of the same (truncated) model — a bias-free
target — while the deterministic distance between the finite-n covariance
and the limit kernel is reported separately as the convergence gap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .model import ProcessSpec, ValidationError, _unit
from .analytics import (
    _clt_regime,
    limit_kernel,
    normalization_plan,
    partial_sum_covariance_series,
    partial_sum_weights,
)
from .simulate import (_draw_plan, _excess_kurtosis, _replication_sampler,
                       _require_memory, _words_per_index)

DEFAULT_Z_STAR = 4.0
MIN_NORMALITY_N = 500  # replications the normality bands are stated for
ROW_BLOCK_WORDS = 1 << 13  # sample words the normality statistics stream per block

_SQRTH = 7.07106781186547524401e-1   # sqrt(1/2)


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Empirical vs. exact finite-n vs. limit covariance, with verdicts."""

    regime: str            # "long" or "boundary"
    empirical: np.ndarray
    finite_n_exact: np.ndarray
    limit: np.ndarray      # limit kernel K
    se: np.ndarray
    verdicts: np.ndarray   # bool per entry: |empirical - finite_n_exact| <= z* se
    gap_rel: np.ndarray    # |finite_n_exact - limit| / |limit| (0 where limit = 0)
    samples: np.ndarray    # (N, q) normalized partial sums
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
    result.  It runs on sigma in its unit 4^k (``model._unit``), so 4^j sigma
    gets the same verdicts.  Refused (``ValidationError``) before allocating:
    samples, coefficient table and draw buffers beyond physical memory; before
    any draw: targets or standard errors beyond the float range.
    """
    if N < 100:
        raise ValidationError("N must be >= 100")
    if n < 2:
        raise ValidationError(f"n must be >= 2; got {n}")
    if shards < 1:
        raise ValidationError(f"shards must be at least 1; got {shards}")
    if not 0.0 < z_star < math.inf:
        raise ValidationError(f"z_star must be positive and finite; got {z_star}")
    _require_nondegenerate(spec)
    regime = _clt_regime(spec)   # raises RegimeError on mixed regimes
    model, k = spec.innovations, _unit(spec.innovations.sigma)
    if k:
        # an entry the unit makes subnormal reads 0: it moves by under 1e-307
        # of the largest variance, which the unit puts at 0.5 or more
        sigma = np.ldexp(model.sigma, -2 * k)
        sigma[np.abs(sigma) < np.finfo(float).tiny] = 0.0
        model = replace(model, sigma=sigma)
        spec = replace(spec, innovations=model)
    shards = min(int(shards), N)
    _, rows, block = _draw_plan(model, n, spec.window)
    _require_memory({
        "samples": N * spec.q * 8,
        "coefficient table": len(spec.memory.distinct[0]) * (n + spec.window) * 8,
        "draw buffers": (_pool_size(shards) * min(block, N) * rows
                         * _words_per_index(spec.q) * 8)})
    b = normalization_plan(spec, n)
    z = partial_sum_weights(spec, n)
    u, idx = spec.memory.distinct   # the rows of z are the distinct exponents u
    pair = np.ix_(idx, idx)

    # Var(S_i S_j) = C_ii C_jj + C_ij^2 + the fourth cumulant of draws of
    # excess kurtosis kappa through the factor F: kappa [(F o F)(F o F)^T]_ij
    # sum_m z_im^2 z_jm^2 / (b_i b_j)^2, the sum once per distinct exponent.
    # It reads no sample, so a sigma whose results leave the float range, in
    # its unit or in its own units, is refused before any draw
    z2 = np.square(z)
    f2 = np.square(model.factor)
    kappa = _excess_kurtosis(model.law, model.pareto_alpha)
    with np.errstate(all="ignore"):
        K = limit_kernel(spec)
        finite = model.sigma * (z @ z.T)[pair] / np.outer(b, b)
        se = np.sqrt((np.outer(np.diag(finite), np.diag(finite)) + finite ** 2
                      + kappa * (f2 @ f2.T) * (z2 @ z2.T)[pair] / np.outer(b, b) ** 2) / N)
        scaled = [np.ldexp(a, 2 * k) for a in (finite, K, se)]
    in_unit = np.isfinite(finite) & np.isfinite(K) & (se > 0.0) & (se < math.inf)
    bad = np.argwhere(~(in_unit & np.all(np.isfinite(scaled), axis=0)))
    if len(bad):
        (i, j), pts = bad[0], spec.grid.points
        raise ValidationError(
            f"at (s, t) = ({pts[i]:g}, {pts[j]:g}), in sigma's unit 4^{k}, the finite-n "
            f"covariance is {finite[i, j]:g}, the limit {K[i, j]:g} and the standard error "
            f"{se[i, j]:g}: " + ("not finite in sigma's units" if in_unit[i, j] else
                                "sigma's variances span more than the float range"))

    # the shards write the partial sums into one array, normalized in place:
    # the (N, q) samples are the run's only N-sized array
    sample = _replication_sampler(spec, z, seed)
    samples = np.empty((N, spec.q))
    bounds = [(N * s) // shards for s in range(shards + 1)]
    if shards == 1:
        sample(0, N, samples)
    else:
        # loaded on first use: concurrent.futures brings in logging, which a
        # serial run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=_pool_size(shards)) as pool:
            futures = [pool.submit(sample, lo, hi - lo, samples[lo:hi])
                       for lo, hi in zip(bounds, bounds[1:])]
            for f in futures:
                f.result()
    samples /= b
    empirical = samples.T @ samples / N

    verdicts = np.abs(empirical - finite) <= z_star * se
    gap_rel = np.abs(finite - K) / np.where(np.abs(K) > 0, np.abs(K), 1.0)
    # certified truncation loss per exponent: untruncated series + bound - sum z^2
    tail_var = np.array([sum(partial_sum_covariance_series(float(d), float(d), n))
                         for d in u]) - np.sum(z2, axis=1)
    with np.errstate(over="ignore"):   # a non-finite empirical entry is the caller's
        return CovarianceReport(
            regime=regime, empirical=np.ldexp(empirical, 2 * k), finite_n_exact=scaled[0],
            limit=scaled[1], se=scaled[2], verdicts=verdicts, gap_rel=gap_rel,
            samples=np.ldexp(samples, k, out=samples),
            truncation_tail_var=np.ldexp(model.sigma2 * tail_var[idx] / b ** 2, 2 * k),
            innovations_drawn=N * rows)


@dataclass(frozen=True, eq=False)
class NormalityReport:
    """Per-coordinate Gaussianity diagnostics of a sample matrix."""

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


def normality_diagnostics(samples: np.ndarray, variances,
                          skew_z: float = 4.0,
                          kurt_z: float = 4.0) -> NormalityReport:
    """Sample skewness, excess kurtosis, and a KS distance per coordinate.

    Bands are Monte Carlo: +-skew_z sqrt(6/N) and +-kurt_z sqrt(24/N).
    The KS distance is taken against the zero-mean normal of the given
    ``variances``, finite and non-negative (the exact finite-n ones, for a
    CLT run); it is NaN where a variance is 0.  The statistics follow the arithmetic of ``scipy.stats.skew``, ``kurtosis`` and
    ``kstest`` (biased moments; NaN where the second moment vanishes against
    the mean).  The tests hold the moments to them bit for bit, and the KS
    distance, whose normal CDF is libm's ``erfc``, to within 4 eps.
    """
    samples = np.asarray(samples, dtype=float)
    N, q = samples.shape
    if N < MIN_NORMALITY_N:
        raise ValidationError(f"normality diagnostics need N >= {MIN_NORMALITY_N}; got N={N}")
    variances = np.asarray(variances, dtype=float)   # None reads as NaN
    usable = (variances >= 0.0) & (variances < math.inf)
    if variances.shape not in ((), (q,)) or not np.all(usable):
        raise ValidationError(f"variances must be a finite, non-negative scalar or {q}-vector")

    # the central moment sums, streamed in blocks.  x - mean keeps the stride
    # order of x.  numpy sums axis 0 of a row-major array with q > 1 (C order,
    # or a view whose rows lie farther apart than its columns) row after row,
    # so a row block whose first row takes the running sums continues that
    # order bit for bit.  It sums a column pairwise, so any other array
    # streams one column at a time
    if q > 1 and abs(samples.strides[0]) >= abs(samples.strides[1]):
        step = max(1, ROW_BLOCK_WORDS // q)
        blocks = [np.s_[lo:lo + step, :] for lo in range(0, N, step)]
    else:
        blocks = [np.s_[:, j:j + 1] for j in range(q)]
    mean = samples.mean(axis=0)
    sums = np.zeros((3, q))
    for rows, cols in blocks:
        _add_moment_sums(samples[rows, cols], mean[cols], sums[:, cols])
    m2, m3, m4 = sums / N
    variances = np.broadcast_to(variances, (q,))
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(float).eps * mean) ** 2
        skew = np.where(zero, np.nan, m3 / m2 ** 1.5)
        kurt = np.where(zero, np.nan, m4 / m2 ** 2.0) - 3
        scale = np.sqrt(variances)

    # KS distance: the largest gap between the empirical CDF and F, one
    # sorted column at a time
    ks = np.full(q, np.nan)
    cdf = np.empty(N)
    for j in np.flatnonzero(scale > 0):
        np.copyto(cdf, samples[:, j])
        cdf.sort()
        cdf /= scale[j]
        ks[j] = _ks_distance(cdf)
    return NormalityReport(skewness=skew, excess_kurtosis=kurt,
                           ks_distance=ks,
                           skew_band=skew_z * math.sqrt(6.0 / N),
                           kurt_band=kurt_z * math.sqrt(24.0 / N))


def _add_moment_sums(x: np.ndarray, mean: np.ndarray, sums: np.ndarray) -> None:
    """Add the column sums of (x - mean)^2, ^3 and ^4 over the rows ``x`` to
    ``sums``, a (3, q) array, in place."""
    dev = x - mean
    s2 = np.square(dev)
    dev *= s2
    _add_rows(dev, sums[1])
    np.square(s2, out=dev)
    _add_rows(dev, sums[2])
    _add_rows(s2, sums[0])


def _add_rows(block: np.ndarray, total: np.ndarray) -> None:
    """Add the rows of ``block`` to ``total`` in place, in the order of one
    axis-0 sum over every row so far: the total enters as the first row."""
    block[0] += total
    block.sum(axis=0, out=total)


def _ks_distance(cdf: np.ndarray) -> float:
    """max over i of (i+1)/N - F(z_i) and F(z_i) - i/N for the sorted
    standardized samples z = ``cdf``, which are overwritten by their normal
    CDF values F(z) = erfc(-z/sqrt 2)/2; F and the ramps i/N are built a
    block at a time.  ``erfc`` is libm's, by ``math.erfc``: numpy has none."""
    N = len(cdf)
    gaps = []
    for lo in range(0, N, ROW_BLOCK_WORDS):
        c = cdf[lo:lo + ROW_BLOCK_WORDS]
        a = np.multiply(c, -_SQRTH)
        c[:] = np.fromiter(map(math.erfc, a.tolist()), float, count=len(a))
        c *= 0.5
        ramp = np.arange(lo, lo + len(c) + 1.0) / N
        gaps += [np.max(ramp[1:] - c), np.max(c - ramp[:-1])]
    return np.max(gaps)


@dataclass(frozen=True, eq=False)
class ExponentFit:
    """Log-log fit of the exact variance growth of the partial sums."""

    slopes: np.ndarray
    theoretical: np.ndarray
    corrected: np.ndarray    # True where the ln^2-corrected model was fitted (d = 1)
    max_residual: np.ndarray


def fit_variance_exponent(spec: ProcessSpec, n_list) -> ExponentFit:
    """Least-squares slope of log Var(S_n) vs. log n per grid point.

    Variances are exact (semi-analytic series), so the fit carries no
    Monte Carlo noise.  Boundary points (d = 1) are fitted with the
    ln^2 n correction divided out; their theoretical slope is 3 - 2d = 1.
    """
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 5:
        raise ValidationError(f"need at least 5 distinct horizons; got {sorted(set(n_list))}")
    if any(n < 2 or (n & (n - 1)) for n in n_list):
        raise ValidationError("horizons must be dyadic (powers of two, >= 2)")
    _require_nondegenerate(spec)
    log_n = np.log(n_list)
    u, idx = spec.memory.distinct
    slopes, max_resid = np.empty(len(u)), np.empty(len(u))
    # sigma2 adds a constant to log Var(S_n), so the fit at sigma2 = 1 serves
    # every grid point of an exponent
    for k, d in enumerate(u):
        y = np.log([partial_sum_covariance_series(float(d), float(d), n)[0]
                    for n in n_list])
        if d == 1.0:
            y = y - 2.0 * np.log(np.log(n_list))
        coef = np.polyfit(log_n, y, 1)
        slopes[k] = coef[0]
        max_resid[k] = np.max(np.abs(y - np.polyval(coef, log_n)))
    return ExponentFit(slopes=slopes[idx], theoretical=3.0 - 2.0 * spec.memory.values,
                       corrected=spec.memory.values == 1.0, max_residual=max_resid[idx])
