"""Output checks for the benchmark's operations.

Each check reads what one CLI run wrote and verifies it by a route other than
the one being timed.  It returns the number of work units it verified, or
raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import zeta

C_MATRIX_RTOL = 1e-10      # quadrature vs. closed form (acceptance A2)
PATH_SUM_RTOL = 1e-12      # direct vs. coefficient-table partial sums (A5)
# the reference series below agrees with a 30-digit evaluation to 1.8e-16
# relative; the exact value must lie within its certified bound of it, up to
# that rounding
REFERENCE_RTOL = 1e-15
HEAD_TERMS = 1 << 16
# verify-clt's own verdict uses 4-sigma bands, which a correct sampler fails
# about 1% of the time at N=500.  The check below uses bands wide enough that
# a correct sampler essentially never fails them: a 6-sigma excess of a
# sample variance at N=500 has probability 3e-8 (chi-square tail), and of
# 200,000 simulated Gaussian coordinates at N=500 none passed 6 sigma in
# skewness and one passed 8 sigma in excess kurtosis, whose sampling
# distribution has a long right tail at that N.
CLT_COV_Z = 6.0
CLT_SKEW_Z = 6.0
CLT_KURT_Z = 8.0


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def series_reference(d_s: float, d_t: float, h: int) -> float:
    """sum_{j>=0} (j+1)^{-d_s} (j+h+1)^{-d_t}, by a route the CLI does not use.

    The first HEAD_TERMS terms are summed exactly rounded (math.fsum); the
    tail expands (j+1+h)^{-d_t} binomially in h/(j+1), which turns it into a
    series of Hurwitz zeta values zeta(d_s+d_t+k, HEAD_TERMS+1).
    """
    j = np.arange(HEAD_TERMS, dtype=float)
    head = math.fsum((j + 1.0) ** (-d_s) * (j + h + 1.0) ** (-d_t))
    tail, coef = 0.0, 1.0
    for k in range(64):
        term = coef * float(h) ** k * float(zeta(d_s + d_t + k, HEAD_TERMS + 1.0))
        tail += term
        if abs(term) <= 1e-18 * (head + abs(tail)):
            break
        coef *= -(d_t + k) / (k + 1)
    else:
        raise CheckFailed(f"reference tail did not converge for {(d_s, d_t, h)}")
    return head + tail


def check_analyze(spec, out: Path, references: dict) -> int:
    """c_matrix within A2's 1e-10 and every exact covariance within its bound.

    ``references`` caches the series per distinct (d_s, d_t, h) across calls.
    """
    q = spec.grid.q
    c_rows = _rows(out / "c_matrix.csv")
    if len(c_rows) != q * q:
        raise CheckFailed(f"c_matrix.csv has {len(c_rows)} rows, expected {q * q}")
    for r in c_rows:
        if r["relative_delta"] and not float(r["relative_delta"]) <= C_MATRIX_RTOL:
            raise CheckFailed(f"c_matrix relative_delta {r['relative_delta']} "
                              f"at ({r['s']}, {r['t']})")
    index = {float(p): i for i, p in enumerate(spec.grid.points)}
    d = spec.memory.values
    sigma = spec.innovations.sigma
    cov_rows = _rows(out / "covariances.csv")
    lags = {int(r["h"]) for r in cov_rows}
    if len(cov_rows) != q * q * len(lags):
        raise CheckFailed(f"covariances.csv has {len(cov_rows)} rows, "
                          f"expected {q * q * len(lags)}")
    for r in cov_rows:
        i, j, h = index[float(r["s"])], index[float(r["t"])], int(r["h"])
        key = (float(d[i]), float(d[j]), h)
        if key not in references:
            references[key] = series_reference(*key)
        ref = float(sigma[i, j]) * references[key]
        exact, bound = float(r["exact"]), float(r["exact_error_bound"])
        if not abs(exact - ref) <= bound + REFERENCE_RTOL * abs(ref):
            raise CheckFailed(f"exact covariance {exact!r} at ({r['s']}, {r['t']}, h={h}) "
                              f"is {abs(exact - ref):.3g} from the reference, "
                              f"bound {bound:.3g}")
    return len(cov_rows)


def check_simulate(longmem, spec, n: int, seed: int, out: Path) -> int:
    """Column sums of paths.csv against the coefficient-table partial sums."""
    with (out / "paths.csv").open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    q = spec.grid.q
    if len(header) != q + 1 or values.shape != (n, q + 1):
        raise CheckFailed(f"paths.csv is {values.shape}, expected ({n}, {q + 1})")
    if not np.array_equal(values[:, 0], np.arange(1, n + 1)):
        raise CheckFailed("paths.csv time index is not 1..n")
    direct = values[:, 1:].sum(axis=0)
    via_z = longmem.partial_sums_via_z(spec, n, seed)
    scale = max(float(np.max(np.abs(via_z))), 1e-300)
    rel = float(np.max(np.abs(direct - via_z))) / scale
    if not rel <= PATH_SUM_RTOL:
        raise CheckFailed(f"paths.csv column sums differ from partial_sums_via_z "
                          f"by {rel:.3g} relative")
    return n * q


def _matrix(path: Path) -> np.ndarray:
    """Square CSV written by io.write_matrix_csv, without its label row/column."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in r[1:]] for r in rows])


def check_clt(spec, N: int, returncode: int, out: Path) -> bool:
    """verify-clt outputs agree with each other, with the exit code and with
    the model.

    Recomputes, from the written matrices, the Gaussian standard errors, each
    covariance verdict and each normality flag, and the summary booleans
    derived from them.  Independently of the CLI's verdict, the empirical
    covariance must lie within CLT_COV_Z standard errors of the exact finite-n
    covariance on every entry, and the skewness and excess kurtosis within
    CLT_SKEW_Z and CLT_KURT_Z standard deviations of 0; a sampler drawing from
    the wrong distribution fails here.  Returns the CLI's overall verdict.
    """
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("N") != N:
        raise CheckFailed(f"summary.json N={summary.get('N')}, expected {N}")
    passed = summary["overall_pass"]
    if returncode != (0 if passed else 1):
        raise CheckFailed(f"exit code {returncode} with overall_pass={passed}")
    emp = _matrix(out / "covariance_empirical.csv")
    fin = _matrix(out / "covariance_finite_exact.csv")
    se = _matrix(out / "covariance_se.csv")
    verdicts = _matrix(out / "verdicts.csv") == 1.0
    if spec.innovations.law == "gaussian":
        d = np.diag(fin)
        if not np.allclose(se, np.sqrt((np.outer(d, d) + fin ** 2) / N), rtol=1e-13, atol=0):
            raise CheckFailed("covariance_se.csv differs from the Gaussian standard error")
    if not np.array_equal(verdicts, np.abs(emp - fin) <= summary["z_star"] * se):
        raise CheckFailed("verdicts.csv disagrees with |empirical - finite| <= z* se")
    z = np.abs(emp - fin) / se
    if not np.all(z <= CLT_COV_Z):
        i, j = np.unravel_index(np.argmax(z), z.shape)
        raise CheckFailed(f"empirical covariance is {z[i, j]:.2f} standard errors from "
                          f"the exact finite-n covariance at ({i}, {j})")
    normality = _rows(out / "normality.csv")
    ok = []
    for r in normality:
        skew, kurt = float(r["skewness"]), float(r["excess_kurtosis"])
        flags = (abs(skew) <= summary["skew_band"], abs(kurt) <= summary["kurt_band"])
        if flags != (r["skew_ok"] == "True", r["kurt_ok"] == "True"):
            raise CheckFailed(f"normality flags at t={r['t']} disagree with the bands")
        if not (abs(skew) <= CLT_SKEW_Z * math.sqrt(6.0 / N)
                and abs(kurt) <= CLT_KURT_Z * math.sqrt(24.0 / N)):
            raise CheckFailed(f"skewness {skew:.3g} or excess kurtosis {kurt:.3g} at "
                              f"t={r['t']} is far outside the Gaussian sampling band")
        ok.append(all(flags))
    expected = {"covariance_verdicts_pass": bool(verdicts.all()), "normality_pass": all(ok)}
    expected["overall_pass"] = all(expected.values())
    if len(normality) != spec.grid.q or any(summary[k] != v for k, v in expected.items()):
        raise CheckFailed(f"summary.json booleans disagree with the written files: {expected}")
    return passed
