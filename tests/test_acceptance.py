"""Acceptance suite: one test (pytest -v line) per criterion A1-A9.

Criteria that the implementation cannot attain at the stated tolerances are
implemented faithfully and marked xfail(strict=True) with the measured
values printed; see the repository notes for the analysis.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

import longmem as lm
from longmem.analytics import _prefix_powers
from longmem.cli import main as cli_main
from oracles import (dominating_bound, partial_sum_covariance_lagsum,
                     partial_sums_direct, scale_integral_upper_bound)


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_A1_c_integral_oracle():
    """Quadrature vs. Gamma closed form <= 1e-8 relative over the 9x12 sweep."""
    t0 = time.perf_counter()
    worst = 0.0
    for d_s in np.arange(0.55, 0.9501, 0.05):
        for d_t in np.linspace(0.55, 3.0, 12):
            a = lm.scale_integral(float(d_s), float(d_t))
            b = lm.scale_integral_closed_form(float(d_s), float(d_t))
            worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    assert _report("A1 (c-integral oracle)", ok,
                   f"max rel {worst:.2e}, {elapsed:.2f}s")


def test_A2_variance_identity():
    """Triple-sum vs. coefficient-route partial-sum covariance <= 1e-10 rel."""
    t0 = time.perf_counter()
    spec = lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "table", "values": [0.6, 0.75, 1.0, 2.0]},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.3,
    })
    window = 2048
    pts = spec.grid.points
    worst = 0.0
    for n in range(2, 65):
        z = lm.partial_sum_weights(spec, n, window=window)[spec.memory.distinct[1]]
        for i in range(4):
            for j in range(4):
                vb = float(spec.innovations.sigma[i, j] * np.dot(z[i], z[j]))
                va = partial_sum_covariance_lagsum(spec, n, pts[i], pts[j],
                                                   window=window)
                worst = max(worst, abs(va - vb) / max(abs(va), abs(vb)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert _report("A2 (variance identity)", ok,
                   f"max rel {worst:.2e}, {elapsed:.1f}s")


LIMIT_07 = 10.650190092619484  # c(0.7,0.7)/((1-0.7)(3-1.4)) [Gamma oracle]


@pytest.mark.xfail(strict=True,
                   reason="the n^{-(1-d)} finite-size correction leaves a "
                          "4.7% deficit at n=2^16, above the stated 2%")
def test_A3_growth_rate_long_regime():
    """d=0.7: exact Var(S_n)/n^1.6 within 2% of the limit constant at n=2^16."""
    v, _ = lm.partial_sum_covariance_series(0.7, 0.7, 2 ** 16)
    dev = abs(v / (LIMIT_07 * (2 ** 16) ** 1.6) - 1.0)
    assert _report("A3 (growth rate, d=0.7 power constant)", dev <= 0.02,
                   f"deviation {dev:.4f} vs 0.02")


def test_A3_growth_rate_boundary():
    """d=1: Var/(n ln^2 n) within 25% at n=2^20, deviation shrinking dyadically."""
    t0 = time.perf_counter()
    devs = []
    for k in range(16, 21):
        n = 2 ** k
        v, _ = lm.partial_sum_covariance_series(1.0, 1.0, n)
        devs.append(abs(1.0 - v / (n * math.log(n) ** 2)))
    elapsed = time.perf_counter() - t0
    ok = devs[-1] <= 0.25 and all(b < a for a, b in zip(devs, devs[1:])) \
        and elapsed < 120.0
    assert _report("A3 (growth rate, d=1 boundary)", ok,
                   f"final dev {devs[-1]:.4f}, ladder {[f'{d:.4f}' for d in devs]}, "
                   f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def a4_experiment():
    cfg = json.loads((resources.files("longmem") / "configs"
                      / "clt_long_reference.json").read_text())
    spec = lm.spec_from_dict(cfg)
    t0 = time.perf_counter()
    report = lm.run_clt_experiment(spec, cfg["n"], cfg["N"], seed=cfg["seed"])
    return report, time.perf_counter() - t0


def test_A4_clt_covariance_mc_verdicts(a4_experiment):
    """d=0.7, 8-point grid, Wiener, n=4096, N=2000: all entries within 4 se."""
    report, elapsed = a4_experiment
    z = np.max(np.abs(report.empirical - report.finite_n_exact) / report.se)
    ok = report.passed and elapsed < 300.0
    assert _report("A4 (CLT covariance, MC verdicts)", ok,
                   f"max |z| {z:.2f} vs 4, {elapsed:.0f}s")


@pytest.mark.xfail(strict=True,
                   reason="the finite-n to limit-kernel gap at n=4096 is ~15% "
                          "per entry (slow n^{-0.3} convergence), above the "
                          "stated 7% policy tolerance")
def test_A4_clt_covariance_deterministic_gap(a4_experiment):
    report, _ = a4_experiment
    ok = bool(np.all(report.gap_rel <= 0.07))
    assert _report("A4 (CLT covariance, deterministic gap)", ok,
                   f"max gap {report.max_gap:.3f} vs 0.07")


def test_A5_z_identity():
    """100 seeds, n in {2,3,17,128}, mixed regimes: direct vs z <= 1e-12 rel."""
    t0 = time.perf_counter()
    spec = lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 1.0]},
        "memory": {"kind": "table", "values": [0.6, 1.0, 2.0]},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.3,
    })
    worst = 0.0
    for n in (2, 3, 17, 128):
        for seed in range(100):
            direct = partial_sums_direct(lm.generate_paths(spec, n, seed)[0])
            via_z = lm.partial_sums_via_z(spec, n, seed)
            # relative to the vector scale: a coordinate whose summands
            # cancel to near zero would otherwise measure only roundoff
            scale = max(np.max(np.abs(direct)), np.max(np.abs(via_z)), 1e-300)
            worst = max(worst, float(np.max(np.abs(direct - via_z)) / scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    assert _report("A5 (z-identity)", ok, f"max rel {worst:.2e}, {elapsed:.1f}s")


A6_LADDER = [2 ** k for k in range(8, 19)]


def _a6_sequences(d):
    if d < 1.0:
        K_over_s2 = 2 * lm.scale_integral_closed_form(d, d) \
            / ((2 - 2 * d) * (3 - 2 * d))
    else:
        K_over_s2 = 1.0
    cond1, cond2 = [], []
    for n in A6_LADDER:
        b = math.sqrt(n) * math.log(n) if d == 1.0 else n ** (1.5 - d)
        cond1.append(float(_prefix_powers(d, n)[-1]) / b)
        v, _ = lm.partial_sum_covariance_series(d, d, n)
        cond2.append(v / b ** 2)
    return np.array(cond1), np.abs(np.array(cond2) / K_over_s2 - 1.0)


def test_A6_summand_conditions_cond1():
    """max weight z_{n,1}/b_n decreases toward 0 along the dyadic ladder."""
    t0 = time.perf_counter()
    ok = True
    for d in (0.6, 0.75, 0.9, 1.0):
        c1, _ = _a6_sequences(d)
        ok &= bool(np.all(np.diff(c1) < 0)) and c1[-1] < 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _report("A6 (cond1: max weight vanishes)", ok, f"{elapsed:.1f}s")


def test_A6_summand_conditions_cond2_long():
    """sum of squared normalized weights converges monotonically (d < 1)."""
    ok = True
    detail = []
    for d in (0.6, 0.75, 0.9):
        _, dev = _a6_sequences(d)
        ok &= bool(np.all(np.diff(dev) < 0))
        detail.append(f"d={d}: dev {dev[0]:.3f}->{dev[-1]:.3f}")
    assert _report("A6 (cond2: kernel convergence, long regime)", ok,
                   "; ".join(detail))


@pytest.mark.xfail(strict=True,
                   reason="at d=1 the deviation from the boundary kernel is "
                          "non-monotone over 2^8..2^18 (minimum near 2^15)")
def test_A6_summand_conditions_cond2_boundary():
    _, dev = _a6_sequences(1.0)
    ok = bool(np.all(np.diff(dev) < 0))
    assert _report("A6 (cond2: kernel convergence, boundary)", ok,
                   f"devs {[f'{d:.4f}' for d in dev]}")


def test_A7_bounds():
    """c(d,d) under the splitting bound; variance under the dominating bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for d in rng.uniform(0.505, 0.995, size=50):
        ok &= lm.scale_integral(float(d), float(d)) \
            <= scale_integral_upper_bound(float(d))
    for d in (0.6, 0.75, 0.9):
        bound = dominating_bound(d, 1.0)
        for n in range(1, 4097):
            v, _ = lm.partial_sum_covariance_series(d, d, n, past_terms=max(1024, 4 * n))
            if v / n ** (3 - 2 * d) > bound:
                ok = False
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _report("A7 (bounds)", ok, f"{elapsed:.1f}s")


def test_A8_normality_heavy_tailed():
    """Pareto innovations, d=0.7, n=4096, N=2000: moments inside MC bands."""
    t0 = time.perf_counter()
    spec = lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "constant", "values": 0.7},
        "innovations": {"kind": "white", "sigma2": 1.0,
                        "law": "pareto", "pareto_alpha": 4.5},
        "tail_tol": 0.02,
    })
    report = lm.run_clt_experiment(spec, 4096, 2000, seed=71)
    diag = lm.normality_diagnostics(report.samples,
                                    variances=np.diag(report.finite_n_exact),
                                    skew_z=4.0, kurt_z=5.0)
    elapsed = time.perf_counter() - t0
    ok = diag.passed and elapsed < 300.0
    assert _report("A8 (normality under heavy tails)", ok,
                   f"max |skew| {np.max(np.abs(diag.skewness)):.3f} vs "
                   f"{diag.skew_band:.3f}, max |kurt| "
                   f"{np.max(np.abs(diag.excess_kurtosis)):.3f} vs "
                   f"{diag.kurt_band:.3f}, {elapsed:.0f}s")


def test_A9_reproducibility(tmp_path):
    """Byte-identical CSVs for identical config+seed; sharded == unsharded."""
    cfg = {
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "constant", "values": 0.7},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.1,
        "horizon": 64,
        "seed": 17,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    for name in ("r1", "r2"):
        assert cli_main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / name), "--seed", "17"]) == 0
    identical = (tmp_path / "r1" / "paths.csv").read_bytes() == \
        (tmp_path / "r2" / "paths.csv").read_bytes()

    spec = lm.spec_from_dict(cfg)
    whole = lm.run_clt_experiment(spec, 64, 400, seed=17, shards=1)
    parts = lm.run_clt_experiment(spec, 64, 400, seed=17, shards=4)
    shards_equal = np.array_equal(whole.empirical, parts.empirical)
    ok = identical and shards_equal
    assert _report("A9 (reproducibility)", ok,
                   f"byte-identical {identical}, shards bit-identical {shards_equal}")
