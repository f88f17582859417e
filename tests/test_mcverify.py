import numpy as np
import pytest

import longmem as lm
from longmem.analytics import partial_sum_covariance_lagsum
from longmem.mcverify import _past_factor, _replication_sampler
from longmem.simulate import _standard_block, innovation_block

BOUNDARY = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory": {"kind": "constant", "values": 1.0},
    "innovations": {"kind": "white", "sigma2": 1.0},
    "tail_tol": 0.001,
}
WIENER_07 = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory": {"kind": "constant", "values": 0.7},
    "innovations": {"kind": "wiener"},
    "tail_tol": 0.1,
}


@pytest.fixture(scope="module")
def boundary_report():
    return lm.run_clt_experiment(lm.spec_from_dict(BOUNDARY), 512, 600, seed=71)


class TestRunCltExperiment:
    def test_boundary_reference(self, boundary_report):
        rep = boundary_report
        assert rep.limit.regime == "boundary"
        assert np.allclose(rep.limit.K, np.eye(4))
        # empirical diagonal near 1 within 4 se; finite-n/limit gap documented
        assert rep.passed
        assert 0 < rep.max_gap < 0.10

    def test_off_diagonal_zero_sigma_entries(self, boundary_report):
        rep = boundary_report
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.abs(rep.empirical[off]) <= 4 * rep.se[off])
        assert np.all(rep.finite_n_exact[off] == 0.0)

    def test_empirical_symmetric_and_se_positive(self, boundary_report):
        rep = boundary_report
        assert np.allclose(rep.empirical, rep.empirical.T)
        assert np.all(rep.se[np.abs(rep.limit.K) > 0] > 0)

    def test_sharded_equals_unsharded(self, boundary_report):
        spec = lm.spec_from_dict(BOUNDARY)
        sharded = lm.run_clt_experiment(spec, 512, 600, seed=71, shards=4)
        assert np.array_equal(sharded.empirical, boundary_report.empirical)
        assert np.array_equal(sharded.samples, boundary_report.samples)

    def test_unfactorizable_covariance_fatal(self):
        # passes the PSD tolerance of validate() but not a jittered Cholesky
        spec = lm.spec_from_dict(dict(WIENER_07, grid={"points": [0.25, 0.5]},
                                      innovations={"kind": "custom", "sigma": [
                                          [1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]]}))
        assert spec.innovations.factor is None
        with pytest.raises(lm.ValidationError, match="factoriz"):
            lm.run_clt_experiment(spec, 8, 100, seed=1)

    def test_refuses_mixed_regime(self, mixed_spec):
        with pytest.raises(lm.RegimeError, match="mixed"):
            lm.run_clt_experiment(mixed_spec, 64, 200, seed=1)

    def test_requires_enough_replications(self, boundary_spec):
        with pytest.raises(ValueError):
            lm.run_clt_experiment(boundary_spec, 64, 50, seed=1)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_rejects_fewer_than_one_shard(self, boundary_spec, shards):
        with pytest.raises(ValueError, match="shards must be at least 1"):
            lm.run_clt_experiment(boundary_spec, 64, 200, seed=1, shards=shards)

    def test_pool_capped_at_core_count(self, monkeypatch):
        # the pool size is computed, never tried out with many threads
        monkeypatch.setattr(lm.mcverify.os, "cpu_count", lambda: 2)
        assert [lm.mcverify._pool_size(s) for s in (1, 2, 3, 10_000)] == [1, 2, 2, 2]
        monkeypatch.setattr(lm.mcverify.os, "cpu_count", lambda: None)
        assert lm.mcverify._pool_size(8) == 1


def _lagsum_target(spec, n):
    """Normalized covariance of S_n by the triple sum over lag covariances."""
    pts = spec.grid.points
    cov = np.array([[partial_sum_covariance_lagsum(spec, n, s, t) for t in pts]
                    for s in pts])
    b = lm.normalization_plan(spec, n).b
    return cov / np.outer(b, b)


class TestReplicationSampler:
    @pytest.mark.parametrize("cfg, n", [(BOUNDARY, 512), (WIENER_07, 64)])
    def test_gaussian_rows_are_the_innovation_block(self, cfg, n):
        spec = lm.spec_from_dict(cfg)
        model = spec.innovations
        table = lm.partial_sum_weights(spec, n)
        sample, rows = _replication_sampler(spec, table, seed=71)
        assert rows == n + 1
        past = _past_factor(model, table)
        for rep in (0, 3, 599):
            g = _standard_block(model, 71, start=0, count=n + 1, rep=rep)
            eps = innovation_block(model, 71, start=1, count=n, rep=rep)
            assert np.array_equal(g[1:] @ model.factor.T, eps)
            expected = np.einsum("im,mi->i", table.z[:, table.window:], eps) \
                + past @ g[0]
            assert np.max(np.abs(sample(rep) - expected)) \
                <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("cfg, n", [(BOUNDARY, 512), (WIENER_07, 64)])
    def test_past_factor_reproduces_past_covariance(self, cfg, n):
        spec = lm.spec_from_dict(cfg)
        table = lm.partial_sum_weights(spec, n)
        past = _past_factor(spec.innovations, table)
        z_past = table.z[:, :table.window]
        target = spec.innovations.sigma * (z_past @ z_past.T)
        assert np.max(np.abs(past @ past.T - target)) <= 1e-12 * np.max(np.abs(target))

    def test_pareto_samples_follow_the_pathwise_route(self):
        spec = lm.spec_from_dict(dict(
            WIENER_07, innovations={"kind": "white", "sigma2": 1.0,
                                    "law": "pareto", "pareto_alpha": 4.5}))
        n, N = 64, 200
        report = lm.run_clt_experiment(spec, n, N, seed=13, shards=3)
        table = lm.partial_sum_weights(spec, n)
        b = lm.normalization_plan(spec, n).b
        expected = np.array([lm.partial_sums_via_z(spec, n, 13, rep=r, table=table) / b
                             for r in range(N)])
        assert np.array_equal(report.samples, expected)
        assert report.innovations_drawn == N * (n + table.window)

    @pytest.mark.parametrize("cfg, n, N", [(BOUNDARY, 512, 600), (WIENER_07, 64, 2000),
                                           (BOUNDARY, 8, 2000)])
    def test_empirical_matches_lagsum_route(self, cfg, n, N):
        # the target does not come from the coefficient table the sampler uses;
        # at boundary n = 8 the past term is 29.5% of Var S_n against a 4-se
        # band of about 12.6%, so dropping it fails (at n = 512 it is 5.8%)
        spec = lm.spec_from_dict(cfg)
        report = lm.run_clt_experiment(spec, n, N, seed=71)
        target = _lagsum_target(spec, n)
        assert np.all(np.abs(report.empirical - target) <= report.z_star * report.se)


class TestNormalityDiagnostics:
    def test_null_case_normal_samples(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5000, 3))
        rep = lm.normality_diagnostics(x, variances=np.ones(3))
        assert rep.passed
        assert np.all(rep.ks_distance < 0.05)

    def test_gaussian_partial_sums_gaussian_at_any_n(self):
        # linear maps of Gaussians are Gaussian at every n, not just in the
        # limit
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5, 1.0]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.1,
        })
        rep = lm.run_clt_experiment(spec, 16, 800, seed=33)
        diag = lm.normality_diagnostics(rep.samples,
                                        variances=np.diag(rep.finite_n_exact))
        assert diag.passed

    def test_detects_nonnormal(self):
        rng = np.random.default_rng(6)
        x = rng.exponential(size=(5000, 2)) - 1.0
        rep = lm.normality_diagnostics(x)
        assert not rep.passed

    def test_needs_500(self):
        with pytest.raises(ValueError):
            lm.normality_diagnostics(np.zeros((100, 2)))


class TestFitVarianceExponent:
    def test_long_regime_slope(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        fit = lm.fit_variance_exponent(spec, [2 ** k for k in range(10, 17)])
        assert fit.theoretical[0] == pytest.approx(1.6)
        # [DERIVED oracle] the n^{-(1-d)} correction biases the fitted slope
        # upward; frozen value over this ladder is 1.6288
        assert fit.slopes[0] == pytest.approx(1.6288, abs=2e-3)
        assert not fit.corrected[0]

    def test_slope_tightens_on_larger_horizons(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        small = lm.fit_variance_exponent(spec, [2 ** k for k in range(6, 13)])
        large = lm.fit_variance_exponent(spec, [2 ** k for k in range(14, 21)])
        assert large.deviations[0] < small.deviations[0]

    def test_d09_strong_corrections(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.9},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        fit = lm.fit_variance_exponent(spec, [2 ** k for k in range(10, 17)])
        assert fit.theoretical[0] == pytest.approx(1.2)
        # corrections decay like n^{-0.1}: deviation is large and frozen
        assert fit.deviations[0] == pytest.approx(0.13064, abs=2e-3)

    def test_boundary_ln_corrected(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 1.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        fit = lm.fit_variance_exponent(spec, [2 ** k for k in range(14, 21)])
        assert fit.corrected[0]
        assert fit.theoretical[0] == pytest.approx(1.0)
        assert fit.deviations[0] < 0.01

    def test_series_summed_once_per_distinct_exponent(self, count_calls):
        calls = count_calls(lm.mcverify, "partial_sum_covariance_series")
        spec = lm.spec_from_dict(dict(BOUNDARY, memory={
            "kind": "table", "values": [0.6, 0.6, 1.0, 1.0]}))
        n_list = [2 ** k for k in range(6, 11)]
        fit = lm.fit_variance_exponent(spec, n_list)
        assert len(calls) == 10
        assert set(calls) == {(d, d, 1.0, n) for d in (0.6, 1.0) for n in n_list}
        assert fit.slopes[0] == fit.slopes[1] and fit.slopes[2] == fit.slopes[3]

    def test_rejects_bad_horizons(self, long_spec):
        with pytest.raises(ValueError):
            lm.fit_variance_exponent(long_spec, [4, 8, 16, 32])   # too few
        with pytest.raises(ValueError):
            lm.fit_variance_exponent(long_spec, [4, 8, 12, 16, 32])  # not dyadic
