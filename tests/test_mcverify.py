import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

import longmem as lm
from longmem.mcverify import ROW_BLOCK_WORDS, _ndtr
from longmem.simulate import (REPLICATION_BLOCK, _draw_plan, _excess_kurtosis,
                              _past_factor, _replication_sampler, _standard_draws,
                              innovation_block)
from oracles import partial_sum_covariance_lagsum

# passes the PSD tolerance of validate() but not a jittered Cholesky
UNFACTORIZABLE = {"innovations": {"kind": "custom", "sigma": [
    [1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]]}}
BOUNDARY = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory": {"kind": "constant", "values": 1.0},
    "innovations": {"kind": "white", "sigma2": 1.0},
    "tail_tol": 0.001,
}
PARETO_BOUNDARY = dict(BOUNDARY, innovations={"kind": "white", "sigma2": 1.0,
                                             "law": "pareto", "pareto_alpha": 4.5})
WIENER_07 = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory": {"kind": "constant", "values": 0.7},
    "innovations": {"kind": "wiener"},
    "tail_tol": 0.1,
}

# d = 0.7 at window 11, where the fourth cumulant of Pareto(6) draws is a
# sizeable part of Var(S_i S_j): kappa = -5/3
PARETO_WIENER_6 = dict(WIENER_07, innovations={"kind": "wiener", "law": "pareto",
                                               "pareto_alpha": 6.0}, tail_tol=0.3)


@pytest.fixture(scope="module")
def boundary_report():
    return lm.run_clt_experiment(lm.spec_from_dict(BOUNDARY), 512, 600, seed=71)


class TestRunCltExperiment:
    def test_boundary_reference(self, boundary_report):
        rep = boundary_report
        assert rep.regime == "boundary"
        assert np.allclose(rep.limit, np.eye(4))
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
        assert np.all(rep.se[np.abs(rep.limit) > 0] > 0)

    def test_sharded_equals_unsharded(self, boundary_report):
        spec = lm.spec_from_dict(BOUNDARY)
        sharded = lm.run_clt_experiment(spec, 512, 600, seed=71, shards=4)
        assert np.array_equal(sharded.empirical, boundary_report.empirical)
        assert np.array_equal(sharded.samples, boundary_report.samples)

    def test_unfactorizable_covariance_fatal(self, monkeypatch):
        # with distinct exponents the past covariance can still be factorized
        monkeypatch.setattr(lm.simulate, "_standard_draws", None)   # no replication runs
        for memory in (WIENER_07["memory"], {"kind": "table", "values": [0.7, 0.9]}):
            spec = lm.spec_from_dict(dict(WIENER_07, grid={"points": [0.25, 0.5]},
                                          memory=memory, **UNFACTORIZABLE))
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

    def test_zero_variance_point_refused(self):
        spec = lm.spec_from_dict(dict(WIENER_07, grid={"points": [0.0, 0.5, 1.0]}))
        with pytest.raises(lm.ValidationError, match="variance at t=0: "):
            lm.run_clt_experiment(spec, 16, 200, seed=1)
        with pytest.raises(lm.ValidationError, match="variance at t=0: "):
            lm.fit_variance_exponent(spec, [2 ** k for k in range(4, 9)])

    @pytest.mark.parametrize("memory", [
        {"kind": "constant", "values": 0.7},
        {"kind": "step", "breakpoints": [0.5], "levels": [0.6, 0.8]}])
    def test_finite_n_exact_is_the_gram_of_the_grid_rows(self, memory):
        # the weights have a row per distinct exponent; gathered per grid
        # point their Gram is the finite-n covariance, up to the sums' association
        spec = lm.spec_from_dict(dict(WIENER_07, grid={"linspace": [0.125, 1.0, 8]},
                                      memory=memory))
        n = 32
        report = lm.run_clt_experiment(spec, n, 100, seed=5)
        z = lm.partial_sum_weights(spec, n)[spec.memory.distinct[1]]
        b = lm.normalization_plan(spec, n)
        expected = spec.innovations.sigma * (z @ z.T) / np.outer(b, b)
        assert np.max(np.abs(report.finite_n_exact / expected - 1.0)) <= 1e-14

    @pytest.mark.parametrize("shards", [1, 2])
    def test_samples_are_the_only_replication_sized_array(self, shards):
        # the shards write into the samples, which are normalized in place;
        # beside them come only arrays independent of N, under 256 KiB here:
        # each shard's draw buffer (REPLICATION_BLOCK replications of 65 rows
        # of 4 words), the contraction's temporaries and the table's series
        spec = lm.spec_from_dict(WIENER_07)
        lm.run_clt_experiment(spec, 64, 100, seed=3, shards=shards)   # loads the pool
        tracemalloc.start()
        try:
            report = lm.run_clt_experiment(spec, 64, 50_000, seed=3, shards=shards)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.samples.shape == (50_000, 4)
        assert peak <= report.samples.nbytes + 2 ** 18

    def test_memory_preflight_sums_the_largest_arrays(self, monkeypatch):
        # N = 600 at q = 4: 19,200 bytes of samples, a table row of
        # n + M = 1,119 words and one draw buffer of 16 replications of 513
        # rows of 4 words; nothing is allocated past the refusal
        spec = lm.spec_from_dict(BOUNDARY)
        need = 600 * 4 * 8 + 1_119 * 8 + 16 * 513 * 4 * 8
        monkeypatch.setattr(lm.simulate, "_physical_memory", lambda: need)
        assert lm.run_clt_experiment(spec, 512, 600, seed=71).samples.shape == (600, 4)
        monkeypatch.setattr(lm.simulate, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(lm.mcverify, "partial_sum_weights", None)
        with pytest.raises(lm.ValidationError, match=(
                f"^memory: the run needs {need:,} bytes, more than the {need - 1:,} bytes "
                f"of physical memory; its largest array, the draw buffers, takes 262,656$")):
            lm.run_clt_experiment(spec, 512, 600, seed=71)

    def test_rejects_a_horizon_below_two(self, long_spec):
        with pytest.raises(ValueError, match="n must be >= 2; got 1"):
            lm.run_clt_experiment(long_spec, 1, 200, seed=1)

    def test_pool_capped_at_core_count(self, monkeypatch):
        # the pool size is computed, never tried out with many threads
        monkeypatch.setattr(lm.mcverify.os, "cpu_count", lambda: 2)
        assert [lm.mcverify._pool_size(s) for s in (1, 2, 3, 10_000)] == [1, 2, 2, 2]
        monkeypatch.setattr(lm.mcverify.os, "cpu_count", lambda: None)
        assert lm.mcverify._pool_size(8) == 1


def _isserlis_se(report, N):
    """The Gaussian standard error of the empirical covariance, in the
    evaluation order of the releases before 0.14.0."""
    C = report.finite_n_exact
    return np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / N)


def _fourth_cumulant(spec, n, kappa):
    """kappa sum_k F_ik^2 F_jk^2 sum_m z_im^2 z_jm^2 / (b_i b_j)^2, entry by
    entry with exactly rounded sums."""
    F = spec.innovations.factor
    z = lm.partial_sum_weights(spec, n)[spec.memory.distinct[1]]
    b = lm.normalization_plan(spec, n)
    return np.array([[kappa * math.fsum(F[i] ** 2 * F[j] ** 2)
                      * math.fsum(z[i] ** 2 * z[j] ** 2) / (b[i] * b[j]) ** 2
                      for j in range(spec.q)] for i in range(spec.q)])


class TestStandardError:
    @pytest.mark.parametrize("cfg, n", [(BOUNDARY, 512), (WIENER_07, 64)])
    def test_gaussian_se_keeps_the_isserlis_bytes(self, cfg, n):
        # kappa = 0 makes the fourth-cumulant term exact zeros, so adding it
        # last moves no bit of the Gaussian se
        assert _excess_kurtosis("gaussian", 4.5) == 0.0
        report = lm.run_clt_experiment(lm.spec_from_dict(cfg), n, 600, seed=71)
        assert np.array_equal(report.se, _isserlis_se(report, 600))

    @pytest.mark.parametrize("memory", [
        PARETO_WIENER_6["memory"], {"kind": "table", "values": [0.9, 0.6, 0.9, 0.6]}])
    def test_pareto_se_is_the_formula_at_any_seed_and_shard_count(self, memory):
        spec = lm.spec_from_dict(dict(PARETO_WIENER_6, memory=memory))
        n, N = 16, 300
        report = lm.run_clt_experiment(spec, n, N, seed=3)
        C = report.finite_n_exact
        kappa = (6.0 - 2.0) ** 2 / (6.0 * (6.0 - 4.0)) - 3.0
        expected = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2
                            + _fourth_cumulant(spec, n, kappa)) / N)
        assert np.max(np.abs(report.se / expected - 1.0)) <= 1e-15
        # the se reads no sample: another seed or shard count keeps its bits
        reseeded = lm.run_clt_experiment(spec, n, N, seed=4)
        sharded = lm.run_clt_experiment(spec, n, N, seed=3, shards=3)
        assert not np.array_equal(reseeded.empirical, report.empirical)
        assert np.array_equal(reseeded.se, report.se)
        assert np.array_equal(sharded.se, report.se)

    def test_pareto_se_is_the_monte_carlo_spread(self):
        # Var(S_i S_j) by Monte Carlo over N replications against N se^2.
        # Over seeds 1-15 the largest miss of the ten entries read 0.4-1.6%
        # against the formula and 3.6-6.4% against its Isserlis terms alone
        spec = lm.spec_from_dict(PARETO_WIENER_6)
        assert spec.window == 11
        N = 200_000
        report = lm.run_clt_experiment(spec, 16, N, seed=1)
        i, j = np.triu_indices(spec.q)
        mc_var = (report.samples[:, i] * report.samples[:, j]).var(axis=0, ddof=1)
        miss = np.abs(mc_var / (N * report.se[i, j] ** 2) - 1.0)
        isserlis_miss = np.abs(mc_var / (N * _isserlis_se(report, N)[i, j] ** 2) - 1.0)
        assert np.max(miss) <= 0.03 < np.max(isserlis_miss)


def _lagsum_target(spec, n):
    """Normalized covariance of S_n by the triple sum over lag covariances."""
    pts = spec.grid.points
    cov = np.array([[partial_sum_covariance_lagsum(spec, n, s, t) for t in pts]
                    for s in pts])
    b = lm.normalization_plan(spec, n)
    return cov / np.outer(b, b)


def _assembled(spec, z, seed, rep):
    """S_n of one replication, drawn and contracted on its own: the distinct
    rows of the weights z meet the standardized draws, y = z @ g, and grid
    point i reads S_i = sum_j F_ij y[idx_i, j] for the covariance factor F."""
    model = spec.innovations
    M = spec.window
    n = z.shape[1] - M
    idx = spec.memory.distinct[1]
    if model.law != "gaussian":
        g, = _standard_draws(model, seed, range(rep, rep + 1), 1 - M, n + M, 1)
        y = z @ g[0]
        return np.sum(y[idx] * model.factor, axis=1)
    g, = _standard_draws(model, seed, range(rep, rep + 1), 0, n + 1, 1)
    y = z[:, M:] @ g[0, 1:]
    return np.sum(y[idx] * model.factor, axis=1) + _past_factor(spec, z) @ g[0, 0]


def _count_draw_blocks(monkeypatch):
    """Record the replications of every block ``_standard_draws`` yields."""
    blocks = []
    draws = lm.simulate._standard_draws

    def counted(*args):
        for g in draws(*args):
            blocks.append(len(g))
            yield g

    monkeypatch.setattr(lm.simulate, "_standard_draws", counted)
    return blocks


class TestReplicationSampler:
    @pytest.mark.parametrize("cfg, n", [(BOUNDARY, 512), (WIENER_07, 64)])
    def test_gaussian_rows_are_the_innovation_block(self, cfg, n):
        spec = lm.spec_from_dict(cfg)
        model = spec.innovations
        z = lm.partial_sum_weights(spec, n)
        sample = _replication_sampler(spec, z, seed=71)
        assert _draw_plan(model, n, spec.window)[1] == n + 1
        sums = sample(0, 600)
        for rep in (0, 3, 599):
            g, = _standard_draws(model, 71, range(rep, rep + 1), 0, n + 1, 1)
            eps = innovation_block(model, 71, start=1, count=n, rep=rep)
            assert np.array_equal(g[0, 1:] @ model.factor.T, eps)
            assert np.array_equal(sums[rep], _assembled(spec, z, 71, rep))

    def test_blocks_and_shards_change_no_bit(self, monkeypatch):
        # N replications end inside a block, and 2 or 3 shards cut through
        # blocks; every replication equals its explicit assembly.  A Pareto
        # replication draws n + M rows, so its block holds fewer replications
        blocks = _count_draw_blocks(monkeypatch)
        for cfg, n, N, block in ((WIENER_07, 64, 1000, REPLICATION_BLOCK),
                                 (PARETO_BOUNDARY, 512, 100, 7)):
            spec = lm.spec_from_dict(cfg)
            assert N % block != 0 and (N // 3) % block != 0
            z = lm.partial_sum_weights(spec, n)
            b = lm.normalization_plan(spec, n)
            expected = np.array([_assembled(spec, z, 9, rep) for rep in range(N)]) / b
            blocks.clear()
            for shards in (1, 2, 3):
                report = lm.run_clt_experiment(spec, n, N, seed=9, shards=shards)
                assert np.array_equal(report.samples, expected)
            assert max(blocks) == block

    @pytest.mark.parametrize("cfg, n", [(BOUNDARY, 512), (WIENER_07, 64)])
    def test_past_factor_reproduces_past_covariance(self, cfg, n):
        spec = lm.spec_from_dict(cfg)
        z = lm.partial_sum_weights(spec, n)
        past = _past_factor(spec, z)
        z_past = z[spec.memory.distinct[1], :spec.window]
        target = spec.innovations.sigma * (z_past @ z_past.T)
        assert np.max(np.abs(past @ past.T - target)) <= 1e-12 * np.max(np.abs(target))

    def test_pareto_samples_follow_the_pathwise_route(self):
        spec = lm.spec_from_dict(dict(
            WIENER_07, innovations={"kind": "white", "sigma2": 1.0,
                                    "law": "pareto", "pareto_alpha": 4.5}))
        n, N = 64, 200
        report = lm.run_clt_experiment(spec, n, N, seed=13, shards=3)
        b = lm.normalization_plan(spec, n)
        expected = np.array([lm.partial_sums_via_z(spec, n, 13, rep=r) / b
                             for r in range(N)])
        assert np.array_equal(report.samples, expected)
        assert report.innovations_drawn == N * (n + spec.window)

    def test_long_window_draws_one_replication_at_a_time(self, monkeypatch):
        # n + M > REPLICATION_BLOCK (n + 1): no block holds more rows than one
        # replication
        spec = lm.spec_from_dict(dict(WIENER_07, innovations=PARETO_BOUNDARY["innovations"],
                                      tail_tol=0.01))
        n, N = 8, 100
        assert n + spec.window > REPLICATION_BLOCK * (n + 1)
        blocks = _count_draw_blocks(monkeypatch)
        report = lm.run_clt_experiment(spec, n, N, seed=5)
        assert blocks == [1] * N
        assert report.innovations_drawn == N * (n + spec.window)

    @pytest.mark.parametrize("cfg, n, N", [(BOUNDARY, 512, 600), (WIENER_07, 64, 2000),
                                           (BOUNDARY, 8, 2000)])
    def test_empirical_matches_lagsum_route(self, cfg, n, N):
        # the target does not come from the coefficient table the sampler uses;
        # at boundary n = 8 the past term is 29.5% of Var S_n against a 4-se
        # band of about 12.6%, so dropping it fails (at n = 512 it is 5.8%)
        spec = lm.spec_from_dict(cfg)
        report = lm.run_clt_experiment(spec, n, N, seed=71)
        target = _lagsum_target(spec, n)
        assert np.all(np.abs(report.empirical - target) <= lm.mcverify.DEFAULT_Z_STAR * report.se)


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

    @pytest.mark.parametrize("law", ["gaussian", "pareto", "exponential"])
    @pytest.mark.parametrize("given_variances", [False, True])
    def test_statistics_equal_scipy_stats(self, law, given_variances):
        # a C-ordered array in one row block and one over several blocks (the
        # moments are streamed), a single column, an F-ordered array (streamed
        # a column at a time) and a strided view (streamed by rows); the KS
        # distance crosses normal CDF blocks at the larger N
        rng = np.random.default_rng(8)
        for N, q, order in ((2000, 3, "C"), (2 * (ROW_BLOCK_WORDS // 3) + 501, 3, "C"),
                            (2000, 1, "C"), (2000, 3, "F"), (ROW_BLOCK_WORDS + 501, 3, "F"),
                            (2000, 3, "strided")):
            shape = (N, q)
            x = {"gaussian": lambda: rng.standard_normal(shape) * [0.5, 1.0, 3.0][:q],
                 "pareto": lambda: rng.pareto(4.5, shape) * rng.choice([-1.0, 1.0], shape),
                 "exponential": lambda: rng.exponential(size=shape) - 0.8}[law]()
            x = np.hstack([x, x])[:, ::2] if order == "strided" else np.asarray(x, order=order)
            variances = rng.uniform(0.5, 2.0, q) if given_variances else None
            self._assert_equals_scipy(x, variances)

    @pytest.mark.parametrize("given_variances", [False, True])
    def test_constant_column_as_scipy_stats(self, given_variances):
        x = np.random.default_rng(9).standard_normal((700, 3))
        x[:, 1] = 2.5
        variances = np.ones(3) if given_variances else None
        rep = self._assert_equals_scipy(x, variances)
        assert np.isnan(rep.skewness[1]) and np.isnan(rep.excess_kurtosis[1])
        assert np.isnan(rep.ks_distance[1]) != given_variances

    @staticmethod
    def _assert_equals_scipy(x, variances):
        rep = lm.normality_diagnostics(x, variances=variances)
        sd = np.sqrt(x.var(axis=0, ddof=1) if variances is None else variances)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")   # scipy warns on a constant column
            skew = stats.skew(x, axis=0)
            kurt = stats.kurtosis(x, axis=0)
            ks = [stats.kstest(x[:, i], "norm", args=(0.0, sd[i])).statistic
                  for i in range(x.shape[1])]
        assert np.array_equal(rep.skewness, skew, equal_nan=True)
        assert np.array_equal(rep.excess_kurtosis, kurt, equal_nan=True)
        assert np.array_equal(rep.ks_distance, ks, equal_nan=True)
        return rep

    @pytest.mark.parametrize("q", [1, 4])
    def test_allocates_two_columns_beside_its_input(self, q):
        # the moments stream two row blocks of a C-ordered array or of a
        # column slice of one, or two columns of an F-ordered one; the KS
        # distance sorts one column at a time and takes its normal CDF a
        # block at a time.  The input is not written to
        N = 200_000
        for order in ("C", "F", "column slice"):
            x = np.random.default_rng(4).standard_normal((N, 2 * q if order == "column slice"
                                                          else q))
            x = x[:, :q] if order == "column slice" else np.asarray(x, order=order)
            before = x.copy()
            tracemalloc.start()
            try:
                lm.normality_diagnostics(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * N * 8 + 2 * ROW_BLOCK_WORDS * 8, order
            assert np.array_equal(x, before)

    def test_needs_500(self):
        with pytest.raises(ValueError):
            lm.normality_diagnostics(np.zeros((100, 2)))


def _neighbours(x: float, count: int = 20) -> list:
    """``x`` and the ``count`` doubles on each side of it."""
    up, down = [x], [x]
    for _ in range(count):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return up + down[1:]


def test_ndtr_equals_scipy_bit_for_bit():
    # Gaussian points at several scales, a uniform sweep past the underflow
    # at |a| ~ 37.5, and the branch points of Cephes' erf/erfc (|a| = 1,
    # sqrt 2, 8 sqrt 2 and sqrt(2 MAXLOG)) with their neighbours, both signs
    rng = np.random.default_rng(12)
    branches = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)]
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 38.5, -38.5, 1e308, -1e308,
             5e-324, -5e-324, *(s * v for b in branches for v in _neighbours(b)
                               for s in (1.0, -1.0))]
    x = np.concatenate([rng.standard_normal(250_000) * scale for scale in (1.0, 3.0, 10.0)]
                       + [rng.uniform(-40.0, 40.0, 250_000), edges])
    got = x.copy()
    for lo in range(0, len(got), ROW_BLOCK_WORDS):
        _ndtr(got[lo:lo + ROW_BLOCK_WORDS])
    want = special.ndtr(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
        assert (abs(large.slopes[0] - large.theoretical[0])
                < abs(small.slopes[0] - small.theoretical[0]))

    def test_d09_strong_corrections(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.9},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        fit = lm.fit_variance_exponent(spec, [2 ** k for k in range(10, 17)])
        assert fit.theoretical[0] == pytest.approx(1.2)
        # corrections decay like n^{-0.1}: deviation is large and frozen
        assert abs(fit.slopes[0] - fit.theoretical[0]) == pytest.approx(0.13064, abs=2e-3)

    def test_boundary_ln_corrected(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 1.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        fit = lm.fit_variance_exponent(spec, [2 ** k for k in range(14, 21)])
        assert fit.corrected[0]
        assert fit.theoretical[0] == pytest.approx(1.0)
        assert abs(fit.slopes[0] - fit.theoretical[0]) < 0.01

    def test_series_summed_once_per_distinct_exponent(self, count_calls):
        calls = count_calls(lm.mcverify, "partial_sum_covariance_series")
        spec = lm.spec_from_dict(dict(BOUNDARY, memory={
            "kind": "table", "values": [0.6, 0.6, 1.0, 1.0]}))
        n_list = [2 ** k for k in range(6, 11)]
        fit = lm.fit_variance_exponent(spec, n_list)
        assert len(calls) == 10
        assert set(calls) == {(d, d, n) for d in (0.6, 1.0) for n in n_list}
        assert fit.slopes[0] == fit.slopes[1] and fit.slopes[2] == fit.slopes[3]

    def test_slope_does_not_read_sigma2(self):
        # sigma2 adds a constant to log Var(S_n): every point of an exponent
        # gets the unit-variance fit, bit for bit
        n_list = [2 ** k for k in range(10, 17)]
        unit = lm.fit_variance_exponent(lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        }), n_list)
        fit = lm.fit_variance_exponent(lm.spec_from_dict(WIENER_07), n_list)
        assert np.array_equal(fit.slopes, np.full(4, unit.slopes[0]))
        assert np.array_equal(fit.max_residual, np.full(4, unit.max_residual[0]))

    def test_rejects_bad_horizons(self, long_spec):
        with pytest.raises(ValueError):
            lm.fit_variance_exponent(long_spec, [4, 8, 16, 32])   # too few
        with pytest.raises(ValueError, match="5 distinct horizons"):
            lm.fit_variance_exponent(long_spec, [256] * 5)       # repeated
        with pytest.raises(ValueError, match="5 distinct horizons"):
            lm.fit_variance_exponent(long_spec, [4, 8, 16, 32, 32, 16])
        with pytest.raises(ValueError):
            lm.fit_variance_exponent(long_spec, [4, 8, 12, 16, 32])  # not dyadic
