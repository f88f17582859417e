import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import longmem as lm
from longmem.model import tail_variance_bound
from longmem.simulate import (ORIGIN, REPLICATION_BLOCK, _excess_kurtosis, _seek,
                              _standard_draws, _standardized_draws, innovation_block)
from oracles import cross_covariance_exact, partial_sums_direct


def _rel_vec(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300))


class TestInnovations:
    def test_same_seed_identical(self, long_spec):
        a = innovation_block(long_spec.innovations, seed=9, start=1, count=50)
        b = innovation_block(long_spec.innovations, seed=9, start=1, count=50)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, long_spec):
        a = innovation_block(long_spec.innovations, seed=9, start=1, count=50)
        b = innovation_block(long_spec.innovations, seed=10, start=1, count=50)
        assert not np.array_equal(a, b)

    def test_counter_addressing_overlapping_blocks(self, long_spec):
        # the block starting at -100 must reproduce the block starting at 0
        # on their overlap, entry for entry
        model = long_spec.innovations
        big = innovation_block(model, seed=4, start=-100, count=150)
        small = innovation_block(model, seed=4, start=0, count=50)
        assert np.array_equal(big[100:], small)

    @pytest.mark.parametrize("rep", [0, 1, 2 ** 64 - 3])
    @pytest.mark.parametrize("q", [3, 5])
    def test_seek_reproduces_a_fresh_generator(self, rep, q):
        # word w of index m of replication r is word r 2^64 + (m + ORIGIN) W + w
        # of PCG64DXSM(seed), W being q rounded up to even; rep 2^64 - 3
        # draws the last three replications of the domain
        model = lm.InnovationModel.white(1.0, q=q)
        W = q + q % 2
        reused = np.random.PCG64DXSM(7)
        # three 32-bit draws take two words and leave half of the second
        np.random.Generator(reused).integers(0, 2 ** 32, size=3, dtype=np.uint32)
        assert reused.state["has_uint32"] == 1
        at = 2
        for start in (-5, 0, 17):
            expected = []
            for r in range(rep, rep + 3):
                fresh = np.random.PCG64DXSM(7).advance((r << 64) + (start + ORIGIN) * W)
                expected.append(np.random.Generator(fresh).random((9, W)))
            at = _seek(reused, at, rep, start, 9, W)
            assert np.array_equal(np.random.Generator(reused).random((9, W)), expected[0])
            # three replications in blocks of two: one generator, moved per
            # replication; a block lives in the buffer the next one refills
            blocks = [g.copy() for g in _standard_draws(model, 7, range(rep, rep + 3),
                                                        start, 9, 2)]
            assert [len(g) for g in blocks] == [2, 1]
            # every word of the buffer is transformed, and a block shows q
            full = np.array(expected)
            _standardized_draws(full.reshape(-1, W), "gaussian", model.pareto_alpha)
            assert np.array_equal(np.concatenate(blocks), full[:, :, :q])

    @pytest.mark.parametrize("rep, start, count", [
        (-1, 0, 1), (2 ** 64, 0, 1), (0, -ORIGIN - 1, 1),
        # the last index of replication 0 and the first of replication 1
        (0, 2 ** 62 - ORIGIN - 1, 2)])
    def test_seek_refuses_an_address_outside_the_replication(self, rep, start, count):
        bit_gen = np.random.PCG64DXSM(1)
        with pytest.raises(ValueError, match="own 2\\*\\*64-word region"):
            _seek(bit_gen, 0, rep, start, count, 4)
        # the region's last index is inside it
        assert _seek(bit_gen, 0, 2 ** 64 - 1, 2 ** 62 - ORIGIN - 1, 1, 4) == 2 ** 128
        model = lm.InnovationModel.white(1.0, q=4)
        with pytest.raises(ValueError, match="own 2\\*\\*64-word region"):
            innovation_block(model, seed=1, start=start, count=count, rep=rep)

    def test_pinned_words(self):
        # the first eight words of seed 5, replication 2, index -3 at q = 4,
        # taken from a bare PCG64DXSM(5) advanced by 2 2^64 + (2^40 - 3) 4:
        # integers, not transformed floats, which may differ across CPUs
        pinned = np.array([12296317186755429450, 9619148739288694765,
                           14560782317110687186, 13431114192297405896,
                           850821097343963300, 10125327522617097181,
                           1889368172068521489, 11241335242007177118], dtype=np.uint64)
        bit_gen = np.random.PCG64DXSM(5)
        assert _seek(bit_gen, 0, 2, -3, 2, 4) == 2 * 2 ** 64 + (2 ** 40 - 1) * 4
        assert np.array_equal(bit_gen.random_raw(8), pinned)

    def test_replication_streams_are_independent(self, monkeypatch):
        # replications start 2^64 words apart on one PCG64DXSM, whose output
        # function keeps such streams uncorrelated (plain PCG64's does not):
        # over 4,096 replications of 256 uniforms, the pooled correlation of
        # replications r and r + lag and the mean of each word over the
        # replications, standardized, stay within 4 standard errors
        monkeypatch.setattr(lm.simulate, "_standardized_draws", lambda u, law, alpha: u)
        reps, count = 4096, 128
        model = lm.InnovationModel.white(1.0, q=2)
        u, = _standard_draws(model, 71, range(reps), 0, count, reps)
        x = u.reshape(reps, -1)
        x -= 0.5
        x *= np.sqrt(12.0)          # mean 0, variance 1
        words = x.shape[1]
        for lag in (1, 2, 64, 1024):
            z = np.vdot(x[:-lag], x[lag:]) / np.sqrt((reps - lag) * words)
            assert abs(z) < 4, (lag, z)
        assert np.max(np.abs(x.mean(axis=0))) * np.sqrt(reps) < 4

    def test_replication_index_splits_stream(self, long_spec):
        a = innovation_block(long_spec.innovations, seed=4, start=1, count=20, rep=0)
        b = innovation_block(long_spec.innovations, seed=4, start=1, count=20, rep=1)
        assert not np.array_equal(a, b)

    def test_white_sample_covariance(self):
        model = lm.InnovationModel.white(1.0, q=3)
        x = innovation_block(model, seed=11, start=1, count=40_000)
        cov = x.T @ x / len(x)
        assert np.max(np.abs(cov - np.eye(3))) < 4 / np.sqrt(len(x)) * 2
        assert np.max(np.abs(x.mean(axis=0))) < 4 / np.sqrt(len(x))

    def test_wiener_sample_covariance_matches_min_kernel(self):
        pts = [0.25, 0.5, 0.75, 1.0]
        model = lm.InnovationModel.wiener(pts)
        count = 40_000
        x = innovation_block(model, seed=12, start=1, count=count)
        cov = x.T @ x / count
        assert np.max(np.abs(cov - np.minimum.outer(pts, pts))) < 4 / np.sqrt(count)

    def test_pareto_zero_mean_unit_variance(self):
        model = lm.InnovationModel.white(1.0, q=2, law="pareto", pareto_alpha=4.5)
        x = innovation_block(model, seed=13, start=1, count=200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_gaussian_pairs_are_box_muller_to_rounding(self):
        # words (2p, 2p+1) map to R (cos theta, sin theta), R = sqrt(-2 ln(1 - u0)),
        # theta = 2 pi (u1 - 1/2), against a long-double reference: random
        # uniforms and every pair of the edges, where u + 2^-54 followed by
        # the inverse normal CDF once gave +inf at 1 - 2^-53
        edges = [0.0, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
        pairs = np.concatenate([np.random.default_rng(4).random((100_000, 2)),
                                [[a, b] for a in edges for b in edges]])
        u = pairs.copy()
        got = _standardized_draws(u, "gaussian", 4.5)
        assert got is u
        ld = pairs.astype(np.longdouble)
        radius = np.sqrt(-2 * np.log(1 - ld[:, 0]))
        theta = 8 * np.arctan(np.longdouble(1)) * (ld[:, 1] - np.longdouble(0.5))
        expected = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - expected) <= 1e-15 * radius[:, None])

    def test_gaussian_draws_are_standard_normal(self):
        # 10^6 draws at a fixed seed: moments and the KS distance within 4
        # standard errors, and the squares of a pair's two draws uncorrelated
        # (they share the radius R, so a wrong angle would couple them)
        model = lm.InnovationModel.white(1.0, q=4)
        g, = _standard_draws(model, 17, range(1), 0, 250_000, 1)
        x = g.ravel()
        N = x.size
        assert abs(x.mean()) <= 4 * np.sqrt(1 / N)
        assert abs(np.mean(x ** 2) - 1) <= 4 * np.sqrt(2 / N)
        assert abs(stats.skew(x)) <= 4 * np.sqrt(6 / N)
        assert abs(stats.kurtosis(x)) <= 4 * np.sqrt(24 / N)
        assert stats.kstest(x, "norm").pvalue >= 2 * stats.norm.sf(4)
        squares = np.square(x.reshape(-1, 2))
        assert abs(np.corrcoef(squares.T)[0, 1]) <= 4 / np.sqrt(len(squares))

    def test_gaussian_block_peaks_near_its_uniform_buffer(self):
        # the block is the uniform buffer transformed in place, chunk by
        # chunk; the temporaries of one chunk are all that comes beside it.  A
        # first draw loads numpy.random's modules, which are not the block's
        model = lm.InnovationModel.white(1.0, q=4)
        next(_standard_draws(model, 5, range(1), 0, 1, 1))
        rows = 100_000
        draws = _standard_draws(model, 5, range(1), 0, rows, 1)
        tracemalloc.start()
        try:
            g = next(draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.shape == (1, rows, 4)
        assert peak <= 1.25 * g.nbytes

    @pytest.mark.parametrize("law, transform", [("gaussian", "_box_muller"),
                                                ("pareto", "_pareto")])
    def test_block_chunks_have_equal_row_counts(self, monkeypatch, law, transform):
        # a Gaussian block of 16 replications of 513 rows of 4 words is 64
        # words over CHUNK_WORDS: two chunks of 4,104 rows, not 8,192 and a
        # 16-row sliver
        rows, W = REPLICATION_BLOCK * 513, 4
        assert rows * W > lm.simulate.CHUNK_WORDS
        chunks = []
        original = getattr(lm.simulate, transform)

        def record(u, *args):
            chunks.append(len(u))
            original(u, *args)

        monkeypatch.setattr(lm.simulate, transform, record)
        u = np.random.default_rng(6).random((rows, W))
        _standardized_draws(u, law, 6.0)
        assert sum(chunks) == rows
        assert max(chunks) * W <= lm.simulate.CHUNK_WORDS
        assert max(chunks) - min(chunks) <= 1
        assert chunks == [4104, 4104]

    @pytest.mark.parametrize("alpha", [4.5, 6.0])
    def test_pareto_transform_is_the_inverse_cdf_bit_for_bit(self, alpha):
        # in place, sign last, on a whole buffer and on a strided view of it:
        # random uniforms and the edges 0, 1/2 - 2^-53, 1/2 and 1 - 2^-53
        u = np.random.default_rng(3).random((4000, 4))
        u[-1] = [0.0, 0.5 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
        for view in (u.copy(), u.copy()[:, :3]):
            v = 2.0 * view - 1.0 + 2.0 ** -53
            expected = (np.sign(v) * (1.0 - np.abs(v)) ** (-1.0 / alpha)
                        * np.sqrt((alpha - 2.0) / alpha))
            got = _standardized_draws(view, "pareto", alpha)
            assert got is view
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_pareto_block_peaks_near_its_uniform_buffer(self):
        # the block is the uniform buffer transformed in place, plus an int8
        # sign array 1/8 its size; out-of-place temporaries peaked at 4x
        model = lm.InnovationModel.white(1.0, q=4, law="pareto", pareto_alpha=6.0)
        rows = 100_000
        draws = _standard_draws(model, 5, range(1), 0, rows, 1)
        tracemalloc.start()
        try:
            g = next(draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.shape == (1, rows, 4)
        assert peak <= 1.25 * g.nbytes

    @pytest.mark.parametrize("alpha, kappa", [(4.5, -2 / 9), (6.0, -5 / 3), (4.2, 58 / 21)])
    def test_excess_kurtosis(self, alpha, kappa):
        # (alpha - 2)^2 / (alpha (alpha - 4)) - 3 for the symmetrized Pareto
        # law; the Gaussian law has none at any alpha
        assert _excess_kurtosis("pareto", alpha) == pytest.approx(kappa, rel=1e-14)
        assert _excess_kurtosis("gaussian", alpha) == 0.0

    def test_unfactorizable_model_fatal(self):
        model = lm.InnovationModel([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(lm.ValidationError, match="factoriz"):
            innovation_block(model, seed=1, start=1, count=10)


class TestGeneratePaths:
    def test_shapes_and_determinism(self, mixed_spec):
        a, _ = lm.generate_paths(mixed_spec, 12, seed=3)
        b, _ = lm.generate_paths(mixed_spec, 12, seed=3)
        assert a.shape == (12, 4)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_huge_d_reduces_to_innovations(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 50.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.5,
        })
        values, _ = lm.generate_paths(spec, 20, seed=6)
        M = spec.window
        eps = innovation_block(spec.innovations, seed=6, start=1 - M, count=20 + M)
        assert _rel_vec(values[:, 0], eps[M:, 0]) < 1e-14

    def test_memory_preflight_sums_buffer_innovations_and_paths(self, long_spec,
                                                                monkeypatch):
        # (n + M) rows of W = 4 uniform words and of q = 4 innovations, and
        # n rows of paths: refused one byte under their sum, before any draw
        n, M = 10, long_spec.window
        need = (n + M) * 4 * 8 + (n + M) * 4 * 8 + n * 4 * 8
        monkeypatch.setattr(lm.simulate, "_physical_memory", lambda: need)
        assert lm.generate_paths(long_spec, n, seed=8)[0].shape == (n, 4)
        monkeypatch.setattr(lm.simulate, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(lm.simulate, "innovation_block", None)
        with pytest.raises(lm.ValidationError, match=f"the run needs {need:,} bytes"):
            lm.generate_paths(long_spec, n, seed=8)

    def test_linearity_in_innovations(self, long_spec):
        # scaling all innovation variances by lambda^2 scales paths by lambda
        values1, _ = lm.generate_paths(long_spec, 10, seed=8)
        spec2 = dataclasses.replace(
            long_spec, innovations=lm.InnovationModel(4.0 * long_spec.innovations.sigma))
        values2, _ = lm.generate_paths(spec2, 10, seed=8)
        assert _rel_vec(values2, 2.0 * values1) < 1e-12

    def test_lag_covariance_matches_exact(self, rel):
        # Monte Carlo over replications vs. the exact series at several lags
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5, 1.0]},
            "memory": {"kind": "table", "values": [0.8, 1.2]},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.01,
            "horizon": 16,
        })
        M = lm.truncation_length(spec.memory.d_min, spec.tail_tol)
        reps = 4000
        lags = [0, 1, 10]
        acc = {h: 0.0 for h in lags}
        for r in range(reps):
            eps = innovation_block(spec.innovations, seed=21, start=1 - M,
                                   count=11 + M, rep=r)
            j = np.arange(M + 1, dtype=float)
            x_s = np.convolve(eps[:, 0], (j + 1) ** -0.8, mode="valid")
            x_t = np.convolve(eps[:, 1], (j + 1) ** -1.2, mode="valid")
            for h in lags:
                acc[h] += x_s[0] * x_t[h]
        # 4 MC standard errors with a rough variance proxy
        var0, _ = cross_covariance_exact(spec, 0.5, 0.5, 0)
        se = 4 * np.sqrt(2.0) * abs(var0) / np.sqrt(reps)
        for h in lags:
            exact, _ = cross_covariance_exact(spec, 0.5, 1.0, h)
            assert abs(acc[h] / reps - exact) < se

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_tail_bound_once_per_distinct_exponent(self, fixture, request,
                                                   count_calls):
        spec = request.getfixturevalue(fixture)
        calls = count_calls(lm.simulate, "tail_variance_bound")
        _, tail_var = lm.generate_paths(spec, 4, seed=2)
        assert calls == [(d, spec.window) for d in spec.memory.distinct[0].tolist()]
        d, s2 = spec.memory.values, spec.innovations.sigma2
        assert tail_var.tolist() == [
            s2[i] * tail_variance_bound(float(d[i]), spec.window) for i in range(spec.q)]

    def test_figure_recipe_runs(self):
        spec = lm.load_spec("src/longmem/configs/fig1a.json")
        values, _ = lm.generate_paths(spec, 5, seed=20260823)
        assert values.shape == (5, 61)
        assert np.all(np.isfinite(values))


class TestPartialSums:
    def test_direct_n1_equals_first_row(self, long_spec):
        values, _ = lm.generate_paths(long_spec, 1, seed=2)
        assert np.array_equal(partial_sums_direct(values), values[0])

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_z_identity(self, mixed_spec, n):
        values, _ = lm.generate_paths(mixed_spec, n, seed=31)
        direct = partial_sums_direct(values)
        via_z = lm.partial_sums_via_z(mixed_spec, n, seed=31)
        assert _rel_vec(direct, via_z) < 1e-12

    def test_z_hand_examples(self, boundary_spec):
        # with innovations (eps_1, eps_2) = (1, 0) and zeroed past, the
        # partial sum is z_{2,1} = 1.5; with (0, 1) it is z_{2,2} = 1
        z, M = lm.partial_sum_weights(boundary_spec, 2), boundary_spec.window
        # columns are j = 1 - M .. n, so j sits at j + M - 1
        eps = np.zeros(z.shape[1])
        eps[M] = 1.0  # j = 1
        assert float(z[0] @ eps) == pytest.approx(1.5)
        eps[:] = 0.0
        eps[M + 1] = 1.0  # j = 2
        assert float(z[0] @ eps) == pytest.approx(1.0)
