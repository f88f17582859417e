import numpy as np
import pytest
from scipy.special import ndtri

import longmem as lm
from longmem.model import tail_variance_bound
from longmem.simulate import (ORIGIN, _philox_key, _seek, _standard_draws,
                              _standardized_draws, innovation_block)
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

    @pytest.mark.parametrize("rep", [0, 1, 2 ** 64 + 3])
    @pytest.mark.parametrize("q", [3, 5])
    def test_seek_reproduces_a_fresh_generator(self, rep, q):
        # the counter a new Philox generator starts from, word by word; rep
        # 2^64 + 3 sets both high words of the counter
        model = lm.InnovationModel.white(1.0, q=q)
        W = 4 * ((q + 3) // 4)
        key = np.array(_philox_key(7), dtype=np.uint64)
        reused = np.random.Generator(np.random.Philox(1))
        reused.integers(0, 2 ** 32, size=3, dtype=np.uint32)   # leave a half-used word
        for start in (-5, 0, 17):
            expected = []
            for r in range(rep, rep + 3):
                counter = (r << 128) + (start + ORIGIN) * (W // 4)
                fresh = np.random.Generator(np.random.Philox(key=key, counter=counter))
                expected.append(fresh.random((9, W)))
            _seek(reused, 7, rep, start, W)
            assert np.array_equal(reused.random((9, W)), expected[0])
            # three replications in blocks of two: one generator, reset per
            # replication; a block lives in the buffer the next one refills
            blocks = [g.copy() for g in _standard_draws(model, 7, range(rep, rep + 3),
                                                        start, 9, 2)]
            assert [len(g) for g in blocks] == [2, 1]
            assert np.array_equal(np.concatenate(blocks), _standardized_draws(
                np.array(expected)[:, :, :q], "gaussian", model.pareto_alpha, ndtri))

    def test_seek_refuses_a_negative_replication(self):
        gen = np.random.Generator(np.random.Philox(1))
        with pytest.raises(ValueError, match="counter must be positive"):
            _seek(gen, 7, -1, 0, 4)

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

    def test_unfactorizable_model_fatal(self):
        model = lm.InnovationModel.custom([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(lm.ValidationError, match="factoriz"):
            innovation_block(model, seed=1, start=1, count=10)


class TestGeneratePaths:
    def test_shapes_and_determinism(self, mixed_spec):
        a = lm.generate_paths(mixed_spec, 12, seed=3)
        b = lm.generate_paths(mixed_spec, 12, seed=3)
        assert a.values.shape == (12, 4)
        assert np.array_equal(a.values, b.values)
        assert np.all(np.isfinite(a.values))
        assert a.spec_hash == mixed_spec.spec_hash

    def test_huge_d_reduces_to_innovations(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 50.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.5,
        })
        pe = lm.generate_paths(spec, 20, seed=6)
        M = pe.window
        eps = innovation_block(spec.innovations, seed=6, start=1 - M, count=20 + M)
        assert _rel_vec(pe.values[:, 0], eps[M:, 0]) < 1e-14

    def test_linearity_in_innovations(self, long_spec):
        # scaling all innovation variances by lambda^2 scales paths by lambda
        pe1 = lm.generate_paths(long_spec, 10, seed=8)
        cfg = long_spec.to_dict()
        cfg["innovations"] = {"kind": "custom",
                              "sigma": (4.0 * long_spec.innovations.sigma).tolist()}
        spec2 = lm.spec_from_dict(cfg)
        pe2 = lm.generate_paths(spec2, 10, seed=8)
        assert _rel_vec(pe2.values, 2.0 * pe1.values) < 1e-12

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
        for h in lags:
            emp = acc[h] / reps
            exact = cross_covariance_exact(spec, 0.5, 1.0, h).value
            # 4 MC standard errors with a rough variance proxy
            se = 4 * np.sqrt(2.0) * abs(cross_covariance_exact(
                spec, 0.5, 0.5, 0).value) / np.sqrt(reps)
            assert abs(emp - exact) < se

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_tail_bound_once_per_distinct_exponent(self, fixture, request,
                                                   count_calls):
        spec = request.getfixturevalue(fixture)
        calls = count_calls(lm.simulate, "tail_variance_bound")
        pe = lm.generate_paths(spec, 4, seed=2)
        assert calls == [(d, pe.window) for d in spec.memory.distinct[0].tolist()]
        d, s2 = spec.memory.values, spec.innovations.sigma2
        assert pe.truncation_tail_var.tolist() == [
            s2[i] * tail_variance_bound(float(d[i]), pe.window) for i in range(spec.q)]

    def test_figure_recipe_runs(self):
        spec = lm.load_spec("src/longmem/configs/fig1a.json")
        pe = lm.generate_paths(spec, 5, seed=20260823)
        assert pe.values.shape == (5, 61)
        assert np.all(np.isfinite(pe.values))


class TestPartialSums:
    def test_direct_n1_equals_first_row(self, long_spec):
        pe = lm.generate_paths(long_spec, 1, seed=2)
        assert np.array_equal(partial_sums_direct(pe), pe.values[0])

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_z_identity(self, mixed_spec, n):
        pe = lm.generate_paths(mixed_spec, n, seed=31)
        direct = partial_sums_direct(pe)
        via_z = lm.partial_sums_via_z(mixed_spec, n, seed=31)
        assert _rel_vec(direct, via_z) < 1e-12

    def test_z_hand_examples(self, boundary_spec):
        # with innovations (eps_1, eps_2) = (1, 0) and zeroed past, the
        # partial sum is z_{2,1} = 1.5; with (0, 1) it is z_{2,2} = 1
        table = lm.partial_sum_weights(boundary_spec, 2)
        # columns are j = 1 - window .. n, so j sits at j + window - 1
        eps = np.zeros(table.z.shape[1])
        eps[table.window] = 1.0  # j = 1
        assert float(table.z[0] @ eps) == pytest.approx(1.5)
        eps[:] = 0.0
        eps[table.window + 1] = 1.0  # j = 2
        assert float(table.z[0] @ eps) == pytest.approx(1.0)
