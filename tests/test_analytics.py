import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import longmem as lm
from longmem.analytics import _windowed_weights
from oracles import (cross_covariance_exact, partial_sum_covariance_exact,
                     partial_sum_covariance_lagsum)


class TestScaleIntegral:
    def test_against_gamma_oracle_at_075(self, rel):
        # [DERIVED] Gamma(0.25) Gamma(0.5) / Gamma(0.75) = 5.244115...
        oracle = (math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75))
        assert rel(lm.scale_integral(0.75, 0.75), oracle) < 1e-10
        assert rel(lm.scale_integral_closed_form(0.75, 0.75), oracle) < 1e-14
        assert oracle == pytest.approx(5.2441, abs=1e-4)

    def test_parameter_exchange_changes_value_only_off_symmetry(self, rel):
        # symmetric parameters trivially agree
        assert rel(lm.scale_integral(0.75, 0.75), lm.scale_integral(0.75, 0.75)) == 0

    def test_sanity_envelope_d06_d20(self):
        # value positive and inside the splitting-bound envelope (0, 7.5)
        v = lm.scale_integral(0.6, 2.0)
        assert 0.0 < v < 7.5

    def test_rejects_outside_integrability_region(self):
        with pytest.raises(lm.RegimeError, match="1/2 < d_s < 1"):
            lm.scale_integral(1.0, 0.75)
        with pytest.raises(lm.RegimeError, match="d_s \\+ d_t > 1"):
            lm.scale_integral(0.55, 0.40)

    @given(d_s=st.floats(0.55, 0.95), d_t=st.floats(0.55, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_matches_closed_form(self, d_s, d_t):
        a = lm.scale_integral(d_s, d_t)
        b = lm.scale_integral_closed_form(d_s, d_t)
        assert abs(a - b) / abs(b) < 1e-8

    def test_upper_bound(self, rel):
        assert lm.scale_integral_upper_bound(0.75) == pytest.approx(6.0)
        assert lm.scale_integral_upper_bound(0.6) == pytest.approx(7.5)
        assert lm.scale_integral_closed_form(0.75, 0.75) <= 6.0
        assert lm.scale_integral_upper_bound(1 - 1e-9) > 1e8


class TestCrossCovariance:
    def test_zero_sigma_gives_zero(self, mixed_spec):
        # sigma(s,t) = min(s,t) never vanishes here, so build a white spec
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.3,
        })
        cv = cross_covariance_exact(spec, 0.25, 0.5, 3)
        assert cv.value == 0.0 and cv.error_bound == 0.0

    def test_basel_series_at_d1(self, boundary_spec, rel):
        # [DERIVED] sum (j+1)^{-2} = pi^2/6
        cv = cross_covariance_exact(boundary_spec, 0.5, 0.5, 0)
        assert rel(cv.value, math.pi ** 2 / 6) < 1e-9
        assert abs(cv.value - math.pi ** 2 / 6) <= cv.error_bound * 10

    def test_zeta_series_at_d075(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        cv = cross_covariance_exact(spec, 0.5, 0.5, 0)
        # [DERIVED] zeta(1.5) = 2.612375...
        assert rel(cv.value, float(zeta(1.5))) < 1e-9
        assert cv.value == pytest.approx(2.612375, abs=1e-6)

    def test_symmetric_at_lag_zero(self, mixed_spec, rel):
        a = cross_covariance_exact(mixed_spec, 0.25, 1.0, 0).value
        b = cross_covariance_exact(mixed_spec, 1.0, 0.25, 0).value
        assert rel(a, b) < 1e-12

    def test_certified_error_bound_honest(self, mixed_spec):
        # brute force far beyond the internal cutoff as reference
        cv = cross_covariance_exact(mixed_spec, 0.25, 0.5, 7)
        j = np.arange(40_000_000, dtype=float)
        ref = 0.25 * float(np.sum((j + 1) ** (-0.6) * (j + 8) ** (-0.75)))
        # reference itself truncated; allow its own tail on top
        assert abs(cv.value - ref) <= cv.error_bound + 0.25 * 4e7 ** (-0.35) / 0.35


@st.composite
def small_specs(draw):
    """Step/table memory with 1-3 levels in (1/2, 2]; wiener or custom sigma with zeros."""
    q = draw(st.integers(1, 6))
    levels = draw(st.lists(st.floats(0.5, 2.0, exclude_min=True), min_size=1, max_size=3))
    if draw(st.booleans()):
        breaks = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(levels) - 1,
                                      max_size=len(levels) - 1)))
        memory = {"kind": "step", "breakpoints": breaks, "levels": levels}
    else:
        memory = {"kind": "table",
                  "values": draw(st.lists(st.sampled_from(levels), min_size=q, max_size=q))}
    if draw(st.booleans()):
        innovations = {"kind": "wiener"}
    else:
        # sigma = B B^T with small dyadic entries: exactly symmetric, PSD, and
        # zero wherever two rows of B are orthogonal or a row vanishes
        b = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 2.0]),
                          min_size=2 * q, max_size=2 * q))
        B = np.reshape(b, (q, 2))
        innovations = {"kind": "custom", "sigma": (B @ B.T).tolist()}
    return {"grid": {"points": (np.arange(1, q + 1) / q).tolist()},
            "memory": memory, "innovations": innovations, "tail_tol": 0.3}


class TestCrossCovarianceMatrix:
    @given(cfg=small_specs(), h=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_equals_pointwise_oracle_exactly(self, cfg, h):
        spec = lm.spec_from_dict(cfg)
        values, bounds = lm.cross_covariance_matrix(spec, h)
        pts = spec.grid.points
        assert values.shape == bounds.shape == (spec.q, spec.q)
        for i, s in enumerate(pts):
            for j, t in enumerate(pts):
                cv = cross_covariance_exact(spec, float(s), float(t), h)
                assert values[i, j] == cv.value
                assert bounds[i, j] == cv.error_bound
        # the report cached on the spec is the one a fresh spec computes
        assert lm.validate(spec) == lm.validate(lm.spec_from_dict(cfg))

    def test_zero_sigma_entries_are_positive_zero(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "table", "values": [0.7, 1.2]},
            "innovations": {"kind": "custom", "sigma": [[1.0, -0.0], [-0.0, 1.0]]},
        })
        values, bounds = lm.cross_covariance_matrix(spec, 3)
        assert values[0, 1] == bounds[0, 1] == 0.0
        assert math.copysign(1.0, values[0, 1]) == 1.0

    def test_rejects_negative_lag(self, mixed_spec):
        with pytest.raises(ValueError, match="nonnegative"):
            lm.cross_covariance_matrix(mixed_spec, -1)


class TestCrossCovarianceAsymptotic:
    def test_power_law_form(self, rel):
        c = lm.scale_integral_closed_form(0.75, 0.75)
        for h in (10, 1000):
            assert rel(lm.cross_covariance_asymptotic(0.75, 0.75, 1.0, h),
                       c * h ** -0.5) < 1e-14

    def test_boundary_log_form(self, rel):
        h = math.e ** 2
        assert rel(lm.cross_covariance_asymptotic(1.0, 1.0, 1.0, h),
                   2 * math.e ** -2) < 1e-12

    def test_rejects_uncovered_regime(self):
        with pytest.raises(lm.RegimeError, match="not stated"):
            lm.cross_covariance_asymptotic(1.2, 0.8, 1.0, 100)

    def test_ratio_to_exact_approaches_one(self, rel):
        # [DERIVED oracle] the finite-h correction at d_s=d_t=0.75 decays
        # like h^{-1/4}: ratio exact/asymptotic is 0.934 at h=1e4 (frozen),
        # improving to 0.963 at h=1e5
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        r4 = cross_covariance_exact(spec, 0.5, 0.5, 10_000).value \
            / lm.cross_covariance_asymptotic(0.75, 0.75, 1.0, 10_000)
        r5 = cross_covariance_exact(spec, 0.5, 0.5, 100_000).value \
            / lm.cross_covariance_asymptotic(0.75, 0.75, 1.0, 100_000)
        assert r4 == pytest.approx(0.9343786, abs=2e-5)
        assert r5 == pytest.approx(0.9630981, abs=2e-5)
        assert abs(1 - r5) < abs(1 - r4)


class TestClassifiers:
    @pytest.mark.parametrize("d_s,d_t,expected", [
        (1.2, 1.2, "convergent"),
        (0.9, 1.05, "divergent"),   # sum 1.95 <= 2
        (1.0, 1.0, "divergent"),    # needs d_t > 1 strictly
        (3.0, 1.01, "convergent"),
        (1.01, 0.98, "divergent"),  # order-sensitive: lagged coordinate short
    ])
    def test_summability(self, d_s, d_t, expected):
        assert lm.classify_summability(d_s, d_t) == expected

    def test_l2_membership_constants(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.75], "weights": [0.5, 0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        r = lm.l2_membership(spec)
        assert r.member and r.verdict == "yes"
        assert r.integral_sigma2 == pytest.approx(1.0)
        assert r.integral_weighted == pytest.approx(2.0)

    def test_l2_membership_boundary(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5], "weights": [1.0]},
            "memory": {"kind": "constant", "values": 1.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        r = lm.l2_membership(spec)
        assert (r.integral_sigma2, r.integral_weighted) == (1.0, 1.0)

    def test_l2_blowup_near_half(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.75], "weights": [0.5, 0.5]},
            "memory": {"kind": "table", "values": [0.75, 0.5 + 1e-15]},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert lm.l2_membership(spec).verdict == "no"


def _column(table, j):
    """z_{n,j} over the grid: the table's columns are j = 1 - window .. n."""
    return table.z[:, j + table.window - 1]


class TestCoefficientTable:
    def test_hand_values_n2_d1(self, boundary_spec):
        table = lm.partial_sum_weights(boundary_spec, 2)
        assert _column(table, 2)[0] == pytest.approx(1.0)
        assert _column(table, 1)[0] == pytest.approx(1.5)
        assert _column(table, 0)[0] == pytest.approx(1 / 2 + 1 / 3)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_against_brute_force_accumulation(self, mixed_spec, n, rel):
        # brute-force oracle: accumulate (j+1)^{-d} over the double loop of
        # the truncated model
        table = lm.partial_sum_weights(mixed_spec, n)
        M = table.window
        assert table.z.shape == (4, n + M)
        for i, d in enumerate(mixed_spec.memory.values):
            acc = {}
            for k in range(1, n + 1):
                for j in range(M + 1):
                    m = k - j
                    acc[m] = acc.get(m, 0.0) + (j + 1.0) ** (-d)
            for pos, m in enumerate(range(1 - M, n + 1)):
                assert rel(table.z[i, pos], acc.get(int(m), 0.0)) < 1e-10

    def test_defining_formulas_when_window_covers(self, mixed_spec, rel):
        n = 8
        table = lm.partial_sum_weights(mixed_spec, n)
        # the window only bites for j < n - window; all js below are inside
        assert n - table.window < -3
        for i, d in enumerate(mixed_spec.memory.values):
            for j in range(2, n + 1):
                ref = sum(k ** (-d) for k in range(1, n - j + 2))
                assert rel(_column(table, j)[i], ref) < 1e-10
            for j in (1, 0, -3):
                ref = sum((k - j + 1.0) ** (-d) for k in range(1, n + 1))
                assert rel(_column(table, j)[i], ref) < 1e-10

    def test_rows_are_the_weights_of_their_exponent(self, repeated_spec):
        n = 16
        table = lm.partial_sum_weights(repeated_spec, n)
        for i, d in enumerate(repeated_spec.memory.values):
            assert np.array_equal(table.z[i], _windowed_weights(float(d), n, table.window))

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_weights_built_once_per_distinct_exponent(self, fixture, request,
                                                      count_calls):
        spec = request.getfixturevalue(fixture)
        weights = count_calls(lm.analytics, "_windowed_weights")
        series = count_calls(lm.analytics, "partial_sum_covariance_series")
        lm.partial_sum_weights(spec, 16)
        exponents = spec.memory.distinct[0].tolist()
        assert [args[0] for args in weights] == exponents
        assert [args[:2] for args in series] == [(d, d) for d in exponents]

    def test_tail_var_certifies_untruncated_gap(self):
        # the lag-sum oracle at a window of 12,500 n: its loss against the
        # table is a lower bound on the true loss, which tail_var certifies
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.8},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.2,
        })
        n = 16
        table = lm.partial_sum_weights(spec, n)
        assert table.window == 8
        wide = partial_sum_covariance_lagsum(spec, n, 0.5, 0.5, window=200_000)
        loss = wide - float(np.dot(table.z[0], table.z[0]))
        assert 0 < loss <= table.tail_var[0] <= 1.01 * loss

    def test_tail_var_is_tight_on_long_reference(self):
        # the loss actually incurred is 0.476 of sigma^2 b_n^2 at every point
        spec = lm.load_spec("src/longmem/configs/clt_long_reference.json")
        n = 4096
        table = lm.partial_sum_weights(spec, n)
        b = lm.normalization_plan(spec, n).b
        normalized = table.tail_var / (spec.innovations.sigma2 * b ** 2)
        assert np.all((0.476 <= normalized) & (normalized <= 0.6))


class TestPartialSumCovariance:
    def test_n1_reduces_to_lag0(self, long_spec, rel):
        # S_1 = X_1: the lag-0 covariance of the spec's truncated model, not
        # the untruncated series value
        M = long_spec.window
        assert M == 11
        a = partial_sum_covariance_exact(long_spec, 1, 0.5, 0.75)
        assert a == partial_sum_covariance_lagsum(long_spec, 1, 0.5, 0.75, window=M)
        truncated_lag0 = 0.5 * sum((k + 1.0) ** -1.4 for k in range(M + 1))
        assert rel(a, truncated_lag0) < 1e-12
        assert a < cross_covariance_exact(long_spec, 0.5, 0.75, 0).value

    def test_routes_agree(self, mixed_spec, rel):
        for n in (2, 7, 33):
            vb = partial_sum_covariance_exact(mixed_spec, n, 0.25, 1.0)
            va = partial_sum_covariance_lagsum(mixed_spec, n, 0.25, 1.0)
            assert rel(va, vb) < 1e-10

    def test_series_matches_windowed_as_window_grows(self):
        # the window-M value increases toward the untruncated series value;
        # the gap decays like the M^{1-2d} coefficient tail
        ref = lm.partial_sum_covariance_series(0.75, 0.75, 1.0, 32)
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        gaps = []
        for M in (10_000, 100_000, 400_000):
            v = partial_sum_covariance_exact(spec, 32, 0.5, 0.5, window=M)
            gap = ref.value - v
            assert 0 <= gap <= 2 * 32 ** 2 * M ** -0.5 / 0.5
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_series_brute_force_small_n(self, rel):
        # triple-sum oracle with a very deep window
        d = 0.8
        n = 8
        M = 2_000_000
        j = np.arange(M + 1, dtype=float)
        c = (j + 1.0) ** (-d)
        r = [float(np.dot(c[: M - h + 1], c[h:])) for h in range(n)]
        oracle = n * r[0] + 2 * sum((n - h) * r[h] for h in range(1, n))
        diff = lm.partial_sum_covariance_series(d, d, 1.0, n).value - oracle
        # the oracle is itself window-truncated; its missing tail is at most
        # n^2 M^{1-2d}/(2d-1)
        assert 0 <= diff <= 2 * n ** 2 * M ** (1 - 2 * d) / (2 * d - 1)

    def test_asymptotic_constant(self, rel):
        # [DERIVED] 2 c(0.75,0.75) / (0.5 * 1.5) = 13.984...
        v = lm.partial_sum_covariance_asymptotic(0.75, 0.75, 1.0, 1000)
        c = lm.scale_integral_closed_form(0.75, 0.75)
        assert rel(v, 2 * c / 0.75 * 1000 ** 1.5) < 1e-14
        assert 2 * c / 0.75 == pytest.approx(13.9843, abs=1e-3)

    def test_asymptotic_boundary(self, rel):
        assert rel(lm.partial_sum_covariance_asymptotic(1.0, 1.0, 1.0, 64),
                   64 * math.log(64) ** 2) < 1e-14

    def test_asymptotic_rejects_mixed(self):
        with pytest.raises(lm.RegimeError):
            lm.partial_sum_covariance_asymptotic(0.75, 1.0, 1.0, 64)

    def test_exact_over_asymptotic_trend(self):
        ratios = [lm.partial_sum_covariance_series(0.75, 0.75, 1.0, 2 ** k).value
                  / lm.partial_sum_covariance_asymptotic(0.75, 0.75, 1.0, 2 ** k)
                  for k in range(6, 13)]
        assert all(np.diff(ratios) > 0)
        assert ratios[-1] < 1.0


class TestLimitKernelAndPlan:
    def test_boundary_kernel_is_sigma(self, boundary_spec):
        kern = lm.limit_kernel(boundary_spec)
        assert kern.regime == "boundary"
        assert np.allclose(kern.K, boundary_spec.innovations.sigma)

    def test_long_kernel_diagonal_constant(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        kern = lm.limit_kernel(spec)
        assert kern.K[0, 0] == pytest.approx(13.9843, abs=1e-3)

    def test_kernel_zero_where_sigma_zero(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert lm.limit_kernel(spec).K[0, 1] == 0.0

    def test_long_kernel_entries_are_asymptotic_constants(self, repeated_spec):
        # K(s, t) is the n^{3-D} coefficient of E[S_n(s) S_n(t)]
        d, sigma = repeated_spec.memory.values, repeated_spec.innovations.sigma
        expected = [[lm.partial_sum_covariance_asymptotic(d[i], d[j], sigma[i, j], 1)
                     for j in range(4)] for i in range(4)]
        assert np.array_equal(lm.limit_kernel(repeated_spec).K, expected)

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_kernel_constants_once_per_distinct_pair(self, fixture, request,
                                                     count_calls):
        spec = request.getfixturevalue(fixture)
        calls = count_calls(lm.analytics, "scale_integral_closed_form")
        lm.limit_kernel(spec)
        exponents = spec.memory.distinct[0].tolist()
        assert calls == [(a, b) for a in exponents for b in exponents]

    def test_kernel_psd(self, long_spec):
        eig = np.linalg.eigvalsh(lm.limit_kernel(long_spec).K)
        assert eig.min() >= -1e-10 * eig.max()

    def test_mixed_regime_rejected(self, mixed_spec):
        with pytest.raises(lm.RegimeError, match="mixed regimes"):
            lm.limit_kernel(mixed_spec)
        with pytest.raises(lm.RegimeError, match="mixed regimes"):
            lm.normalization_plan(mixed_spec, 64)

    def test_plan_values(self, long_spec, boundary_spec, rel):
        plan = lm.normalization_plan(long_spec, 100)
        assert np.allclose(plan.b, 100 ** 0.8)
        planb = lm.normalization_plan(boundary_spec, 64)
        assert np.allclose(planb.b, math.sqrt(64) * math.log(64))

    def test_plan_d06(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.6},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert lm.normalization_plan(spec, 100).b[0] == pytest.approx(100 ** 0.9)

    def test_boundary_plan_needs_n2(self, boundary_spec):
        with pytest.raises(ValueError):
            lm.normalization_plan(boundary_spec, 1)


class TestDominatingBound:
    def test_power_regime_value(self, rel):
        # [DERIVED] 1 + 2 + 5.2441/0.375
        assert lm.dominating_bound(0.75, 1.0) == pytest.approx(16.984, abs=2e-3)

    def test_zero_sigma(self):
        assert lm.dominating_bound(0.75, 0.0) == 0.0

    def test_dominates_normalized_variance(self):
        for d in (0.6, 0.9):
            bound = lm.dominating_bound(d, 1.0)
            for n in (1, 2, 16, 256, 1024):
                v = lm.partial_sum_covariance_series(d, d, 1.0, n).value
                assert v / n ** (3 - 2 * d) <= bound

    def test_boundary_constant_dominates(self):
        bound = lm.dominating_bound(1.0, 1.0)
        for n in (2, 3, 16, 1024):
            v = lm.partial_sum_covariance_series(1.0, 1.0, 1.0, n).value
            assert v / (n * math.log(n) ** 2) <= bound

    def test_rejects_short_memory(self):
        with pytest.raises(lm.RegimeError):
            lm.dominating_bound(1.5, 1.0)
