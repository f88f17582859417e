import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import longmem as lm
from longmem.analytics import (LAG_BLOCK, MAX_LAG, _binomial_tail, _lag_series,
                               _tanh_sinh_rule, _windowed_weights)
from oracles import (cross_covariance_exact, dominating_bound,
                     partial_sum_covariance_asymptotic, partial_sum_covariance_exact,
                     partial_sum_covariance_lagsum, scale_integral_quad,
                     scale_integral_upper_bound, window_tail_quad)


# 40-digit Gamma(1-d_s) Gamma(d_s+d_t-1) / Gamma(d_t) (mpmath) at exponents
# where the closed form's exp(gammaln) loses digits (d_t = 50, 200) or the
# integrand turns sharp (d_s -> 1, d_s + d_t -> 1)
SCALE_INTEGRAL_REFERENCES = [
    ((0.999999, 2.0), "999998.9999728892679065789884491270173663"),
    ((0.5000001, 0.5000001), "5000001.388926497034945159827541777681359"),
    ((0.55, 50.0), "0.3406987454690329088376557945550249218553"),
    ((0.6, 50.0), "0.4664998526830206805167147347657340870298"),
    ((0.75, 50.0), "1.367736882577794741993103783841922823921"),
    ((0.75, 200.0), "0.964857758178197030477544558538289637083"),
    ((0.9, 200.0), "5.602182142843328576010542551618367945812"),
]

# d_s from near 1/2 to near 1, d_t from d_s + d_t = 1.01 to 5, and the edges
# of the regime, where QUADPACK misses by 1.2e-6, 3.1e-7 and 7.5e-8
SCALE_INTEGRAL_SWEEP = [
    (float(d_s), float(d_t)) for d_s in np.linspace(0.505, 0.995, 50)
    for d_t in np.linspace(1.01 - d_s, 5.0, 40)
] + [(0.999999, 2.0), (0.6, 0.400001), (0.5000001, 0.5000001)]

# acceptance criterion A1's grid
A1_GRID = [(float(d_s), float(d_t)) for d_s in np.arange(0.55, 0.9501, 0.05)
           for d_t in np.linspace(0.55, 3.0, 12)]


class TestScaleIntegral:
    def test_against_gamma_oracle_at_075(self, rel):
        # [DERIVED] Gamma(0.25) Gamma(0.5) / Gamma(0.75) = 5.244115...
        oracle = (math.gamma(0.25) * math.gamma(0.5) / math.gamma(0.75))
        assert rel(lm.scale_integral(0.75, 0.75), oracle) < 1e-14
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

    def test_rejection_prints_the_exponents_in_full(self):
        with pytest.raises(lm.RegimeError, match="got d_s=0.4999999$"):
            lm.scale_integral(0.4999999, 0.75)
        with pytest.raises(lm.RegimeError, match="got d_s=0.6, d_t=0.3999999$"):
            lm.scale_integral_closed_form(0.6, 0.3999999)

    @given(d_s=st.floats(0.55, 0.95), d_t=st.floats(0.55, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_matches_closed_form(self, d_s, d_t):
        a = lm.scale_integral(d_s, d_t)
        b = lm.scale_integral_closed_form(d_s, d_t)
        assert abs(a - b) / abs(b) < 1e-14

    def test_rule_matches_closed_form_to_the_edges_of_the_regime(self, rel):
        worst = max(rel(lm.scale_integral(d_s, d_t), lm.scale_integral_closed_form(d_s, d_t))
                    for d_s, d_t in SCALE_INTEGRAL_SWEEP)
        assert worst <= 1e-14

    @pytest.mark.parametrize("d, reference", SCALE_INTEGRAL_REFERENCES)
    def test_rule_matches_40_digit_reference(self, d, reference):
        miss = abs(Decimal(lm.scale_integral(*d)) - Decimal(reference))
        assert miss <= Decimal("1e-14") * Decimal(reference)

    @pytest.mark.parametrize("d, reference", SCALE_INTEGRAL_REFERENCES)
    def test_closed_form_matches_40_digit_reference(self, d, reference):
        # exp of a difference of lgammas loses relative accuracy as lgamma(d_t)
        # grows: 2.4e-15 for d_t <= 2, 1.8e-13 at d_t = 50 and 200
        miss = abs(Decimal(lm.scale_integral_closed_form(*d)) - Decimal(reference))
        bound = Decimal("1e-14") if d[1] <= 2.0 else Decimal("5e-13")
        assert miss <= bound * Decimal(reference)

    def test_rule_matches_quadpack_oracle_on_the_A1_grid(self, rel):
        assert max(rel(lm.scale_integral(d_s, d_t), scale_integral_quad(d_s, d_t))
                   for d_s, d_t in A1_GRID) <= 1e-10

    def test_rule_is_built_once_and_read_only(self):
        log_u, w = _tanh_sinh_rule()
        assert _tanh_sinh_rule()[0] is log_u and len(log_u) == len(w) == 207
        assert not (log_u.flags.writeable or w.flags.writeable)
        # near u = 0, log u = pi sinh t to full relative precision
        assert log_u[0] == pytest.approx(-math.pi * math.sinh(103 / 32), rel=1e-15)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)

    def test_upper_bound(self, rel):
        assert scale_integral_upper_bound(0.75) == pytest.approx(6.0)
        assert scale_integral_upper_bound(0.6) == pytest.approx(7.5)
        assert lm.scale_integral_closed_form(0.75, 0.75) <= 6.0
        assert scale_integral_upper_bound(1 - 1e-9) > 1e8


class TestCrossCovariance:
    def test_zero_sigma_gives_zero(self, mixed_spec):
        # sigma(s,t) = min(s,t) never vanishes here, so build a white spec
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.3,
        })
        assert cross_covariance_exact(spec, 0.25, 0.5, 3) == (0.0, 0.0)

    def test_basel_series_at_d1(self, boundary_spec, rel):
        # [DERIVED] sum (j+1)^{-2} = pi^2/6
        value, bound = cross_covariance_exact(boundary_spec, 0.5, 0.5, 0)
        assert rel(value, math.pi ** 2 / 6) < 1e-9
        assert abs(value - math.pi ** 2 / 6) <= bound * 10

    def test_zeta_series_at_d075(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        value, _ = cross_covariance_exact(spec, 0.5, 0.5, 0)
        # [DERIVED] zeta(1.5) = 2.612375...
        assert rel(value, float(zeta(1.5))) < 1e-9
        assert value == pytest.approx(2.612375, abs=1e-6)

    def test_symmetric_at_lag_zero(self, mixed_spec, rel):
        a, _ = cross_covariance_exact(mixed_spec, 0.25, 1.0, 0)
        b, _ = cross_covariance_exact(mixed_spec, 1.0, 0.25, 0)
        assert rel(a, b) < 1e-12

    def test_certified_error_bound_honest(self, mixed_spec):
        # brute force far beyond the internal cutoff as reference
        value, bound = cross_covariance_exact(mixed_spec, 0.25, 0.5, 7)
        j = np.arange(40_000_000, dtype=float)
        ref = 0.25 * float(np.sum((j + 1) ** (-0.6) * (j + 8) ** (-0.75)))
        # reference itself truncated; allow its own tail on top
        assert abs(value - ref) <= bound + 0.25 * 4e7 ** (-0.35) / 0.35


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
                assert (values[i, j], bounds[i, j]) == cross_covariance_exact(
                    spec, float(s), float(t), h)
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

    @pytest.mark.parametrize("innovations, pairs", [
        # nonzero everywhere: all 9 distinct pairs, row-major
        ({"kind": "wiener"}, [(a, b) for a in (0.6, 0.8, 1.2) for b in (0.6, 0.8, 1.2)]),
        # diagonal: 3 pairs, not 9
        ({"kind": "white", "sigma2": 1.0}, [(0.6, 0.6), (0.8, 0.8), (1.2, 1.2)]),
        ({"kind": "custom", "sigma": np.zeros((4, 4)).tolist()}, []),
    ], ids=["wiener", "white", "zero"])
    def test_lag_series_once_per_distinct_pair_with_nonzero_sigma(self, innovations, pairs,
                                                                   count_calls):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.2, 0.4, 0.6, 0.8]},
            "memory": {"kind": "table", "values": [1.2, 0.6, 0.8, 0.6]},
            "innovations": innovations,
        })
        calls = count_calls(lm.analytics, "_lag_series")
        lm.cross_covariance_matrix(spec, 7)
        assert calls == [(d_s, d_t, 7) for d_s, d_t in pairs]


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
        r4, r5 = (cross_covariance_exact(spec, 0.5, 0.5, h)[0]
                  / lm.cross_covariance_asymptotic(0.75, 0.75, 1.0, h)
                  for h in (10_000, 100_000))
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
        assert r.integral_sigma2 == pytest.approx(1.0)
        assert r.integral_weighted == pytest.approx(2.0)
        # a constant field takes its minimum at the first grid point
        assert (r.min_d_minus_half, r.min_d_point) == (0.25, 0.25)

    def test_l2_membership_boundary(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5], "weights": [1.0]},
            "memory": {"kind": "constant", "values": 1.0},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        r = lm.l2_membership(spec)
        assert (r.integral_sigma2, r.integral_weighted) == (1.0, 1.0)

    def test_l2_blowup_near_half(self):
        # the weighted quadrature is large but finite: the report names how
        # near d comes to 1/2, and where, instead of a thresholded verdict
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.75], "weights": [0.5, 0.5]},
            "memory": {"kind": "table", "values": [0.75, 0.5 + 1e-15]},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        r = lm.l2_membership(spec)
        assert r.min_d_minus_half == pytest.approx(1e-15, rel=1e-3)
        assert r.min_d_point == 0.75
        assert r.integral_weighted == pytest.approx(1.0 + 0.5 / (2.0 * r.min_d_minus_half))
        assert math.isfinite(r.integral_weighted) and r.integral_weighted > 1e14


def _column(z, M, j):
    """z_{n,j} per distinct exponent: the columns of z are j = 1 - M .. n."""
    return z[:, j + M - 1]


class TestCoefficientTable:
    def test_hand_values_n2_d1(self, boundary_spec):
        z, M = lm.partial_sum_weights(boundary_spec, 2), boundary_spec.window
        assert _column(z, M, 2)[0] == pytest.approx(1.0)
        assert _column(z, M, 1)[0] == pytest.approx(1.5)
        assert _column(z, M, 0)[0] == pytest.approx(1 / 2 + 1 / 3)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_against_brute_force_accumulation(self, mixed_spec, n, rel):
        # brute-force oracle: accumulate (j+1)^{-d} over the double loop of
        # the truncated model
        z = lm.partial_sum_weights(mixed_spec, n)
        M = mixed_spec.window
        assert z.shape == (4, n + M)
        for i, d in enumerate(mixed_spec.memory.distinct[0]):
            acc = {}
            for k in range(1, n + 1):
                for j in range(M + 1):
                    m = k - j
                    acc[m] = acc.get(m, 0.0) + (j + 1.0) ** (-d)
            for pos, m in enumerate(range(1 - M, n + 1)):
                assert rel(z[i, pos], acc.get(int(m), 0.0)) < 1e-10

    def test_defining_formulas_when_window_covers(self, mixed_spec, rel):
        n = 8
        z, M = lm.partial_sum_weights(mixed_spec, n), mixed_spec.window
        # the window only bites for j < n - window; all js below are inside
        assert n - M < -3
        for i, d in enumerate(mixed_spec.memory.distinct[0]):
            for j in range(2, n + 1):
                ref = sum(k ** (-d) for k in range(1, n - j + 2))
                assert rel(_column(z, M, j)[i], ref) < 1e-10
            for j in (1, 0, -3):
                ref = sum((k - j + 1.0) ** (-d) for k in range(1, n + 1))
                assert rel(_column(z, M, j)[i], ref) < 1e-10

    def test_rows_are_the_weights_of_their_exponent(self, repeated_spec):
        n = 16
        z, M = lm.partial_sum_weights(repeated_spec, n), repeated_spec.window
        _, idx = repeated_spec.memory.distinct
        for i, d in enumerate(repeated_spec.memory.values):
            assert np.array_equal(z[idx[i]], _windowed_weights(float(d), n, M))

    def test_one_row_per_distinct_exponent(self):
        spec = lm.spec_from_dict({
            "grid": {"linspace": [0.125, 1.0, 8]},
            "memory": {"kind": "step", "breakpoints": [0.5], "levels": [0.6, 0.8]},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.3,
        })
        n = 16
        z = lm.partial_sum_weights(spec, n)
        assert len(spec.memory.distinct[0]) == 2
        assert z.shape == (2, n + spec.window)
        assert lm.run_clt_experiment(spec, n, 100, seed=1).truncation_tail_var.shape == (8,)

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_weights_built_once_per_distinct_exponent(self, fixture, request,
                                                      count_calls):
        spec = request.getfixturevalue(fixture)
        weights = count_calls(lm.analytics, "_windowed_weights")
        lm.partial_sum_weights(spec, 16)
        exponents = spec.memory.distinct[0].tolist()
        assert [args[0] for args in weights] == exponents
        # the truncation certificate: one untruncated series per exponent
        series = count_calls(lm.mcverify, "partial_sum_covariance_series")
        lm.run_clt_experiment(spec, 16, 100, seed=1)
        assert [args[:2] for args in series] == [(d, d) for d in exponents]

    def test_tail_var_certifies_untruncated_gap(self):
        # the lag-sum oracle at a window of 12,500 n: its loss against the
        # weights is a lower bound on the true loss, which tail_var certifies
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.8},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.2,
        })
        n = 16
        z = lm.partial_sum_weights(spec, n)
        assert spec.window == 8
        wide = partial_sum_covariance_lagsum(spec, n, 0.5, 0.5, window=200_000)
        b = lm.normalization_plan(spec, n)
        loss = (wide - float(np.dot(z[0], z[0]))) / b[0] ** 2
        tail_var = lm.run_clt_experiment(spec, n, 100, seed=1).truncation_tail_var
        assert 0 < loss <= tail_var[0] <= 1.01 * loss

    def test_tail_var_is_tight_on_long_reference(self):
        # the loss actually incurred is 0.476 of sigma^2 b_n^2 at every point
        spec = lm.load_spec("src/longmem/configs/clt_long_reference.json")
        n = 4096
        report = lm.run_clt_experiment(spec, n, 100, seed=1)
        normalized = report.truncation_tail_var / spec.innovations.sigma2
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
        assert a < cross_covariance_exact(long_spec, 0.5, 0.75, 0)[0]

    def test_routes_agree(self, mixed_spec, rel):
        for n in (2, 7, 33):
            vb = partial_sum_covariance_exact(mixed_spec, n, 0.25, 1.0)
            va = partial_sum_covariance_lagsum(mixed_spec, n, 0.25, 1.0)
            assert rel(va, vb) < 1e-10

    def test_series_matches_windowed_as_window_grows(self):
        # the window-M value increases toward the untruncated series value;
        # the gap decays like the M^{1-2d} coefficient tail
        ref, _ = lm.partial_sum_covariance_series(0.75, 0.75, 32)
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        gaps = []
        for M in (10_000, 100_000, 400_000):
            v = partial_sum_covariance_exact(spec, 32, 0.5, 0.5, window=M)
            gap = ref - v
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
        value, _ = lm.partial_sum_covariance_series(d, d, n)
        diff = value - oracle
        # the oracle is itself window-truncated; its missing tail is at most
        # n^2 M^{1-2d}/(2d-1)
        assert 0 <= diff <= 2 * n ** 2 * M ** (1 - 2 * d) / (2 * d - 1)

    def test_asymptotic_constant(self, rel):
        # [DERIVED] 2 c(0.75,0.75) / (0.5 * 1.5) = 13.984...
        v = partial_sum_covariance_asymptotic(0.75, 0.75, 1.0, 1000)
        c = lm.scale_integral_closed_form(0.75, 0.75)
        assert rel(v, 2 * c / 0.75 * 1000 ** 1.5) < 1e-14
        assert 2 * c / 0.75 == pytest.approx(13.9843, abs=1e-3)

    def test_asymptotic_boundary(self, rel):
        assert rel(partial_sum_covariance_asymptotic(1.0, 1.0, 1.0, 64),
                   64 * math.log(64) ** 2) < 1e-14

    def test_asymptotic_rejects_mixed(self):
        with pytest.raises(lm.RegimeError):
            partial_sum_covariance_asymptotic(0.75, 1.0, 1.0, 64)

    def test_exact_over_asymptotic_trend(self):
        ratios = [lm.partial_sum_covariance_series(0.75, 0.75, 2 ** k)[0]
                  / partial_sum_covariance_asymptotic(0.75, 0.75, 1.0, 2 ** k)
                  for k in range(6, 13)]
        assert all(np.diff(ratios) > 0)
        assert ratios[-1] < 1.0


# int_A^inf F_s(y) F_t(y) dy with F_d(y) = int_y^{y+n} u^{-d} du at the
# default A = max(4096, 8n) + 1, to 50 digits.  Computed with mpmath 1.3.0 at
# 60 digits: tanh-sinh quadrature on (0, 1] after y = A w^{-1/(D-1)}, which
# makes the y^{2-D} decay bounded, with F_d(y) = y^{1-d} expm1((1-d)
# log1p(n/y))/(1-d) (log1p(n/y) at d = 1).  The power series in n/A summed
# to 300 terms at the same precision agrees to 1e-30 relative or better.
WINDOW_TAIL_REFERENCES = [
    ((0.51, 0.51), 1, "4.2336955590233880147554745184144729435743865596795e+1"),
    ((0.51, 0.51), 7, "2.074480461803773670924389515544185350096397870032e+3"),
    ((0.51, 0.51), 512, "1.1085058104338174649664157275726210747645946834812e+7"),
    ((0.51, 0.51), 65536, "1.6482219577623148107992225509233646339478153188779e+11"),
    ((0.6, 0.6), 1, "9.4725348572263569147329130355233341298689166045843e-1"),
    ((0.6, 0.6), 7, "4.6408628103117072588038375150191479214264554021218e+1"),
    ((0.6, 0.6), 512, "2.4535557490564349634730881798559675382181881064688e+5"),
    ((0.6, 0.6), 65536, "1.5233289506021886942683060810132138288595425634761e+9"),
    ((0.55, 0.95), 1, "3.1244279567177655005691323156377618061306725432954e-2"),
    ((0.55, 0.95), 7, "1.5304096522323863727120366790117573169307235409193"),
    ((0.55, 0.95), 512, "7.9489756216531942269218909273294354462671913575104e+3"),
    ((0.55, 0.95), 65536, "1.1512660076752560630984043509163788875463914833503e+7"),
    ((0.7, 0.7), 1, "8.9728916631962557716876604250193795671735182097593e-2"),
    ((0.7, 0.7), 7, "4.3954301527664309376569990341670800047010614263522"),
    ((0.7, 0.7), 512, "2.2964863453352456023166711364715421260740509822189e+4"),
    ((0.7, 0.7), 65536, "5.4030559481584606235172002823274178484289031476727e+7"),
    ((1.0, 1.0), 1, "2.4405125157021237077869941298473461019235974920236e-4"),
    ((1.0, 1.0), 7, "1.1949764158799944034857146585568138857522437741216e-2"),
    ((1.0, 1.0), 512, "6.0267815368217765108867197538754896675401958594398e+1"),
    ((1.0, 1.0), 65536, "7.7160418094052334335911261797740456402584714503307e+3"),
    ((2.0, 2.0), 1, "4.845313326261796093028481752048885033587169511491e-12"),
    ((2.0, 2.0), 7, "2.3689983394345287019052887881989023988207030416299e-10"),
    ((2.0, 2.0), 512, "1.0637953355435978238785589148716408375212005023191e-6"),
    ((2.0, 2.0), 65536, "8.3166024004449213834284036339563689719133621673016e-9"),
    ((5.0, 5.0), 1, "3.4126117619481366619315655005057222516897982154685e-34"),
    ((5.0, 5.0), 7, "1.6612110576966958334507616238103390568350488758168e-32"),
    ((5.0, 5.0), 512, "5.3395635080487177735068291937098690858330708339508e-29"),
    ((5.0, 5.0), 65536, "9.5045726793305696239770126132680149965071991044292e-44"),
]


def _window_sides(d, n):
    """The ``_binomial_tail`` sides of F_d(y) = int_y^{y+n} u^{-d} du, d = (d_s, d_t)."""
    return [(1.0 - x, 1, n) for x in d]


class TestWindowTail:
    @pytest.mark.parametrize("d, n, reference", WINDOW_TAIL_REFERENCES)
    def test_series_matches_50_digit_reference(self, d, n, reference):
        value, err = _binomial_tail(*_window_sides(d, n), max(4096, 8 * n) + 1.0)
        miss = abs(Decimal(value) - Decimal(reference))
        assert miss <= Decimal("2e-15") * Decimal(reference)
        assert miss <= Decimal(err)
        assert err <= 2e-13 * value

    @pytest.mark.parametrize("d, n, reference",
                             [case for case in WINDOW_TAIL_REFERENCES if sum(case[0]) >= 1.4])
    def test_quadpack_oracle_agrees_where_the_integrand_decays_fast(self, d, n, reference,
                                                                    rel):
        A = max(4096, 8 * n) + 1.0
        assert rel(window_tail_quad(*d, n, A)[0],
                   _binomial_tail(*_window_sides(d, n), A)[0]) < 1e-8


# int_A^inf y^{-d_s} (y+h)^{-d_t} dy, the tail of the lag-h series at
# A = max(4096, 4h) + 1.5, to 40 digits.  Computed with mpmath 1.3.0 at 60
# digits as A^{1-D}/(D-1) 2F1(d_t, D-1; D; -h/A), D = d_s + d_t, which
# tanh-sinh quadrature of A^{1-D}/(D-1) int_0^1 (1 + h w^{1/(D-1)}/A)^{-d_t} dw
# matches to 1e-45 relative.  The exponents are the binary doubles.
LAG_TAIL_REFERENCES = [
    ((0.51, 0.51), 0, "4.233695558863164517941890775580511225039e+1"),
    ((0.51, 0.51), 1, "4.23368522743740933037962938248722138349e+1"),
    ((0.51, 0.51), 10, "4.233592330996527042018751086390623612043e+1"),
    ((0.51, 0.51), 100, "4.23267180435506071095652302217585489487e+1"),
    ((0.51, 0.51), 1000, "4.224211198456679125483373872955376749987e+1"),
    ((0.51, 0.51), 100000, "3.854188271480644635691705372484385054561e+1"),
    ((0.51, 0.51), 1250000, "3.664331466841360515271542674429415953749e+1"),
    ((0.6, 0.7), 0, "2.748672874586787935154615503591408982751e-1"),
    ((0.6, 0.7), 1, "2.748564524535740894453448295340937781975e-1"),
    ((0.6, 0.7), 10, "2.747590515658958100043520432023819313384e-1"),
    ((0.6, 0.7), 100, "2.737961743237178242201938846160896150458e-1"),
    ((0.6, 0.7), 1000, "2.65135511639010458605050588009176467067e-1"),
    ((0.6, 0.7), 100000, "6.70279143102078181751992177644073316925e-2"),
    ((0.6, 0.7), 1250000, "3.141833027745396662227178165209877327279e-2"),
    ((0.6, 2.0), 0, "1.037169358502176209302079946509698644985e-6"),
    ((0.6, 2.0), 1, "1.036857905488673266296892227491102047305e-6"),
    ((0.6, 2.0), 10, "1.034062220636573801436062449734716645511e-6"),
    ((0.6, 2.0), 100, "1.006819024622436899208995004775981734078e-6"),
    ((0.6, 2.0), 1000, "7.91234049144857631668507296504650615579e-7"),
    ((0.6, 2.0), 100000, "5.15763929914827857075651880905237580784e-10"),
    ((0.6, 2.0), 1250000, "9.065608681377153723178052997668895197239e-12"),
    ((2.0, 0.6), 0, "1.037169358502176209302079946509698644985e-6"),
    ((2.0, 0.6), 1, "1.037075911070928605991908715032495588029e-6"),
    ((2.0, 0.6), 10, "1.036236068111240929898141786602311094886e-6"),
    ((2.0, 0.6), 100, "1.027952941253250627555806494435640962702e-6"),
    ((2.0, 0.6), 1000, "9.550368616291738423444486880571697843952e-7"),
    ((2.0, 0.6), 100000, "6.251025855912145259291852387191530760623e-10"),
    ((2.0, 0.6), 1250000, "1.098746629579973623226508922336377345959e-11"),
    ((1.0, 1.0), 0, "2.440512507626601586333129957291031116534e-4"),
    ((1.0, 1.0), 1, "2.440214751005872834547370876299377912181e-4"),
    ((1.0, 1.0), 10, "2.437539293438395019261610502165193132125e-4"),
    ((1.0, 1.0), 100, "2.411207833371113484448983617948890166934e-4"),
    ((1.0, 1.0), 1000, "2.183731918306254907916308347717793630311e-4"),
    ((1.0, 1.0), 100000, "2.231428013167409971881992786866819156716e-6"),
    ((1.0, 1.0), 1250000, "1.785147930513807646095224732043153413017e-7"),
    ((0.55, 0.95), 0, "3.124427952522894445200364349502965852105e-2"),
    ((0.55, 0.95), 1, "3.12418652215016887105217044448790310978e-2"),
    ((0.55, 0.95), 10, "3.122016745610141200742192490853842530648e-2"),
    ((0.55, 0.95), 100, "3.100620406964154158241669682308918906701e-2"),
    ((0.55, 0.95), 1000, "2.912453427800603022283462822127267879323e-2"),
    ((0.55, 0.95), 100000, "2.943137696244339151816944111396013341801e-3"),
    ((0.55, 0.95), 1250000, "8.32446297346784814587838590613529953787e-4"),
    ((2.0, 2.0), 0, "4.845313239684265256129117271869407746946e-12"),
    ((2.0, 2.0), 1, "4.843540001873893718602690991459517474586e-12"),
    ((2.0, 2.0), 10, "4.82762747435973930639666119263073840319e-12"),
    ((2.0, 2.0), 100, "4.672994906878991504694515897963455011862e-12"),
    ((2.0, 2.0), 1000, "3.479462491306185387471630256167239931538e-12"),
    ((2.0, 2.0), 100000, "3.712859871833612040073330869205222572874e-18"),
    ((2.0, 2.0), 1250000, "1.90100191825003953493965807501459455662e-21"),
]


class TestLagTail:
    @pytest.mark.parametrize("d, h, reference", LAG_TAIL_REFERENCES)
    def test_series_matches_40_digit_reference(self, d, h, reference):
        d_s, d_t = d
        value, err = _binomial_tail((-d_s, 0, 0), (-d_t, 0, h), max(4096, 4 * h) + 1.5)
        miss = abs(Decimal(value) - Decimal(reference))
        assert miss <= Decimal("2e-15") * Decimal(reference)
        assert miss <= Decimal(err)

    def test_lags_up_to_max_lag_are_certified(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        values, bounds = lm.cross_covariance_matrix(spec, MAX_LAG)
        # the leading term c(d, d) h^{1-2d} of the asymptotic law, which
        # the exact value approaches from below (2.0% short at MAX_LAG)
        asymptotic = lm.cross_covariance_asymptotic(0.75, 0.75, 1.0, MAX_LAG)
        assert 0.97 < values[0, 0] / asymptotic < 0.99
        assert 0.0 < bounds[0, 0] < 1e-12 * values[0, 0]
        with pytest.raises(ValueError, match=f"lag h={MAX_LAG + 1} exceeds MAX_LAG"):
            lm.cross_covariance_matrix(spec, MAX_LAG + 1)

    @pytest.mark.parametrize("h", [0, 100, 16_383])
    def test_one_block_head_is_the_one_shot_sum(self, h):
        # up to h = 16,383 the J + 1 head terms fit one block, so the sum
        # keeps the bits of the single numpy expression it replaced
        d_s, d_t = 0.6, 0.85
        J = max(4096, 4 * h)
        assert J + 1 <= LAG_BLOCK
        jj = np.arange(J + 1, dtype=float)
        one_shot = float(np.sum((jj + 1.0) ** (-d_s) * (jj + h + 1.0) ** (-d_t)))
        tail, _ = _binomial_tail((-d_s, 0, 0), (-d_t, 0, h), J + 1.5)
        value, _, partial = _lag_series(d_s, d_t, h)
        assert (partial, value) == (one_shot, one_shot + tail)

    def test_max_lag_head_is_summed_in_bounded_memory(self):
        # one numpy expression over the 5,000,001 head terms held four
        # 40 MB temporaries; blocks of LAG_BLOCK terms hold 2 MB
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        tracemalloc.start()
        try:
            lm.cross_covariance_matrix(spec, MAX_LAG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestLimitKernelAndPlan:
    def test_boundary_kernel_is_sigma(self, boundary_spec):
        K = lm.limit_kernel(boundary_spec)
        assert lm.analytics._clt_regime(boundary_spec) == "boundary"
        assert np.allclose(K, boundary_spec.innovations.sigma)

    def test_long_kernel_diagonal_constant(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        K = lm.limit_kernel(spec)
        assert K[0, 0] == pytest.approx(13.9843, abs=1e-3)

    def test_kernel_zero_where_sigma_zero(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert lm.limit_kernel(spec)[0, 1] == 0.0

    def test_long_kernel_entries_are_asymptotic_constants(self, repeated_spec):
        # K(s, t) is the n^{3-D} coefficient of E[S_n(s) S_n(t)]
        d, sigma = repeated_spec.memory.values, repeated_spec.innovations.sigma
        expected = [[partial_sum_covariance_asymptotic(d[i], d[j], sigma[i, j], 1)
                     for j in range(4)] for i in range(4)]
        assert np.array_equal(lm.limit_kernel(repeated_spec), expected)

    @pytest.mark.parametrize("fixture", ["constant8_spec", "repeated_spec"])
    def test_kernel_constants_once_per_distinct_pair(self, fixture, request,
                                                     count_calls):
        spec = request.getfixturevalue(fixture)
        calls = count_calls(lm.analytics, "scale_integral_closed_form")
        lm.limit_kernel(spec)
        exponents = spec.memory.distinct[0].tolist()
        assert calls == [(a, b) for a in exponents for b in exponents]

    def test_kernel_psd(self, long_spec):
        eig = np.linalg.eigvalsh(lm.limit_kernel(long_spec))
        assert eig.min() >= -1e-10 * eig.max()

    def test_mixed_regime_rejected(self, mixed_spec):
        with pytest.raises(lm.RegimeError, match="mixed regimes"):
            lm.limit_kernel(mixed_spec)
        with pytest.raises(lm.RegimeError, match="mixed regimes"):
            lm.normalization_plan(mixed_spec, 64)

    def test_plan_values(self, long_spec, boundary_spec, rel):
        b = lm.normalization_plan(long_spec, 100)
        assert np.allclose(b, 100 ** 0.8)
        b_boundary = lm.normalization_plan(boundary_spec, 64)
        assert np.allclose(b_boundary, math.sqrt(64) * math.log(64))

    def test_plan_d06(self, rel):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.5]},
            "memory": {"kind": "constant", "values": 0.6},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert lm.normalization_plan(spec, 100)[0] == pytest.approx(100 ** 0.9)

    def test_boundary_plan_needs_n2(self, boundary_spec):
        with pytest.raises(ValueError):
            lm.normalization_plan(boundary_spec, 1)


class TestDominatingBound:
    def test_power_regime_value(self, rel):
        # [DERIVED] 1 + 2 + 5.2441/0.375
        assert dominating_bound(0.75, 1.0) == pytest.approx(16.984, abs=2e-3)

    def test_zero_sigma(self):
        assert dominating_bound(0.75, 0.0) == 0.0

    def test_dominates_normalized_variance(self):
        for d in (0.6, 0.9):
            bound = dominating_bound(d, 1.0)
            for n in (1, 2, 16, 256, 1024):
                v, _ = lm.partial_sum_covariance_series(d, d, n)
                assert v / n ** (3 - 2 * d) <= bound

    def test_boundary_constant_dominates(self):
        bound = dominating_bound(1.0, 1.0)
        for n in (2, 3, 16, 1024):
            v, _ = lm.partial_sum_covariance_series(1.0, 1.0, n)
            assert v / (n * math.log(n) ** 2) <= bound

    def test_rejects_short_memory(self):
        with pytest.raises(lm.RegimeError):
            dominating_bound(1.5, 1.0)
