import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import longmem as lm
from longmem.model import tail_variance_bound


class TestSpaceGrid:
    def test_quadrature_of_constant_is_total_measure(self):
        g = lm.SpaceGrid([0.1, 0.4, 1.0], [0.3, 0.3, 0.4])
        assert g.quadrature(np.ones(3)) == pytest.approx(1.0)
        assert g.total_measure == pytest.approx(1.0)

    def test_rejects_unsorted_points(self):
        with pytest.raises(lm.ValidationError):
            lm.SpaceGrid([0.5, 0.25], [0.5, 0.5])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(lm.ValidationError):
            lm.SpaceGrid([0.25, 0.5], [0.5, 0.0])

    def test_arrays_immutable(self):
        g = lm.SpaceGrid([0.25, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            g.points[0] = 9.0


class TestMemoryFunction:
    def test_step_matches_paper_example(self):
        g = lm.SpaceGrid(np.linspace(0, 1, 5), np.full(5, 0.2))
        m = lm.MemoryFunction.step([0.5], [0.6, 2.0], g)
        assert list(m.values) == [0.6, 0.6, 2.0, 2.0, 2.0]

    def test_table_length_mismatch(self):
        g = lm.SpaceGrid([0.25, 0.5], [0.5, 0.5])
        with pytest.raises(lm.ValidationError):
            lm.MemoryFunction.table([0.7], g)

    def test_distinct_exponents(self, repeated_spec):
        memory = repeated_spec.memory
        exponents, index = memory.distinct
        assert exponents.tolist() == [0.75, 0.8, 0.9]
        assert index.tolist() == [0, 1, 0, 2]
        assert np.array_equal(exponents[index], memory.values)
        assert memory.distinct is memory.distinct
        assert not exponents.flags.writeable and not index.flags.writeable


class TestInnovationModel:
    def test_wiener_is_min_kernel(self):
        pts = [0.25, 0.5, 0.75, 1.0]
        m = lm.InnovationModel.wiener(pts)
        assert np.allclose(m.sigma, np.minimum.outer(pts, pts))
        assert np.allclose(m.factor @ m.factor.T, m.sigma, atol=1e-10)

    def test_white_is_diagonal(self):
        m = lm.InnovationModel.white(2.0, q=3)
        assert np.allclose(m.sigma, 2.0 * np.eye(3))

    def test_pareto_alpha_needs_fourth_moment(self):
        with pytest.raises(lm.ValidationError):
            lm.InnovationModel.white(1.0, q=2, law="pareto", pareto_alpha=3.0)


class TestValidate:
    def test_long_regime_clt_part_i(self, long_spec):
        report = lm.validate(long_spec)
        assert report.ok
        assert set(report.regimes) == {"long"}
        assert report.clt_part == "i"

    def test_boundary_regime_clt_part_ii(self, boundary_spec):
        report = lm.validate(boundary_spec)
        assert report.ok
        assert set(report.regimes) == {"boundary"}
        assert report.clt_part == "ii"

    def test_mixed_regimes_no_clt(self, mixed_spec):
        report = lm.validate(mixed_spec)
        assert report.ok
        assert report.regimes == ("long", "long", "boundary", "short")
        assert report.clt_part is None

    def test_d_half_is_fatal_with_location(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "table", "values": [0.7, 0.5]},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        report = lm.validate(spec)
        assert not report.ok
        assert any("0.5" in msg and "t=0.5" in msg for msg in report.fatal)

    def test_non_psd_sigma_is_fatal(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "custom", "sigma": [[1.0, 2.0], [2.0, 1.0]]},
        })
        report = lm.validate(spec)
        assert not report.ok
        assert any("positive semidefinite" in m or "violates" in m
                   for m in report.fatal)

    def test_pure(self, mixed_spec):
        assert lm.validate(mixed_spec) == lm.validate(mixed_spec)

    def test_checks_run_once_per_spec(self, monkeypatch):
        calls = []
        check = lm.model._check
        monkeypatch.setattr(lm.model, "_check",
                            lambda spec: calls.append(spec) or check(spec))
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "wiener"},
        })
        first = lm.validate(spec)
        lm.cross_covariance_matrix(spec, 0)
        lm.l2_membership(spec)
        lm.limit_kernel(spec)
        assert lm.validate(spec) is first
        assert calls == [spec]

    def test_require_valid_raises_every_violation(self):
        spec = lm.spec_from_dict({
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "table", "values": [0.4, 0.5]},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        with pytest.raises(lm.ValidationError, match="t=0.25.*t=0.5"):
            spec.require_valid()


class TestTruncationLength:
    def test_short_memory_needs_tens(self):
        # [DERIVED] direct tail summation: smallest M with certified tail
        # bound under 1e-3 of the total
        M = lm.truncation_length(2.0, 1e-3)
        assert 1 <= M <= 100
        d2 = 2.0
        tail = zeta(2 * d2) - np.sum(np.arange(1, M + 2.0) ** (-2 * d2))
        assert tail <= 1e-3 * zeta(2 * d2)

    def test_full_budget_gives_zero(self):
        assert lm.truncation_length(0.7, 1.0) == 0

    def test_near_boundary_budget_unreachable(self):
        # d=0.6 with a 1e-2 budget needs M beyond the 1e7 hard cap once the
        # 1/(2d-1) factor of the certified bound is accounted for
        with pytest.raises(lm.TailBudgetError):
            lm.truncation_length(0.6, 1e-2)

    @pytest.mark.parametrize("d", [0.5000001, 0.501, 0.504])
    def test_budget_unreachable_near_one_half(self, d):
        # the closed-form start alone would overflow a float here
        with pytest.raises(lm.TailBudgetError, match=f"d={d!r}, tail_tol=0.001 needs"):
            lm.truncation_length(d, 1e-3)

    def test_rejects_invalid_d(self):
        with pytest.raises(lm.ValidationError):
            lm.truncation_length(0.5, 0.1)

    @given(d=st.floats(0.75, 3.0), tol=st.floats(2e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_returned_M_is_smallest_meeting_budget(self, d, tol):
        M = lm.truncation_length(d, tol)
        budget = tol * zeta(2 * d)
        assert tail_variance_bound(d, M) <= budget
        if M > 0:
            assert tail_variance_bound(d, M - 1) > budget
        # exact tail is below the certified bound, hence below budget
        if M < 100_000:
            tail = zeta(2 * d) - np.sum(np.arange(1, M + 2.0) ** (-2 * d))
            assert tail <= budget * (1 + 1e-12)

    @given(tol=st.floats(2e-3, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_d(self, tol):
        ms = [lm.truncation_length(d, tol) for d in (0.75, 0.9, 1.0, 1.5, 2.5)]
        assert ms == sorted(ms, reverse=True)

    def test_monotone_in_tolerance(self):
        ms = [lm.truncation_length(0.8, tol) for tol in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
        assert ms == sorted(ms, reverse=True)


class TestConfigLoading:
    def test_roundtrip_from_file(self, tmp_path):
        cfg = {
            "grid": {"points": [0.25, 0.5], "weights": [0.4, 0.6]},
            "memory": {"kind": "constant", "values": 0.8},
            "innovations": {"kind": "white", "sigma2": [1.0, 2.0]},
            "tail_tol": 0.05,
            "horizon": 16,
            "seed": 7,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        spec = lm.load_spec(path)
        assert spec.horizon == 16
        assert spec.tail_tol == 0.05
        assert np.allclose(spec.innovations.sigma2, [1.0, 2.0])

    def test_sigma_file_csv(self, tmp_path):
        np.savetxt(tmp_path / "sigma.csv", np.eye(2), delimiter=",")
        cfg = {
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.8},
            "innovations": {"kind": "custom", "sigma_file": "sigma.csv"},
        }
        (tmp_path / "spec.json").write_text(json.dumps(cfg))
        spec = lm.load_spec(tmp_path / "spec.json")
        assert np.allclose(spec.innovations.sigma, np.eye(2))

    def test_default_weights_uniform(self):
        spec = lm.spec_from_dict({
            "grid": {"linspace": [0.0, 1.0, 5]},
            "memory": {"kind": "constant", "values": 0.7},
            "innovations": {"kind": "white", "sigma2": 1.0},
        })
        assert np.allclose(spec.grid.weights, 0.2)

    def test_spec_hash_stable(self, long_spec):
        assert long_spec.spec_hash == lm.spec_from_dict(
            long_spec.to_dict()).spec_hash

    def test_specs_hash_and_compare_by_identity(self, long_spec):
        # array fields make value equality ambiguous; content identity is spec_hash
        cfg = long_spec.to_dict()
        a, b = lm.spec_from_dict(cfg), lm.spec_from_dict(cfg)
        assert len({a, b}) == 2
        assert a == a and a != b
        assert a.spec_hash == b.spec_hash
