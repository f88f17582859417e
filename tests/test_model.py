import dataclasses
import hashlib
import inspect
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

import longmem as lm
from longmem.model import _zeta, tail_variance_bound

GRID = lm.SpaceGrid([0.25, 0.5], [0.5, 0.5])
VALID_PARTS = {"grid": GRID, "memory": lm.MemoryFunction.constant(0.7, GRID),
               "innovations": lm.InnovationModel.white(1.0, q=2)}
VALID_CONFIG = {"grid": {"points": [0.25, 0.5]}, "memory": {"kind": "constant", "values": 0.7},
                "innovations": {"kind": "white", "sigma2": 1.0}}
NON_PSD = [[1.0, 2.0], [2.0, 1.0]]
HASH_CONFIG = {"grid": {"points": [0.25, 0.5], "weights": [0.4, 0.6]},
               "memory": {"kind": "constant", "values": 0.7},
               "innovations": {"kind": "white", "sigma2": [1.0, 2.0]},
               "tail_tol": 0.05, "horizon": 16}
# one case per message of the checks a spec runs when it is built: a function
# building the parts that violate it (a part may refuse itself) and, where a
# config reaches that check, the config section
VIOLATIONS = [
    ("memory field has 3 values for 2 grid points",
     lambda: {"memory": lm.MemoryFunction([0.7, 0.7, 0.7])},
     {"memory": {"kind": "table", "values": [0.7, 0.7, 0.7]}}),
    ("innovation covariance is 3x3 for 2 grid points",
     lambda: {"innovations": lm.InnovationModel.white(1.0, q=3)},
     {"innovations": {"kind": "custom", "sigma": np.eye(3).tolist()}}),
    (r"d\(t\)=0.5 <= 1/2 at grid point t=0.5 \(index 1\)",
     lambda: {"memory": lm.MemoryFunction([0.7, 0.5])},
     {"memory": {"kind": "table", "values": [0.7, 0.5]}}),
    ("innovation covariance is not symmetric",
     lambda: {"innovations": lm.InnovationModel([[1.0, 0.5], [0.4, 1.0]])},
     {"innovations": {"kind": "custom", "sigma": [[1.0, 0.5], [0.4, 1.0]]}}),
    (r"not positive semidefinite \(min eigenvalue -1.000e\+00\)",
     lambda: {"innovations": lm.InnovationModel(NON_PSD)},
     {"innovations": {"kind": "custom", "sigma": NON_PSD}}),
    (r"violates \|sigma\(s,t\)\| <= sqrt\(sigma2\(s\) sigma2\(t\)\)",
     lambda: {"innovations": lm.InnovationModel(NON_PSD)},
     {"innovations": {"kind": "custom", "sigma": NON_PSD}}),
    # refused by the innovation model itself, like a non-finite grid or exponent
    ("innovation covariance must be finite",
     lambda: {"innovations": lm.InnovationModel([[math.inf, 0.0], [0.0, 1.0]])},
     {"innovations": {"kind": "custom", "sigma": [[math.inf, 0.0], [0.0, 1.0]]}}),
    ("innovation covariance must be finite",
     lambda: {"innovations": lm.InnovationModel([[1.0, math.nan], [math.nan, 1.0]])},
     {"innovations": {"kind": "custom", "sigma": [[1.0, math.nan], [math.nan, 1.0]]}}),
]


class TestSpaceGrid:
    def test_quadrature_of_constant_is_total_measure(self):
        g = lm.SpaceGrid([0.1, 0.4, 1.0], [0.3, 0.3, 0.4])
        assert g.quadrature(np.ones(3)) == pytest.approx(1.0)
        assert g.weights.sum() == pytest.approx(1.0)

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
        # the field is checked against the grid once, when the spec is built
        with pytest.raises(lm.ValidationError, match="memory field has 1 values for 2 grid"):
            lm.ProcessSpec(**dict(VALID_PARTS, memory=lm.MemoryFunction([0.7])))

    @pytest.mark.parametrize("breakpoints, levels", [
        ([0.4, math.nan, 0.6], [0.7, 0.8, 0.9, 0.95]),   # would give 0.95 where 0.9 belongs
        ([math.nan], [0.9, 0.95]),                       # would drop the second level
        ([2.0], [0.9, math.nan]),                        # a level no grid point uses
    ])
    def test_step_refuses_non_finite_breakpoints_and_levels(self, breakpoints, levels):
        g = lm.SpaceGrid(np.linspace(0, 1, 5), np.full(5, 0.2))
        with pytest.raises(lm.ValidationError, match="must be finite"):
            lm.MemoryFunction.step(breakpoints, levels, g)

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

    @pytest.mark.parametrize("law", ["pareto", "gaussian"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_pareto_alpha_must_be_finite(self, law, alpha):
        with pytest.raises(lm.ValidationError, match="pareto_alpha must be finite"):
            lm.InnovationModel.white(1.0, q=2, law=law, pareto_alpha=alpha)


class TestValidate:
    def test_all_long_is_the_long_regime(self, long_spec):
        report = lm.validate(long_spec)
        assert report.ok
        assert report.regime == "long"

    def test_all_boundary_is_the_boundary_regime(self, boundary_spec):
        report = lm.validate(boundary_spec)
        assert report.ok
        assert report.regime == "boundary"

    def test_mixed_regimes_no_clt(self, mixed_spec):
        report = lm.validate(mixed_spec)
        assert report.ok
        assert report.regime is None

    def test_d_half_is_fatal_with_location(self):
        with pytest.raises(lm.ValidationError, match=r"0\.5 .*t=0\.5"):
            lm.spec_from_dict({
                "grid": {"points": [0.25, 0.5]},
                "memory": {"kind": "table", "values": [0.7, 0.5]},
                "innovations": {"kind": "white", "sigma2": 1.0},
            })

    def test_non_psd_sigma_is_fatal(self):
        with pytest.raises(lm.ValidationError, match="positive semidefinite|violates"):
            lm.spec_from_dict({
                "grid": {"points": [0.25, 0.5]},
                "memory": {"kind": "constant", "values": 0.7},
                "innovations": {"kind": "custom", "sigma": [[1.0, 2.0], [2.0, 1.0]]},
            })

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

    def test_construction_raises_every_violation(self):
        with pytest.raises(lm.ValidationError, match="t=0.25.*t=0.5"):
            lm.spec_from_dict({
                "grid": {"points": [0.25, 0.5]},
                "memory": {"kind": "table", "values": [0.4, 0.5]},
                "innovations": {"kind": "white", "sigma2": 1.0},
            })

    @pytest.mark.parametrize("message, parts, section", VIOLATIONS)
    def test_every_check_raises_on_each_route_to_a_spec(self, message, parts, section):
        with pytest.raises(lm.ValidationError, match=message):
            lm.ProcessSpec(**dict(VALID_PARTS, **parts()))
        with pytest.raises(lm.ValidationError, match=message):
            dataclasses.replace(lm.ProcessSpec(**VALID_PARTS), **parts())
        if section is not None:
            with pytest.raises(lm.ValidationError, match=message):
                lm.spec_from_dict(dict(VALID_CONFIG, **section))

    def test_violation_cases_cover_every_check(self):
        # each message of _check, and the innovation model's own finiteness
        # check on an infinite and on a NaN entry
        assert inspect.getsource(lm.model._check).count("fatal.append(") + 2 == len(VIOLATIONS)

    def test_spec_has_no_later_check(self):
        # a spec is checked when it is built, so it offers no method that
        # re-checks it: its public attributes are pinned
        assert {name for name in dir(lm.ProcessSpec) if not name.startswith("_")} == {
            "horizon", "q", "spec_hash", "tail_tol", "window"}


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

    def test_zeta_within_8_ulps_of_scipy(self):
        # scipy's own zeta is up to 7 ulps from the exact value near s = 1
        s = np.concatenate([np.linspace(1.0, 8.0, 20001)[1:], 1.0 + np.logspace(-12, -1, 200)])
        want = zeta(s)
        got = np.array([_zeta(float(v)) for v in s])
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want))

    @pytest.mark.parametrize("name, window", [
        ("clt_boundary_reference.json", 607), ("clt_long_reference.json", 259_177),
        ("fig1a.json", 57_171), ("fig1b.json", 57_171)])
    def test_bundled_windows_unchanged(self, name, window):
        # the windows of release 0.20.0, whose budget took zeta from scipy
        assert lm.load_spec(resources.files("longmem") / "configs" / name).window == window


class TestConfigLoading:
    @pytest.mark.parametrize("name", ["clt_boundary_reference.json", "clt_long_reference.json",
                                      "fig1a.json", "fig1b.json"])
    def test_bundled_configs_hold_only_known_keys(self, name):
        # as bundled, and with a run's own seed and N written in
        cfg = json.loads((resources.files("longmem") / "configs" / name).read_text())
        lm.spec_from_dict(cfg)
        lm.spec_from_dict(dict(cfg, seed=3, N=50_000))

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

    @pytest.mark.parametrize("top", [None, 5, 1.5, True, [1, 2], "grid"])
    def test_top_level_that_is_not_an_object_is_refused_on_both_routes(self, tmp_path, top):
        # a list or a string would otherwise be read key by key, and a
        # scalar would not iterate
        message = "config: the top level must be a JSON object"
        with pytest.raises(lm.ValidationError, match=message):
            lm.spec_from_dict(top)
        (tmp_path / "spec.json").write_text(json.dumps(top))
        with pytest.raises(lm.ValidationError, match=message):
            lm.load_spec(tmp_path / "spec.json")

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

    def test_spec_hash_stable(self):
        # the hash is the process's, not the config's: a step memory and the
        # table of its per-point exponents, or a white sigma2 and its diagonal
        # custom sigma, hash equal
        step = dict(HASH_CONFIG, memory={"kind": "step", "breakpoints": [0.4],
                                         "levels": [0.7, 0.8]})
        table = dict(HASH_CONFIG, memory={"kind": "table", "values": [0.7, 0.8]})
        custom = dict(HASH_CONFIG, innovations={"kind": "custom", "sigma": [[1.0, 0.0],
                                                                          [0.0, 2.0]]})
        assert lm.spec_from_dict(step).spec_hash == lm.spec_from_dict(table).spec_hash
        assert lm.spec_from_dict(custom).spec_hash == lm.spec_from_dict(HASH_CONFIG).spec_hash

    @pytest.mark.parametrize("key, value", [
        ("grid", {"points": [0.25, 0.6], "weights": [0.4, 0.6]}),
        ("grid", {"points": [0.25, 0.5], "weights": [0.5, 0.5]}),
        ("memory", {"kind": "table", "values": [0.7, 0.9]}),
        ("innovations", {"kind": "white", "sigma2": [1.0, 3.0]}),
        ("innovations", {"kind": "white", "sigma2": [1.0, 2.0], "law": "pareto"}),
        ("innovations", {"kind": "white", "sigma2": [1.0, 2.0], "pareto_alpha": 6.0}),
        ("tail_tol", 0.06),
        ("horizon", 17),
    ])
    def test_spec_hash_moves_with_every_part_of_the_process(self, key, value):
        # points, weights, d, sigma, law, pareto_alpha, tail_tol, horizon
        base = lm.spec_from_dict(HASH_CONFIG)
        assert lm.spec_from_dict(dict(HASH_CONFIG, **{key: value})).spec_hash != base.spec_hash

    @pytest.mark.parametrize("name, digest", [
        ("clt_boundary_reference", "ff0232af2874b65e"),
        ("clt_long_reference", "7584e0363f024c08"),
        ("fig1a", "a456a83f20e9ac37"),
        ("fig1b", "8d02efe8f79b1fe3"),
    ])
    def test_spec_hash_is_hashlib_sha256_of_the_process(self, name, digest):
        # the same bytes through hashlib, and the value every manifest of
        # this config has recorded
        spec = lm.load_spec(resources.files("longmem") / "configs" / f"{name}.json")
        model = spec.innovations
        h = hashlib.sha256(repr((spec.q, model.law, float(model.pareto_alpha),
                                 float(spec.tail_tol), int(spec.horizon))).encode())
        for a in (spec.grid.points, spec.grid.weights, spec.memory.values, model.sigma):
            h.update(a.tobytes())
        assert spec.spec_hash == h.hexdigest()[:16] == digest

    def test_specs_hash_and_compare_by_identity(self):
        # array fields make value equality ambiguous; content identity is spec_hash
        a, b = lm.spec_from_dict(HASH_CONFIG), lm.spec_from_dict(HASH_CONFIG)
        assert len({a, b}) == 2
        assert a == a and a != b
        assert a.spec_hash == b.spec_hash
