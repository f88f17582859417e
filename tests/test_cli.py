import csv
import json
import os
import platform
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy

import longmem as lm
from longmem import io
from longmem.cli import main
from longmem.model import tail_variance_bound
from oracles import cross_covariance_exact


def _config_path(name: str) -> str:
    return str(resources.files("longmem") / "configs" / name)


def _write(tmp_path, cfg, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


SMALL_LONG = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory": {"kind": "constant", "values": 0.7},
    "innovations": {"kind": "wiener"},
    "tail_tol": 0.1,
    "horizon": 32,
    "seed": 5,
    "n": 32,
    "N": 600,
    "n_list": [64, 128, 256, 512, 1024],
}


def _manifest_without_timestamp(path):
    data = json.loads(Path(path, "manifest.json").read_text())
    data.pop("timestamp")
    return data


class TestSimulate:
    def test_bundled_fig1a(self, tmp_path):
        out = tmp_path / "a"
        assert main(["simulate", "--config", _config_path("fig1a.json"),
                     "--out", str(out)]) == 0
        lines = (out / "paths.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 consecutive paths
        assert lines[0].startswith("k,")
        values = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
        assert values.shape == (5, 62)
        assert np.all(np.isfinite(values))

    def test_bundled_fig1b(self, tmp_path):
        out = tmp_path / "b"
        assert main(["simulate", "--config", _config_path("fig1b.json"),
                     "--out", str(out)]) == 0

    def test_same_seed_identical_files(self, tmp_path):
        cfg = _write(tmp_path, SMALL_LONG)
        r1 = main(["simulate", "--config", cfg, "--out", str(tmp_path / "r1"),
                   "--seed", "9"])
        r2 = main(["simulate", "--config", cfg, "--out", str(tmp_path / "r2"),
                   "--seed", "9"])
        assert r1 == r2 == 0
        assert (tmp_path / "r1" / "paths.csv").read_bytes() == \
            (tmp_path / "r2" / "paths.csv").read_bytes()
        assert _manifest_without_timestamp(tmp_path / "r1") == \
            _manifest_without_timestamp(tmp_path / "r2")

    def test_invalid_d_exits_2(self, tmp_path, capsys):
        cfg = dict(SMALL_LONG, memory={"kind": "constant", "values": 0.5})
        path = _write(tmp_path, cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert "0.5" in err

    def test_constant_memory_with_distinct_values_exits_2(self, tmp_path, capsys):
        bad = dict(SMALL_LONG, memory={"kind": "constant", "values": [0.6, 0.9]})
        assert main(["simulate", "--config", _write(tmp_path, bad),
                     "--out", str(tmp_path / "bad")]) == 2
        assert "constant memory needs one exponent" in capsys.readouterr().err
        # the form to_dict writes, one equal value per grid point, still loads
        ok = dict(SMALL_LONG, memory={"kind": "constant", "values": [0.7] * 4})
        assert main(["simulate", "--config", _write(tmp_path, ok),
                     "--out", str(tmp_path / "ok")]) == 0

    def test_white_sigma_with_off_diagonal_exits_2(self, tmp_path, capsys):
        grid = {"points": [0.5, 1.0]}
        bad = dict(SMALL_LONG, grid=grid, innovations={
            "kind": "white", "sigma": [[1.0, 0.9], [0.9, 1.0]]})
        assert main(["simulate", "--config", _write(tmp_path, bad),
                     "--out", str(tmp_path / "bad")]) == 2
        assert "diagonal sigma" in capsys.readouterr().err
        ok = dict(SMALL_LONG, grid=grid, innovations={
            "kind": "white", "sigma": [[1.0, 0.0], [0.0, 2.0]]})
        assert main(["simulate", "--config", _write(tmp_path, ok),
                     "--out", str(tmp_path / "ok")]) == 0
        spec = lm.spec_from_dict(ok)
        assert np.array_equal(spec.innovations.sigma2, [1.0, 2.0])
        assert lm.spec_from_dict(spec.to_dict()).spec_hash == spec.spec_hash

    @pytest.mark.parametrize("section, value, message", [
        ("memory", {"kind": "constant"}, "memory: missing key 'values'"),
        ("grid", None, "config: missing key 'grid'"),
        ("grid", {"weights": [1.0]}, "grid: missing key 'points'"),
        ("innovations", {"kind": "custom"}, "innovations: missing key 'sigma'"),
    ])
    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys, section, value,
                                           message):
        bad = dict(SMALL_LONG, **{section: value})
        if value is None:
            del bad[section]
        assert main(["simulate", "--config", _write(tmp_path, bad),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, cfg, message", [
        ("simulate", [SMALL_LONG], "config: the top level must be a JSON object"),
        ("simulate", dict(SMALL_LONG, grid=[0.25, 0.5]), "config: 'grid' must be a JSON object"),
        ("analyze", dict(SMALL_LONG, memory="constant"),
         "config: 'memory' must be a JSON object"),
        ("simulate", dict(SMALL_LONG, grid={"linspace": 5}),
         "grid: cannot unpack non-iterable int object"),
        ("analyze", dict(SMALL_LONG, lags=None), "config: invalid 'lags': None"),
        ("verify-clt", dict(SMALL_LONG, n_list=None), "config: invalid 'n_list': None"),
        ("verify-clt", dict(SMALL_LONG, N=None), "config: invalid 'N': None"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant", "values": 0.501},
                          tail_tol=1e-3), "tail budget unreachable: d=0.501,"),
        ("verify-clt", dict(SMALL_LONG, memory={"kind": "constant", "values": 0.501},
                            tail_tol=1e-3), "tail budget unreachable: d=0.501,"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant", "values": 0.4999999}),
         "d(t)=0.4999999 <= 1/2 at grid point t=0.25"),
        ("simulate", dict(SMALL_LONG, innovations={"kind": "white", "sigma2": None}),
         "config: invalid 'innovations.sigma2': None"),
        ("analyze", dict(SMALL_LONG, innovations={"kind": "white", "sigma2": [1, "a", 1, 1]}),
         "config: invalid 'innovations.sigma2': [1, 'a', 1, 1]"),
        ("verify-clt", dict(SMALL_LONG, n=32.9), "config: invalid 'n': 32.9"),
        ("verify-clt", dict(SMALL_LONG, N=600.5), "config: invalid 'N': 600.5"),
        ("simulate", dict(SMALL_LONG, seed=5.5), "config: invalid 'seed': 5.5"),
        ("simulate", dict(SMALL_LONG, horizon=32.5), "config: invalid 'horizon': 32.5"),
        ("analyze", dict(SMALL_LONG, lags=[0, 1.5]), "config: invalid 'lags': [0, 1.5]"),
        ("verify-clt", dict(SMALL_LONG, n_list=[64, 128, 256, 512, 1024.5]),
         "config: invalid 'n_list': [64, 128, 256, 512, 1024.5]"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, cfg, message):
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_tail_tol_flag_changes_window(self, tmp_path):
        cfg = _write(tmp_path, SMALL_LONG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "w1"),
              "--tail-tol", "0.2"])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "w2"),
              "--tail-tol", "0.4"])
        m1 = json.loads((tmp_path / "w1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "w2" / "manifest.json").read_text())
        assert m1["window"] > m2["window"]
        # the certified variance each path value X_k drops, per grid point
        for m in (m1, m2):
            assert m["truncation_tail_var"] == [
                t * tail_variance_bound(0.7, m["window"]) for t in (0.25, 0.5, 0.75, 1.0)]

    def test_manifest_records_software_stack(self, tmp_path):
        cfg = _write(tmp_path, SMALL_LONG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
        m = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert m["software"] == {"python": platform.python_version(),
                                 "numpy": np.__version__, "scipy": scipy.__version__}

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, SMALL_LONG)
        monkeypatch.setenv("LONGMEM_SEED", "123")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "e")])
        m = json.loads((tmp_path / "e" / "manifest.json").read_text())
        assert m["seed"] == 123


class TestAnalyze:
    def test_constant_d075(self, tmp_path):
        cfg = _write(tmp_path, {
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "constant", "values": 0.75},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.1,
            "lags": [0, 1, 10],
        })
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "c_matrix.csv").read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            assert float(parts[3]) == pytest.approx(5.2441, abs=1e-3)
            assert float(parts[4]) <= 1e-8
        summ = (out / "summability.csv").read_text()
        assert "divergent" in summ and "convergent" not in summ
        l2 = json.loads((out / "l2_report.json").read_text())
        assert l2["verdict"] == "yes"

    def test_divergent_pair_recorded(self, tmp_path):
        cfg = _write(tmp_path, {
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "table", "values": [0.9, 1.05]},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.1,
            "lags": [0, 5],
        })
        out = tmp_path / "an2"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "summability.csv").read_text().splitlines()
        row = [ln for ln in lines if ln.startswith("0.25,0.5")]
        assert row and row[0].endswith("divergent")

    def test_regime_rejections_not_fatal(self, tmp_path):
        cfg = _write(tmp_path, {
            "grid": {"points": [0.25, 0.5]},
            "memory": {"kind": "table", "values": [0.7, 2.0]},
            "innovations": {"kind": "white", "sigma2": 1.0},
            "tail_tol": 0.3,
            "lags": [0, 4],
        })
        out = tmp_path / "an3"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        body = (out / "c_matrix.csv").read_text()
        assert "1/2 < d_s < 1" in body  # the rejected entries carry the reason


    def test_kernel_route_matches_pointwise_oracles(self, tmp_path):
        cfg = {
            "grid": {"linspace": [0.125, 0.875, 7]},
            "memory": {"kind": "step", "breakpoints": [0.5], "levels": [0.6, 1.5]},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.1,
            "lags": [0, 1, 10],
        }
        out = tmp_path / "k"
        assert main(["analyze", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        spec = lm.spec_from_dict(cfg)
        d = dict(zip(spec.grid.points.tolist(), spec.memory.values.tolist()))
        with (out / "covariances.csv").open() as fh:
            cov = list(csv.DictReader(fh))
        assert len(cov) == 7 * 7 * 3
        for row in cov:
            cv = cross_covariance_exact(spec, float(row["s"]), float(row["t"]),
                                           int(row["h"]))
            assert row["exact"] == io.format_float(cv.value)
            assert row["exact_error_bound"] == io.format_float(cv.error_bound)
        with (out / "c_matrix.csv").open() as fh:
            c_rows = list(csv.DictReader(fh))
        assert len(c_rows) == 7 * 7
        for row in c_rows:
            d_s, d_t = d[float(row["s"])], d[float(row["t"])]
            try:
                expected = io.format_float(lm.scale_integral(d_s, d_t))
            except lm.RegimeError as exc:
                assert (row["c_quadrature"], row["note"]) == ("", str(exc))
            else:
                assert row["c_quadrature"] == expected

    def test_asymptotic_once_per_distinct_pair_and_lag(self, tmp_path, count_calls):
        cfg = {
            "grid": {"points": [0.125, 0.25, 0.375, 0.5, 0.625, 0.75]},
            "memory": {"kind": "table", "values": [0.6, 1.0, 0.6, 1.5, 1.0, 0.6]},
            "innovations": {"kind": "wiener"},
            "tail_tol": 0.1,
            "lags": [0, 2, 10, 100],
        }
        calls = count_calls(lm.analytics, "scale_integral_closed_form")
        out = tmp_path / "asym"
        assert main(["analyze", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        # of the 9 distinct pairs, the power law covers (0.6, d_t) only; (1, 1)
        # takes the log form and the rest carry a RegimeError note
        assert calls == [(0.6, d_t) for h in (2, 10, 100) for d_t in (0.6, 1.0, 1.5)]
        spec = lm.spec_from_dict(cfg)
        pts = spec.grid.points.tolist()
        d, sigma = spec.memory.values, spec.innovations.sigma
        with (out / "covariances.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 6 * 6 * 4
        for s, t, h, _, _, asym, note in rows:
            i, j, h = pts.index(float(s)), pts.index(float(t)), int(h)
            if h < 2:
                assert (asym, note) == ("", "lag too small for asymptotics")
                continue
            try:
                law = lm.cross_covariance_asymptotic(float(d[i]), float(d[j]),
                                                     float(sigma[i, j]), h)
            except lm.RegimeError as exc:
                assert (asym, note) == ("", str(exc))
            else:
                assert (asym, note) == (io.format_float(law), "")

    def test_note_with_comma_keeps_the_header_width(self, tmp_path):
        # fig1a pairs d = 2 with d = 0.6, whose note reads "(d_s=2, d_t=0.6)"
        out = tmp_path / "fig1a"
        assert main(["analyze", "--config", _config_path("fig1a.json"),
                     "--out", str(out)]) == 0
        with (out / "covariances.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 61 * 61 * 4
        assert {len(row) for row in rows} == {len(header)}
        notes = {row[-1] for row in rows}
        assert "asymptotic law not stated in this regime (d_s=2, d_t=0.6)" in notes

    def test_lag_beyond_max_lag_exits_2_naming_it(self, tmp_path, capsys):
        cfg = _write(tmp_path, dict(SMALL_LONG, lags=[0, lm.analytics.MAX_LAG + 1]))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "lag h=1250001 exceeds MAX_LAG=1250000" in err
        assert not (tmp_path / "a" / "covariances.csv").exists()


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_flag_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = _write(tmp_path, SMALL_LONG)
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert "--threads" in err and threads in err

    def test_env_below_one_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = _write(tmp_path, SMALL_LONG)
        monkeypatch.setenv("LONGMEM_THREADS", "0")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert "LONGMEM_THREADS" in capsys.readouterr().err


class TestSharedKnobs:
    @pytest.mark.parametrize("env, argv, names", [
        ({"LONGMEM_SEED": "1.5"}, [], ["LONGMEM_SEED", "'1.5'"]),
        ({"LONGMEM_THREADS": "two"}, [], ["--threads", "LONGMEM_THREADS", "'two'"]),
        ({"LONGMEM_TAIL_TOL": "tight"}, [], ["--tail-tol", "LONGMEM_TAIL_TOL", "'tight'"]),
        ({}, ["--seed", "-3"], ["--seed", "non-negative", "-3"]),
        ({"LONGMEM_SEED": "-3"}, [], ["LONGMEM_SEED", "non-negative", "-3"]),
    ], ids=["env-seed-fraction", "env-threads-word", "env-tail-tol-word",
            "flag-seed-negative", "env-seed-negative"])
    def test_bad_value_exits_2_naming_its_source(self, tmp_path, capsys, monkeypatch,
                                                  env, argv, names):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = _write(tmp_path, SMALL_LONG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert all(name in err for name in names), err
        assert not (tmp_path / "s").exists()


class TestVerifyClt:
    def test_small_long_reference_exit_0(self, tmp_path):
        cfg = _write(tmp_path, SMALL_LONG)
        out = tmp_path / "v"
        assert main(["verify-clt", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_pass"] is True
        assert summary["regime"] == "long"

    def test_boundary_reference_exit_0(self, tmp_path):
        out = tmp_path / "vb"
        assert main(["verify-clt", "--config",
                     _config_path("clt_boundary_reference.json"),
                     "--out", str(out)]) == 0
        limit = np.loadtxt(out / "covariance_limit.csv", delimiter=",",
                           skiprows=1, usecols=range(1, 5))
        assert np.allclose(limit, np.eye(4))  # boundary kernel equals sigma

    def test_mixed_regime_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, dict(
            SMALL_LONG,
            memory={"kind": "step", "breakpoints": [0.5], "levels": [0.6, 2.0]}))
        assert main(["verify-clt", "--config", cfg,
                     "--out", str(tmp_path / "vm")]) == 2
        assert "mixed regimes" in capsys.readouterr().err

    def test_reproducible_and_threads_invariant(self, tmp_path):
        cfg = _write(tmp_path, SMALL_LONG)
        runs = (("r1", "1"), ("r2", "1"), ("t2", "2"), ("t4", "4"))
        for name, threads in runs:
            assert main(["verify-clt", "--config", cfg,
                         "--out", str(tmp_path / name), "--threads", threads]) == 0
        # every data file byte for byte, through the manifest digests
        digests = [_manifest_without_timestamp(tmp_path / name)["outputs"]
                   for name, _ in runs]
        assert all(d == digests[0] for d in digests)

    @pytest.mark.parametrize("z_star", [-1.0, float("nan")])
    def test_bad_z_star_exits_2(self, tmp_path, capsys, z_star):
        cfg = _write(tmp_path, dict(SMALL_LONG, z_star=z_star))
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "z")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "z_star must be positive" in err

    @pytest.mark.parametrize("key, value, message", [
        ("N", 200, "normality diagnostics need N >= 500"),
        ("n_list", [64, 128, 192, 256, 512], "horizons must be dyadic"),
    ])
    def test_bad_input_rejected_before_monte_carlo(self, tmp_path, capsys, monkeypatch,
                                                   key, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the Monte Carlo run started")

        monkeypatch.setattr("longmem.cli.run_clt_experiment", refuse)
        cfg = _write(tmp_path, dict(SMALL_LONG, **{key: value}))
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_zero_variance_point_exits_2(self, tmp_path, capsys):
        # sigma(0, 0) = 0 for Wiener innovations: S_n(0) is identically 0
        cfg = _write(tmp_path, dict(SMALL_LONG, grid={"linspace": [0, 1, 5]},
                                    memory={"kind": "constant", "values": 0.75}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "zero innovation variance at t=0:" in err

    def test_unfactorizable_covariance_exits_2(self, tmp_path, capsys):
        # sigma passes validate() but has no jittered Cholesky factor; the
        # distinct exponents leave the past covariance factorizable
        cfg = _write(tmp_path, dict(SMALL_LONG, grid={"points": [0.25, 0.5]},
                                    memory={"kind": "table", "values": [0.7, 0.9]},
                                    innovations={"kind": "custom", "sigma": [
                                        [1.0, 1.0 + 1e-11], [1.0 + 1e-11, 1.0]]}))
        for command in ("simulate", "verify-clt"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "could not be factorized" in err

    @pytest.mark.parametrize("law", ["gaussian", "pareto"])
    def test_manifest_records_window_and_draws(self, tmp_path, law):
        cfg = dict(SMALL_LONG, innovations={"kind": "white", "sigma2": 1.0, "law": law})
        out = tmp_path / law
        assert main(["verify-clt", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) in (0, 1)
        m = _manifest_without_timestamp(out)
        spec = lm.spec_from_dict(cfg)
        table = lm.partial_sum_weights(spec, cfg["n"])
        window = table.window
        assert m["window"] == window
        b = lm.normalization_plan(spec, cfg["n"]).b
        assert m["truncation_tail_var"] == (table.tail_var / b ** 2).tolist()
        # a Gaussian replication draws one q-vector for the whole past
        rows = cfg["n"] + (window if law == "pareto" else 1)
        assert m["innovations_drawn"] == cfg["N"] * rows


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this longmem."""
    src = str(Path(lm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs about half of the import, and no command needs it:
    # the normality statistics are computed with numpy and scipy.special
    env = _fresh_env()
    code = ("import sys, longmem.cli\n"
            "after_import = 'scipy.stats' in sys.modules\n"
            "status = longmem.cli.main(sys.argv[1:])\n"
            "print(after_import, 'scipy.stats' in sys.modules, status)\n")
    cfg = _write(tmp_path, dict(SMALL_LONG, N=500))
    run = subprocess.run([sys.executable, "-c", code, "verify-clt", "--config", cfg,
                          "--out", str(tmp_path / "v")],
                         env=env, capture_output=True, text=True, timeout=120)
    after_import, after_run, status = run.stdout.split()
    assert (after_import, after_run) == ("False", "False")
    assert status in ("0", "1")   # the whole run, verdicts either way
    assert (tmp_path / "v" / "normality.csv").exists()


def test_simulate_and_verify_leave_scipy_integrate_unloaded(tmp_path):
    # scipy.integrate costs a process about 25 MB and 0.3 s, and no command
    # needs it: the lag covariances sum their tails as series and the scale
    # integral runs on a fixed numpy tanh-sinh rule.
    env = _fresh_env()
    code = ("import sys, longmem.cli\n"
            "def run(command, config, out):\n"
            "    status = longmem.cli.main([command, '--config', config, '--out', out])\n"
            "    print(command, status, 'scipy.integrate' in sys.modules)\n"
            "print('import', 0, 'scipy.integrate' in sys.modules)\n"
            "run('simulate', sys.argv[1], sys.argv[3] + '/s')\n"
            "run('verify-clt', sys.argv[2], sys.argv[3] + '/v')\n"
            "spec = longmem.load_spec(sys.argv[1])\n"
            "for h in (0, 1, 10, 100):\n"
            "    longmem.cross_covariance_matrix(spec, h)\n"
            "print('lags', 0, 'scipy.integrate' in sys.modules)\n"
            "run('analyze', sys.argv[1], sys.argv[3] + '/a')\n")
    run = subprocess.run([sys.executable, "-c", code, _config_path("fig1a.json"),
                          _config_path("clt_boundary_reference.json"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.stdout.splitlines() == ["import 0 False", "simulate 0 False",
                                       "verify-clt 0 False", "lags 0 False",
                                       "analyze 0 False"]
    # a fresh process writes the same bytes as this one, where the test
    # oracles have loaded scipy.integrate
    assert main(["analyze", "--config", _config_path("fig1a.json"),
                 "--out", str(tmp_path / "here")]) == 0
    for name in ("c_matrix.csv", "covariances.csv", "summability.csv", "l2_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_analyze_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special costs a process about 25 MB and 0.3 s, and analyze needs
    # none of it: its one special function, log Gamma, comes from math.  The
    # truncation window, the sampler and the normality statistics import it
    # on first use.
    code = ("import sys, longmem.cli\n"
            "def run(command, config, out):\n"
            "    status = longmem.cli.main([command, '--config', config, '--out', out])\n"
            "    print(command, status, 'scipy.special' in sys.modules)\n"
            "print('import', 0, 'scipy.special' in sys.modules)\n"
            "run('analyze', sys.argv[1], sys.argv[3] + '/a')\n"
            "run('verify-clt', sys.argv[2], sys.argv[3] + '/v')\n")
    run = subprocess.run([sys.executable, "-c", code, _config_path("fig1a.json"),
                          _config_path("clt_boundary_reference.json"), str(tmp_path)],
                         env=_fresh_env(), capture_output=True, text=True, timeout=120)
    lines = run.stdout.splitlines()
    assert lines[:2] == ["import 0 False", "analyze 0 False"]
    assert lines[2:] in (["verify-clt 0 True"], ["verify-clt 1 True"])
    assert (tmp_path / "v" / "normality.csv").exists()


def test_fresh_processes_write_the_same_bytes_at_any_thread_count(tmp_path):
    # scipy.special loads lazily.  In a fresh process the truncation window
    # loads it on the main thread, before any shard thread draws; the output
    # bytes do not depend on the thread count either way.
    code = ("import sys, threading\n"
            "class FirstImport:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.special':\n"
            "            print(threading.current_thread().name)\n"
            "sys.meta_path.insert(0, FirstImport())\n"
            "import longmem.cli\n"
            "sys.exit(longmem.cli.main(sys.argv[1:]))\n")
    cfg = _write(tmp_path, SMALL_LONG)
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", code, "verify-clt", "--config", cfg,
                              "--out", str(tmp_path / threads), "--threads", threads],
                             env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (0, "MainThread\n"), run.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert len(names) == 10
    for name in names:
        if name != "manifest.json":   # it holds a timestamp
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    assert (_manifest_without_timestamp(tmp_path / "1")
            == _manifest_without_timestamp(tmp_path / "2"))


def test_table_csv_quotes_only_text_that_needs_it(tmp_path):
    rows = [(0.1, 3, True, "", "plain"), (2.0, -1, False, 'say "so", then', "a\nb")]
    io.write_table_csv(tmp_path / "t.csv", ["x", "h", "ok", "note", "more"], rows)
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith("x,h,ok,note,more\n0.10000000000000001,3,True,,plain\n")
    with (tmp_path / "t.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[io.format_float(r[0]), *map(str, r[1:])]
                                            for r in rows]
