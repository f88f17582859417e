import copy
import csv
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import longmem as lm
from longmem import io
from longmem.cli import main
from longmem.mcverify import normality_diagnostics
from longmem.model import _CONFIG_KEYS, tail_variance_bound
from oracles import cross_covariance_exact, write_table_csv_rows


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


# a valid section of each kind of _CONFIG_KEYS for SMALL_LONG's grid
SECTIONS = {
    "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
    "memory.constant": {"kind": "constant", "values": 0.7},
    "memory.step": {"kind": "step", "breakpoints": [0.5], "levels": [0.7, 0.8]},
    "memory.table": {"kind": "table", "values": [0.7] * 4},
    "innovations.white": {"kind": "white"},
    "innovations.wiener": {"kind": "wiener"},
    "innovations.custom": {"kind": "custom", "sigma": np.eye(4).tolist()},
}


BOUNDARY_REFERENCE = json.loads(Path(_config_path("clt_boundary_reference.json")).read_text())


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
        # one equal value per grid point still loads
        ok = dict(SMALL_LONG, memory={"kind": "constant", "values": [0.7] * 4})
        assert main(["simulate", "--config", _write(tmp_path, ok),
                     "--out", str(tmp_path / "ok")]) == 0
        # so does one value in any shape
        for values in (0.7, [0.7, 0.7], [[0.7], [0.7]]):
            spec = lm.spec_from_dict(dict(SMALL_LONG, memory={"kind": "constant",
                                                              "values": values}))
            assert spec.memory.values.tolist() == [0.7] * 4

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
        sigma2 = dict(ok, innovations={"kind": "white", "sigma2": [1.0, 2.0]})
        assert lm.spec_from_dict(sigma2).spec_hash == spec.spec_hash

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
        # a value its caster refuses is named by its key path; the explicit
        # ids of such cases name the fault in the value
        pytest.param("simulate", dict(SMALL_LONG, grid={"linspace": 5}),
                     "config: invalid 'grid.linspace': 5",
                     id="simulate-cfg3-grid: cannot unpack non-iterable int object"),
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
        pytest.param("simulate", dict(SMALL_LONG, grid={"linspace": [0.25, 1.0, 4.7]}),
                     "config: invalid 'grid.linspace': [0.25, 1.0, 4.7]",
                     id="simulate-cfg18-grid: 4.7 is not an integer"),
        pytest.param("simulate", dict(SMALL_LONG, grid={"linspace": [0.25, 1.0]}),
                     "config: invalid 'grid.linspace': [0.25, 1.0]",
                     id="simulate-cfg19-grid: not enough values to unpack (expected 3, got 2)"),
        pytest.param("simulate", dict(SMALL_LONG, memory={"kind": "step", "breakpoints": [0.5],
                                                          "levels": [0.6, "x"]}),
                     "config: invalid 'memory.levels': [0.6, 'x']",
                     id="simulate-cfg20-memory: could not convert string to float: 'x'"),
        pytest.param("simulate", dict(SMALL_LONG, grid={"points": [0.25, "a"]}),
                     "config: invalid 'grid.points': [0.25, 'a']",
                     id="simulate-cfg21-grid: could not convert string to float: 'a'"),
        pytest.param("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5],
                                                        "weights": [0.5, "a"]}),
                     "config: invalid 'grid.weights': [0.5, 'a']",
                     id="simulate-cfg22-grid: could not convert string to float: 'a'"),
        ("simulate", dict(SMALL_LONG, seed=True), "config: invalid 'seed': True"),
        ("simulate", dict(SMALL_LONG, horizon=True), "config: invalid 'horizon': True"),
        ("verify-clt", dict(SMALL_LONG, N=False), "config: invalid 'N': False"),
        ("analyze", dict(SMALL_LONG, lags=[True]), "config: invalid 'lags': [True]"),
        pytest.param("simulate", dict(SMALL_LONG, grid={"linspace": [0, 1, True]}),
                     "config: invalid 'grid.linspace': [0, 1, True]",
                     id="simulate-cfg27-grid: True is not an integer"),
        ("verify-clt", dict(SMALL_LONG, innovations={"kind": "wiener", "law": "pareto",
                                                     "pareto_alpha": math.nan}),
         "pareto_alpha must be finite; got nan"),
        ("verify-clt", dict(SMALL_LONG, innovations={"kind": "wiener", "law": "pareto",
                                                     "pareto_alpha": math.inf}),
         "pareto_alpha must be finite; got inf"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "step", "breakpoints": [0.4, math.nan, 0.6],
                                              "levels": [0.7, 0.8, 0.9, 0.95]}),
         "memory exponents and breakpoints must be finite"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "step", "breakpoints": [2.0],
                                              "levels": [0.7, math.nan]}),
         "memory exponents and breakpoints must be finite"),
        # more than any machine's physical memory: refused before allocating
        pytest.param("simulate", dict(BOUNDARY_REFERENCE, horizon=10 ** 15),
                     "memory: the run needs 96,000,000,000,038,848 bytes, more than the",
                     id="simulate-cfg32-memory preflight"),
        pytest.param("verify-clt", dict(BOUNDARY_REFERENCE, N=10 ** 15),
                     "memory: the run needs 32,000,000,000,271,608 bytes, more than the",
                     id="verify-clt-cfg33-memory preflight"),
        # JSON booleans, which Python would read as 1.0 or 1, at any depth
        ("verify-clt", dict(SMALL_LONG, z_star=True), "config: invalid 'z_star': True"),
        ("simulate", dict(SMALL_LONG, tail_tol=True), "config: invalid 'tail_tol': True"),
        ("simulate", dict(SMALL_LONG, innovations={"kind": "white", "sigma2": True}),
         "config: invalid 'innovations.sigma2': True"),
        ("verify-clt", dict(SMALL_LONG, n=True), "config: invalid 'n': True"),
        ("analyze", dict(SMALL_LONG, lags=[0, 1, False]), "config: invalid 'lags': [0, 1, False]"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5], "weights": [0.5, True]}),
         "config: invalid 'grid.weights': [0.5, True]"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "table", "values": [0.7, True]},
                          grid={"points": [0.25, 0.5]}),
         "config: invalid 'memory.values': [0.7, True]"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5]},
                          innovations={"kind": "custom", "sigma": [[1.0, 0.0], [0.0, True]]}),
         "config: invalid 'innovations.sigma': [[1.0, 0.0], [0.0, True]]"),
        # an empty grid, listed or from linspace with default weights
        ("simulate", dict(SMALL_LONG, grid={"points": []}), "grid must contain at least one point"),
        ("simulate", dict(SMALL_LONG, grid={"linspace": [0, 1, 0]}),
         "grid must contain at least one point"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5]},
                          memory={"kind": "table", "values": [[0.7, 0.7], [0.7, 0.7]]}),
         "memory exponents must be one-dimensional"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25]},
                          innovations={"kind": "custom", "sigma": [[[1.0]]]}),
         "innovation covariance must be a square matrix; got shape (1, 1, 1)"),
        ("simulate", dict(SMALL_LONG, innovations={"kind": "white", "sigma2": 1.0,
                                                   "sigma": np.diag([2.0] * 4).tolist()}),
         "white innovations take 'sigma2' or 'sigma', not both"),
        ("simulate", dict(SMALL_LONG, innovations={"kind": "custom", "sigma_file": "s.csv",
                                                   "sigma": np.eye(4).tolist()}),
         "custom innovations take 'sigma_file' or 'sigma', not both"),
        # a run key that the command does not use is read all the same
        ("simulate", dict(SMALL_LONG, N=600.5), "config: invalid 'N': 600.5"),
        ("analyze", dict(SMALL_LONG, n_list=None), "config: invalid 'n_list': None"),
        ("simulate", dict(SMALL_LONG, z_star="wide"), "config: invalid 'z_star': 'wide'"),
        # a grid with both spellings, and a white sigma with a NaN on or off
        # its diagonal: the fault is named, not a shape
        ("simulate", dict(SMALL_LONG, grid={"linspace": [0, 1, 3], "points": [0.25, 0.5]}),
         "grid takes 'linspace' or 'points', not both"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5]}, innovations={
            "kind": "white", "sigma": [[math.nan, 0.0], [0.0, 1.0]]}),
         "innovation covariance must be finite"),
        ("simulate", dict(SMALL_LONG, grid={"points": [0.25, 0.5]}, innovations={
            "kind": "white", "sigma": [[1.0, math.nan], [math.nan, 1.0]]}),
         "innovation covariance must be finite"),
        # constant memory counts its distinct values, NaN as one value
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant", "values": []}),
         "constant memory needs one exponent; got 0 distinct values"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant", "values": [0.6, 0.9]}),
         "constant memory needs one exponent; got 2 distinct values"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant", "values": [0.7, math.nan]}),
         "constant memory needs one exponent; got 2 distinct values"),
        ("simulate", dict(SMALL_LONG, memory={"kind": "constant",
                                              "values": [math.nan, math.nan]}),
         "memory exponents and breakpoints must be finite"),
        # a kind that no loader knows
        ("simulate", dict(SMALL_LONG, memory={"kind": "x", "values": 0.7}),
         "config: invalid 'memory.kind': 'x'"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, cfg, message):
        assert main([command, "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("cfg, message", [
        (dict(SMALL_LONG, zstar=0.5), "'zstar'; did you mean 'z_star'?"),
        (dict(SMALL_LONG, grid={"points": [0.25, 0.5, 0.75, 1.0], "wieghts": [0.25] * 4}),
         "'grid.wieghts'; did you mean 'grid.weights'?"),
        (dict(SMALL_LONG, memory={"kind": "step", "breakpoints": [0.5], "level": [0.7, 0.8]}),
         "'memory.level'; did you mean 'memory.levels'?"),
        (dict(SMALL_LONG, memory={"kind": "constant", "values": 0.7, "levels": [0.7]}),
         "'memory.levels'; known keys: kind, values"),
        (dict(SMALL_LONG, innovations={"kind": "white", "sigma_2": 1.0}),
         "'innovations.sigma_2'; did you mean 'innovations.sigma2'?"),
        (dict(SMALL_LONG, innovations={"kind": "wiener", "pareto_alfa": 5.0}),
         "'innovations.pareto_alfa'; did you mean 'innovations.pareto_alpha'?"),
        (dict(SMALL_LONG, comment="x"),
         "'comment'; known keys: grid, memory, innovations, tail_tol, horizon, seed, n, "
         "N, n_list, z_star, lags"),
    ])
    def test_unknown_key_exits_2_naming_the_nearest(self, tmp_path, capsys, cfg, message):
        # a key no loader reads would otherwise run on its default
        for command in ("simulate", "analyze", "verify-clt"):
            assert main([command, "--config", _write(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: config: unknown key {message}\n"

    @pytest.mark.parametrize("table, key", [
        (table, key) for table, keys in _CONFIG_KEYS.items()
        for key, cast in keys.items() if cast is not dict])
    def test_every_key_refuses_a_wrong_type_naming_its_path(self, tmp_path, capsys, table,
                                                            key):
        # one caster per key, whichever command reads the config
        section = table.split(".")[0]
        if section:
            cfg = dict(SMALL_LONG, **{section: dict(SECTIONS[table], **{key: {}})})
            path = f"{section}.{key}"
        else:
            cfg, path = dict(SMALL_LONG, **{key: {}}), key
        for command in ("simulate", "analyze", "verify-clt"):
            assert main([command, "--config", _write(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: config: invalid '{path}': {{}}\n"

    @pytest.mark.parametrize("command, largest", [
        ("simulate", "the draw buffer, takes 35,808"),
        ("verify-clt", "the draw buffers, takes 262,656")])
    def test_memory_preflight_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                      largest):
        # a limit below the run's largest arrays, never an allocation that
        # fails; the refusal comes before the draws or the coefficient table
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the preflight")

        monkeypatch.setattr("longmem.simulate._physical_memory", lambda: 10_000)
        monkeypatch.setattr("longmem.simulate.innovation_block", refuse)
        monkeypatch.setattr("longmem.mcverify.partial_sum_weights", refuse)
        assert main([command, "--config", _write(tmp_path, BOUNDARY_REFERENCE),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: memory: the run needs ")
        assert "more than the 10,000 bytes of physical memory" in err
        assert err.endswith(f"its largest array, {largest}\n")

    def test_non_finite_sigma_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "sigma.csv").write_text("1.0,nan\nnan,1.0\n")
        cfg = dict(SMALL_LONG, grid={"points": [0.25, 0.5]},
                   innovations={"kind": "custom", "sigma_file": "sigma.csv"})
        assert main(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: innovation covariance must be finite\n"

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_huge_exponent_simulates_with_no_window(self, tmp_path):
        # zeta(2d) is 1.0 for any d past 27, and the tail bound at M = 0
        # meets the budget: each X_k is its innovation
        cfg = dict(BOUNDARY_REFERENCE, memory={"kind": "constant", "values": 1e308})
        out = tmp_path / "s"
        assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert _manifest_without_timestamp(out)["window"] == 0

    @pytest.mark.parametrize("text", [b'{"grid": ', b"\xff\xfe{}"], ids=["json", "utf8"])
    def test_config_that_is_not_utf8_json_exits_2_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        assert main(["verify-clt", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: config {str(path)!r}: ")

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
        # no output depends on scipy, so the stack is python, numpy and the
        # SIMD targets numpy dispatches to on this CPU
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert m["software"] == {"python": platform.python_version(),
                                 "numpy": np.__version__,
                                 "simd_baseline": simd.get("baseline", []),
                                 "simd_found": simd.get("found", [])}

    @pytest.mark.parametrize("config_seed, argv, seed", [
        (None, [], 0), (9, [], 9), (9, ["--seed", "7"], 7)],
        ids=["default", "config", "flag"])
    def test_seed_resolves_flag_then_config_then_default(self, tmp_path, config_seed,
                                                         argv, seed):
        cfg = {key: value for key, value in SMALL_LONG.items() if key != "seed"}
        if config_seed is not None:
            cfg["seed"] = config_seed
        assert main(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "s"), *argv]) == 0
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["seed"] == seed


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
        # the grid decides no membership: quadratures and the d - 1/2 margin
        assert l2 == {"integral_sigma2": pytest.approx(0.75 / 2),
                      "integral_sigma2_over_2d_minus_1": pytest.approx(0.75),
                      "min_d_minus_half": 0.25, "min_d_point": 0.25}

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


    @pytest.mark.parametrize("innovations", [
        {"kind": "wiener"},
        # diagonal sigma: every off-diagonal exponent pair reads only zero
        # entries, and c_matrix.csv and summability.csv still fill its rows
        {"kind": "white", "sigma2": [1, 2, 3, 4, 5, 6, 7]},
    ], ids=["wiener", "white"])
    def test_kernel_route_matches_pointwise_oracles(self, tmp_path, innovations):
        cfg = {
            "grid": {"linspace": [0.125, 0.875, 7]},
            "memory": {"kind": "step", "breakpoints": [0.5], "levels": [0.6, 1.5]},
            "innovations": innovations,
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
            exact, bound = cross_covariance_exact(spec, float(row["s"]), float(row["t"]),
                                                  int(row["h"]))
            assert row["exact"] == io.format_float(exact)
            assert row["exact_error_bound"] == io.format_float(bound)
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
        with (out / "summability.csv").open() as fh:
            s_rows = list(csv.DictReader(fh))
        assert len(s_rows) == 7 * 7
        assert [row["classification"] for row in s_rows] == [
            lm.classify_summability(d[float(row["s"])], d[float(row["t"])]) for row in s_rows]

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


    @pytest.mark.parametrize("name", ["clt_boundary_reference.json", "clt_long_reference.json",
                                      "fig1a.json", "fig1b.json"])
    def test_sigma_is_factored_only_on_sampling(self, tmp_path, monkeypatch, name):
        # loading a spec and analyzing it never read sigma's Cholesky factor
        calls = []
        for module in (lm.model, lm.simulate):
            monkeypatch.setattr(module, "_factor_psd", calls.append)
        lm.load_spec(_config_path(name))
        assert main(["analyze", "--config", _config_path(name),
                     "--out", str(tmp_path / "a")]) == 0
        assert calls == []


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_flag_below_one_exits_2(self, tmp_path, capsys, threads):
        cfg = _write(tmp_path, SMALL_LONG)
        assert main(["verify-clt", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert "--threads" in err and threads in err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_commands_that_read_no_threads_refuse_the_flag(self, tmp_path, capsys, command):
        # only verify-clt runs shards, so only it takes --threads
        cfg = _write(tmp_path, SMALL_LONG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(tmp_path / "s"), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestSharedKnobs:
    @pytest.mark.parametrize("patch, argv, names", [
        ({}, ["--seed", "-3"], ["--seed", "non-negative", "-3"]),
        ({"seed": -3}, [], ["config 'seed'", "non-negative", "-3"]),
    ], ids=["flag-seed-negative", "config-seed-negative"])
    def test_bad_value_exits_2_naming_its_source(self, tmp_path, capsys, patch, argv, names):
        cfg = _write(tmp_path, dict(SMALL_LONG, **patch))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line diagnostic
        assert all(name in err for name in names), err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("name", ["LONGMEM_SEED", "LONGMEM_OUT", "LONGMEM_THREADS",
                                      "LONGMEM_TAIL_TOL"])
    @pytest.mark.parametrize("command", ["simulate", "analyze", "verify-clt"])
    def test_retired_variable_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch,
                                                      command, name):
        # a variable longmem no longer reads is refused, naming it, rather
        # than ignored, and even an empty one counts as set
        values = {"LONGMEM_SEED": "5", "LONGMEM_OUT": str(tmp_path / "env"),
                  "LONGMEM_THREADS": "2", "LONGMEM_TAIL_TOL": "0.2"}
        monkeypatch.setenv(name, values[name])
        cfg = _write(tmp_path, SMALL_LONG)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and "no longer read" in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]
        monkeypatch.setenv(name, "")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert name in capsys.readouterr().err


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

    def test_failed_verdict_exits_1(self, tmp_path):
        # bands of 1e-9 standard errors: every covariance verdict fails, and
        # the run still writes its files
        out = tmp_path / "v"
        assert main(["verify-clt", "--config", _write(tmp_path, dict(SMALL_LONG, z_star=1e-9)),
                     "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["covariance_verdicts_pass"] is False
        assert summary["overall_pass"] is False

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
        ("n_list", [256] * 5, "need at least 5 distinct horizons"),
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

    def test_allocation_failure_past_the_preflight_exits_2(self, tmp_path, capsys,
                                                           monkeypatch):
        # the run passes its memory preflight and then fails to allocate
        def draws(*args):
            raise MemoryError("Unable to allocate 8.00 GiB for an array with shape "
                              "(1073741824,) and data type float64")

        monkeypatch.setattr(lm.simulate, "_standard_draws", draws)
        assert main(["verify-clt", "--config", _write(tmp_path, SMALL_LONG),
                     "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize("error, code", [(lm.ValidationError, 2), (ValueError, 3),
                                             (KeyError, 3), (RuntimeError, 3)])
    def test_uncaught_error_exits_by_kind(self, tmp_path, capsys, monkeypatch, error, code):
        # exit 1 is a failed verdict only: refused input is 2, with one line
        # on stderr, and any other error is 3, with its traceback, a plain
        # ValueError (numpy's internal faults among them) included
        def fault(*args, **kwargs):
            raise error("injected fault")

        monkeypatch.setattr("longmem.cli.run_clt_experiment", fault)
        assert main(["verify-clt", "--config", _write(tmp_path, SMALL_LONG),
                     "--out", str(tmp_path / "v")]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == "error: injected fault\n"
        else:
            assert err.startswith("Traceback")
            assert err.endswith(f"{error.__name__}: {error('injected fault')}\n")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-clt", "--config"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("law", ["gaussian", "pareto"])
    def test_manifest_records_window_and_draws(self, tmp_path, law):
        cfg = dict(SMALL_LONG, innovations={"kind": "white", "sigma2": 1.0, "law": law})
        out = tmp_path / law
        assert main(["verify-clt", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) in (0, 1)
        m = _manifest_without_timestamp(out)
        spec = lm.spec_from_dict(cfg)
        n, window = cfg["n"], spec.window
        assert m["window"] == window
        z2 = np.square(lm.partial_sum_weights(spec, n))
        tail_var = np.array([sum(lm.partial_sum_covariance_series(float(d), float(d), n))
                             for d in spec.memory.distinct[0]]) - np.sum(z2, axis=1)
        b = lm.normalization_plan(spec, n)
        sigma2, idx = spec.innovations.sigma2, spec.memory.distinct[1]
        assert m["truncation_tail_var"] == (sigma2 * tail_var[idx] / b ** 2).tolist()
        # a Gaussian replication draws one q-vector for the whole past
        rows = cfg["n"] + (window if law == "pareto" else 1)
        assert m["innovations_drawn"] == cfg["N"] * rows


# the values a mutation draws: JSON scalars of each type, extremes, and
# empty or nested containers
MUTANT_VALUES = [None, True, False, math.nan, 1e308, 1e200, 1e-320, -1, 0, "x", "", [],
                 [[]], [-1], [1e308], {}, {"kind": {}}, {"a": [[]]}]
# every key a config may hold, as its path
MUTANT_PATHS = sorted({f"{table.split('.')[0]}.{key}".lstrip(".")
                       for table, keys in _CONFIG_KEYS.items() for key in keys})
FIG1B = json.loads(Path(_config_path("fig1b.json")).read_text())
MUTANTS = 400


def _mutant(rng: random.Random) -> dict:
    """SMALL_LONG or fig1b with one or two keys set to a value of
    MUTANT_VALUES; a section that is not an object becomes one first."""
    cfg = copy.deepcopy(rng.choice([SMALL_LONG, FIG1B]))
    for _ in range(rng.choice((1, 2))):
        *sections, key = rng.choice(MUTANT_PATHS).split(".")
        node = cfg
        for name in sections:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        node[key] = copy.deepcopy(rng.choice(MUTANT_VALUES))
    return cfg


# a CSV field that reads inf or nan, as io.format_float writes them
NON_FINITE_FIELD = re.compile(r"(?:^|,)[+-]?(?:inf|nan)(?:,|$)", re.MULTILINE | re.IGNORECASE)


def _non_finite_fields(out: Path) -> list:
    """The CSV files under ``out`` with a field that reads inf or nan."""
    texts = {path.name: path.read_text() for path in sorted(out.glob("*.csv"))}
    # the plain substring test first: a regex over every byte is 10x slower
    return [name for name, text in texts.items()
            if ("inf" in text or "nan" in text) and NON_FINITE_FIELD.search(text)]


def test_mutated_configs_never_exit_3(tmp_path, capsys):
    # a refused input exits 2 and is never an internal fault, and a run that
    # is not refused writes only finite numbers.  numpy's RuntimeWarnings
    # (overflow at 1e308) are ignored, as in a command-line run, not raised
    # as this suite's warning filter would
    rng = random.Random(35)
    failures = []
    for m in range(MUTANTS):
        cfg = _mutant(rng)
        path = _write(tmp_path, cfg)
        for command in ("simulate", "analyze", "verify-clt"):
            out = tmp_path / f"{m}-{command}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([command, "--config", path, "--out", str(out)])
            err = capsys.readouterr().err
            non_finite = [] if code == 2 else _non_finite_fields(out)
            if code not in (0, 1, 2) or non_finite:
                failures.append((command, cfg, code, err, non_finite))
    assert failures == []


@pytest.mark.parametrize("command, patch, message", [
    ("analyze", {"innovations": {"kind": "white", "sigma2": 1e308}},
     "covariances.csv asymptotic at (s, t, h) = (0.25, 0.25, 10) is inf,"),
    ("analyze", {"memory": {"kind": "constant", "values": 1e308}},
     "covariances.csv exact_error_bound at (s, t, h) = (0.25, 0.25, 0) is nan,"),
    ("analyze", {"grid": {"points": [0.25, 0.5, 0.75, 1.0], "weights": [1e300] * 4},
                 "innovations": {"kind": "white", "sigma2": 1e10}},
     "l2_report.json integral_sigma2 is inf,"),
    ("verify-clt", {"innovations": {"kind": "white", "sigma2": [1e300, 1, 1, 1e-300]}},
     "at (s, t) = (0.25, 0.25), in sigma's unit 4^0, the finite-n covariance is 9.52697e+299, "
     "the limit 1e+300 and the standard error nan: sigma's variances span more than the "
     "float range\n"),
    ("simulate", {"innovations": {"kind": "white", "sigma2": 1e-320}},
     "innovation covariance entry (0, 0) is 1e-320, subnormal"),
    ("verify-clt", {"innovations": {"kind": "wiener"}, "grid": {"points": [1e-320, 1.0]}},
     "innovation covariance entry (0, 0) is 1e-320, subnormal"),
], ids=["analyze-1e308", "analyze-memory-1e308", "analyze-l2", "verify-clt-span-1e600",
        "simulate-1e-320", "verify-clt-wiener-1e-320"])
def test_results_beyond_the_float_range_exit_2_writing_nothing(tmp_path, capsys, monkeypatch,
                                                               command, patch, message):
    # refused input, not a verdict: one stderr line, no numpy warning, no
    # data file, and for verify-clt no draw
    def refuse(*args, **kwargs):
        raise AssertionError("the replications were drawn")

    monkeypatch.setattr("longmem.mcverify._replication_sampler", refuse)
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, dict(BOUNDARY_REFERENCE, **patch)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert list(out.glob("*")) == []


VERDICT_FILES = ("verdicts.csv", "normality.csv", "summary.json", "gap_relative.csv",
                 "exponent_fit.csv")
COVARIANCE_FILES = ("covariance_empirical.csv", "covariance_finite_exact.csv",
                    "covariance_limit.csv", "covariance_se.csv")


def test_verdicts_do_not_depend_on_sigma_units(tmp_path, capsys):
    # sigma -> 4^k sigma moves sigma's unit by exactly k: the verdict files
    # keep their bytes and the covariances are 4^k times sigma2 = 1's, exactly,
    # from 4^-500 to 4^511 = 2^1022 (the largest power of four below the
    # float limit)
    def run(k: int) -> Path:
        out = tmp_path / str(k)
        cfg = dict(BOUNDARY_REFERENCE, innovations={"kind": "white", "sigma2": 4.0 ** k})
        assert main(["verify-clt", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        return out

    def values(path: Path) -> np.ndarray:
        return np.array([row[1:] for row in csv.reader(path.read_text().splitlines())][1:],
                        dtype=float)

    base = run(0)
    for k in (-500, -250, 250, 500, 511):
        out = run(k)
        for name in VERDICT_FILES:
            assert (out / name).read_bytes() == (base / name).read_bytes(), (k, name)
        for name in COVARIANCE_FILES:
            assert np.array_equal(values(out / name), np.ldexp(values(base / name), 2 * k))


def test_variances_spanning_1e300_run(tmp_path, capsys):
    # sigma's unit centres its variances, so both ends keep their standard errors
    cfg = dict(BOUNDARY_REFERENCE, innovations={"kind": "white",
                                                "sigma2": [1e150, 1.0, 1.0, 1e-150]})
    assert main(["verify-clt", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_entry_that_the_unit_makes_subnormal_reads_zero(tmp_path, capsys):
    # sigma_01 = 1e-110 beside variances of 1e200 is 1.3e-310 in sigma's unit
    # 4^332: it reads 0 there, and the run goes on as analyze and simulate do
    sigma = np.diag([1e200] * 4)
    sigma[0, 1] = sigma[1, 0] = 1e-110
    cfg = _write(tmp_path, dict(BOUNDARY_REFERENCE, innovations={"kind": "custom",
                                                                 "sigma": sigma.tolist()}))
    for command in ("analyze", "simulate", "verify-clt"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert capsys.readouterr().err == ""
    finite = np.loadtxt(tmp_path / "verify-clt" / "covariance_finite_exact.csv",
                        delimiter=",", skiprows=1, usecols=range(1, 5))
    assert finite[0, 1] == finite[1, 0] == 0.0 and np.all(np.diag(finite) > 1e199)


def test_empirical_beyond_the_float_range_exits_2_writing_nothing(tmp_path, capsys):
    # the targets at 1.79e308 are finite, but at this seed an empirical variance
    # lies above the largest float; the run is refused after the draws
    cfg = dict(BOUNDARY_REFERENCE, innovations={"kind": "white", "sigma2": 1.79e308}, seed=2)
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: covariance_empirical.csv at (s, t) = (0.75, 0.75) "
                                       "is inf, not a finite float: the input lies beyond the "
                                       "float range\n")
    assert list(out.glob("*")) == []


def test_non_finite_normality_exits_2_writing_nothing(tmp_path, capsys, monkeypatch):
    def with_nan(samples, variances):
        report = normality_diagnostics(samples, variances)
        skewness = report.skewness.copy()
        skewness[2] = math.nan
        return dataclasses.replace(report, skewness=skewness)

    monkeypatch.setattr("longmem.cli.normality_diagnostics", with_nan)
    out = tmp_path / "out"
    assert main(["verify-clt", "--config", _write(tmp_path, SMALL_LONG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: normality.csv skewness at t = 0.75 is nan, not a finite float: "
                   "the input lies beyond the float range\n")
    assert list(out.glob("*")) == []


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this longmem."""
    src = str(Path(lm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_fresh_process_writes_the_analyze_bytes_of_this_one(tmp_path):
    # the test oracles load scipy.integrate into this process, and a fresh
    # one runs on numpy alone: both write the same bytes.  The fresh one
    # loads neither OpenSSL (hashlib's _hashlib, 3.7 MB), numpy.ma,
    # numpy.random nor difflib: analyze uses none of them
    code = ("import sys, longmem.cli\n"
            "status = longmem.cli.main(sys.argv[1:])\n"
            "print([m for m in ('_hashlib', 'numpy.ma', 'numpy.random', 'difflib')\n"
            "       if m in sys.modules])\n"
            "sys.exit(status)\n")
    run = subprocess.run([sys.executable, "-c", code,
                          "analyze", "--config", _config_path("fig1a.json"),
                          "--out", str(tmp_path / "a")],
                         env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
    assert main(["analyze", "--config", _config_path("fig1a.json"),
                 "--out", str(tmp_path / "here")]) == 0
    for name in ("c_matrix.csv", "covariances.csv", "summability.csv", "l2_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


# numpy.random would load OpenSSL's _hashlib through secrets, hmac and hashlib
OPENSSL_MODULES = ("_hashlib", "hashlib", "hmac", "secrets")
# argv: fig1a, clt_boundary_reference, an output directory, and "masked" to
# run without the built-in _md5
_EVERY_COMMAND = (
    "import sys\n"
    "if sys.argv[4] == 'masked':\n"
    "    sys.modules['_md5'] = None\n"
    "import longmem.cli\n"
    "def loaded():\n"
    "    return (any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
    "            'numpy.ma' in sys.modules,\n"
    f"            any(m in sys.modules for m in {OPENSSL_MODULES!r}))\n"
    "def run(command, config, out):\n"
    "    status = longmem.cli.main([command, '--config', config, '--out', out])\n"
    "    print(command, status, *loaded())\n"
    "print('import', 0, *loaded())\n"
    "run('simulate', sys.argv[1], sys.argv[3] + '/s')\n"
    "run('analyze', sys.argv[1], sys.argv[3] + '/a')\n"
    "run('verify-clt', sys.argv[2], sys.argv[3] + '/v')\n"
    "import hashlib, hmac, secrets\n"
    "print(hashlib.sha256(b'abc').hexdigest())\n"
    "print(hmac.new(b'k', b'm', 'sha256').hexdigest())\n"
    "print(hasattr(hashlib, 'pbkdf2_hmac'), len(secrets.token_hex(4)))\n")


def _run_every_command(tmp_path, mode: str) -> None:
    run = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, _config_path("fig1a.json"),
                          _config_path("clt_boundary_reference.json"), str(tmp_path), mode],
                         env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert run.stdout.splitlines() == [
        "import 0 False False False", "simulate 0 False False False",
        "analyze 0 False False False", "verify-clt 0 False False False",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec", "True 8"], run.stderr
    assert run.stderr == ""
    assert (tmp_path / "v" / "normality.csv").exists()


def test_commands_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only.  Its special module alone costs a
    # process about 20 MB; the library's one normal CDF and its zeta are
    # in-house ports, so no command loads any scipy module.  Nor does any
    # load numpy.ma (about 1.5 MB), which a plain np.unique would import;
    # verify-clt reads a constant memory section.  Nor OpenSSL's _hashlib
    # (about 3.4 MB) or the modules that load it, which numpy.random would
    # import through secrets; a later import of hashlib, hmac and secrets
    # still gets them, pbkdf2_hmac included
    _run_every_command(tmp_path, "plain")


def test_commands_without_a_builtin_hash_leave_openssl_unloaded(tmp_path):
    # hashlib is never imported, so an interpreter that lacks one of its
    # built-in hashes logs nothing, and a later hashlib still finds md5
    _run_every_command(tmp_path, "masked")


def test_verify_clt_without_a_builtin_hash_writes_the_same_bytes(tmp_path):
    # an interpreter that lacks one of hashlib's built-in hashes imports
    # numpy.random without OpenSSL too: hashlib, which would log "code for
    # hash md5 was not found" on stderr, is never imported
    code = ("import sys\n"
            "if sys.argv[1] == 'masked':\n"
            "    sys.modules['_md5'] = None\n"
            "import longmem.cli\n"
            "status = longmem.cli.main(sys.argv[2:])\n"
            "print(status, '_hashlib' in sys.modules)\n")
    cfg = _config_path("clt_boundary_reference.json")
    for mode in ("masked", "plain"):
        run = subprocess.run([sys.executable, "-c", code, mode, "verify-clt", "--config", cfg,
                              "--out", str(tmp_path / mode), "--threads", "1"],
                             env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (0, "0 False\n", "")
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "masked").iterdir())
    for name in names:
        if name != "manifest.json":   # it holds a timestamp
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "masked" / name).read_bytes())
    assert (_manifest_without_timestamp(tmp_path / "plain")
            == _manifest_without_timestamp(tmp_path / "masked"))


def test_fresh_processes_write_the_same_bytes_at_any_thread_count(tmp_path):
    # no thread loads any scipy module, and the output bytes do not depend
    # on the thread count
    code = ("import sys, longmem.cli\n"
            "status = longmem.cli.main(sys.argv[1:])\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "sys.exit(status)\n")
    cfg = _write(tmp_path, SMALL_LONG)
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", code, "verify-clt", "--config", cfg,
                              "--out", str(tmp_path / threads), "--threads", threads],
                             env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert len(names) == 10
    for name in names:
        if name != "manifest.json":   # it holds a timestamp
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    assert (_manifest_without_timestamp(tmp_path / "1")
            == _manifest_without_timestamp(tmp_path / "2"))


@pytest.mark.parametrize("prelude, expected", [
    ("", "True False\nTrue\n"),
    ("import secrets as first\nprint(first is __import__('sys').modules['secrets'])\n",
     "True\nTrue True\nTrue\n"),
], ids=["stand-in", "loaded-before"])
def test_numpy_random_leaves_secrets_as_it_found_it(prelude, expected):
    # a fresh process runs the prelude, imports numpy.random through
    # _numpy_random and asks for OS entropy; it prints whether secrets is
    # loaded then, and whether a later import of it has token_hex.  A
    # stand-in serves numpy's one import and is gone after it; a secrets
    # module loaded before is the one kept
    code = (prelude + "import sys, longmem.simulate\n"
            "npr = longmem.simulate._numpy_random()\n"
            "print(npr.SeedSequence().entropy > 0, 'secrets' in sys.modules)\n"
            "import secrets\n"
            "print(hasattr(secrets, 'token_hex'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, expected, "")


def _sha256_on_disk(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("rows", [1, io.TABLE_BLOCK + 1, 3 * io.TABLE_BLOCK + 17],
                         ids=["1-row", "2-blocks", "4-blocks"])
def test_table_csv_returns_the_sha256_of_its_bytes(tmp_path, rows):
    # the digest runs over the header and every block, non-ASCII text and
    # quoted fields included
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows), rng.standard_normal(rows),
               ["ℓ²(μ)" if k % 3 else 'a "b", c' for k in range(rows)]]
    digest = io.write_table_csv(tmp_path / "t.csv", ["k", "x", "note"], columns)
    assert digest == _sha256_on_disk(tmp_path / "t.csv")


def test_json_returns_the_sha256_of_its_bytes(tmp_path):
    payload = {"b": [1.5, None, True, math.pi], "a": {"ℓ": 'say "so"\n'}, "n": 10 ** 20}
    assert io.write_json(tmp_path / "p.json", payload) == _sha256_on_disk(tmp_path / "p.json")


@pytest.mark.parametrize("command", ["simulate", "analyze", "verify-clt"])
def test_manifest_outputs_name_every_file_written(tmp_path, command):
    # the manifest lists exactly the files of the run directory but itself,
    # each with the SHA-256 of its bytes on disk
    out = tmp_path / command
    assert main([command, "--config", _write(tmp_path, SMALL_LONG), "--out", str(out)]) == 0
    outputs = _manifest_without_timestamp(out)["outputs"]
    assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert outputs == {name: _sha256_on_disk(out / name) for name in outputs}


# the files whose bytes do not depend on numpy's SIMD dispatch; analyze's
# covariances.csv and every file derived from draws do
DISPATCH_FREE = {
    "analyze": ("c_matrix.csv", "summability.csv", "l2_report.json"),
    "verify-clt": ("covariance_finite_exact.csv", "covariance_limit.csv", "covariance_se.csv",
                   "gap_relative.csv", "exponent_fit.csv"),
}


def test_manifest_records_the_simd_dispatch(tmp_path):
    # a child with every target above the baseline disabled writes the
    # dispatch-free files byte for byte as this process does, and its
    # manifests record other found targets.  On a host with nothing above
    # the baseline only the files are compared.  A Monte Carlo verdict may
    # move with the dispatch, so verify-clt may exit 1
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    code = ("import sys, longmem.cli\n"
            "for command, config in zip(('analyze', 'verify-clt'), sys.argv[2:]):\n"
            "    status = longmem.cli.main([command, '--config', config,\n"
            "                               '--out', sys.argv[1] + '/' + command])\n"
            "    print(command, status)\n")
    configs = (_config_path("fig1a.json"), _config_path("clt_boundary_reference.json"))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "masked"), *configs],
                         env=dict(_fresh_env(), NPY_DISABLE_CPU_FEATURES=" ".join(found)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout in ("analyze 0\nverify-clt 0\n", "analyze 0\nverify-clt 1\n")
    for command, config in zip(DISPATCH_FREE, configs):
        plain, masked = tmp_path / "plain" / command, tmp_path / "masked" / command
        assert main([command, "--config", config, "--out", str(plain)]) in (0, 1)
        for name in DISPATCH_FREE[command]:
            assert (masked / name).read_bytes() == (plain / name).read_bytes(), name
        software = [_manifest_without_timestamp(d)["software"] for d in (plain, masked)]
        assert software[0]["simd_found"] == found
        if found:
            assert software[1]["simd_found"] != found
            assert software[0]["simd_baseline"] == software[1]["simd_baseline"]


def test_sha256_is_the_interpreters_own_module():
    # _sha2 on Python 3.12 and later, _sha256 on 3.10 and 3.11
    assert io.sha256.__module__ in ("_sha2", "_sha256")


def test_sha256_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without either module still hashes: longmem.io
    # imported afresh takes hashlib's, and this one is put back after
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.delitem(sys.modules, "longmem.io")
    monkeypatch.setattr(lm, "io", io)
    fresh = importlib.import_module("longmem.io")
    assert fresh is not io
    assert fresh.sha256 is hashlib.sha256


def test_table_csv_quotes_only_text_that_needs_it(tmp_path):
    rows = [(0.1, 3, True, "", "plain"), (2.0, -1, False, 'say "so", then', "a\nb")]
    io.write_table_csv(tmp_path / "t.csv", ["x", "h", "ok", "note", "more"], list(zip(*rows)))
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith("x,h,ok,note,more\n0.10000000000000001,3,True,,plain\n")
    with (tmp_path / "t.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[io.format_float(r[0]), *map(str, r[1:])]
                                            for r in rows]


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n.1'), max_size=5)
# each kind: the strategy for its values, the values every pool holds (equal
# but differently written ones among them) and how a column holds them
_COLUMN_KINDS = {
    "float": (st.floats(), _SPECIAL_FLOATS, lambda v: np.array(v, dtype=float)),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1), [0, -1],
            lambda v: np.array(v, dtype=np.int64)),
    "bool": (st.booleans(), [True, False], lambda v: np.array(v, dtype=bool)),
    "text": (_TEXT, ["", ",", '"', "\r", "\n"], list),
    "object": (st.floats() | _TEXT, [0.0, -0.0, math.nan, "", True, 1, 1.0],
               lambda v: np.array(v, dtype=object)),
}


@st.composite
def _tables(draw):
    """Equal-length columns drawn from small pools of values, so a block
    holds repeats as well as distinct values."""
    rows = draw(st.sampled_from([0, 1, io.TABLE_BLOCK - 1, io.TABLE_BLOCK,
                                 io.TABLE_BLOCK + 1]))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1,
                              max_size=4)):
        values, always, build = _COLUMN_KINDS[kind]
        pool = draw(st.lists(values, max_size=4)) + always
        picks = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(len(pool),
                                                                             size=rows)
        columns.append(build([pool[k] for k in picks.tolist()]))
    return columns


@given(columns=_tables())
@settings(max_examples=60, deadline=None)
def test_table_csv_by_column_matches_the_row_writer(columns):
    header = [f"c{k}" for k in range(len(columns))]
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with tempfile.TemporaryDirectory() as tmp:
        io.write_table_csv(Path(tmp) / "columns.csv", header, columns)
        write_table_csv_rows(Path(tmp) / "rows.csv", header, rows)
        assert (Path(tmp) / "columns.csv").read_bytes() == (Path(tmp) / "rows.csv").read_bytes()


def test_table_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        io.write_table_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
