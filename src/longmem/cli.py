"""Config-driven command line: simulate / analyze / verify-clt.

Every run writes a ``manifest.json`` echoing the fully resolved
configuration, the package version, the seed, and SHA-256 digests of all
emitted files.  Only the manifest timestamp is nondeterministic; the data
files are byte-identical for identical config + seed.

Exit codes: 0 = success / all verdicts pass, 1 = verdict failure,
2 = configuration or validation error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .model import TailBudgetError, ValidationError, _config_value, spec_from_dict
from .analytics import (
    RegimeError,
    classify_summability,
    cross_covariance_asymptotic,
    cross_covariance_matrix,
    l2_membership,
    scale_integral,
    scale_integral_closed_form,
)
from .simulate import generate_paths
from .mcverify import (DEFAULT_Z_STAR, MIN_NORMALITY_N, fit_variance_exponent,
                       normality_diagnostics, run_clt_experiment)
from . import io

ENV_PREFIX = "LONGMEM_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _resolve(args, cfg):
    """Flag > environment > config file > default, for the shared knobs."""
    seed = args.seed if args.seed is not None else \
        int(_env("SEED")) if _env("SEED") else _config_value(cfg, "seed", 0, int)
    out = Path(args.out if args.out is not None else _env("OUT") or ".")
    threads = args.threads if args.threads is not None else \
        int(_env("THREADS")) if _env("THREADS") else 1
    if threads < 1:
        raise ValueError(f"--threads / {ENV_PREFIX}THREADS must be at least 1; got {threads}")
    tail_tol = args.tail_tol if args.tail_tol is not None else \
        float(_env("TAIL_TOL")) if _env("TAIL_TOL") else None
    return seed, out, threads, tail_tol


def _int_list(values) -> list:
    return [int(v) for v in values]


def _load(args):
    cfg_path = Path(args.config)
    with cfg_path.open() as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config: the top level must be a JSON object")
    seed, out, threads, tail_tol = _resolve(args, cfg)
    if tail_tol is not None:
        cfg = dict(cfg, tail_tol=tail_tol)
    spec = spec_from_dict(cfg, base_dir=cfg_path.parent)
    spec.require_valid()
    out.mkdir(parents=True, exist_ok=True)
    return cfg, spec, seed, out, threads


def _manifest(out: Path, command: str, cfg: dict, seed: int, outputs, extra=None):
    payload = {
        "command": command,
        "version": __version__,
        # byte-identical outputs are promised only on one software stack
        "software": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "seed": seed,
        "resolved_config": cfg,
        "outputs": {name: io.sha256_file(out / name) for name in outputs},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    io.write_json(out / "manifest.json", payload)


def cmd_simulate(args) -> int:
    cfg, spec, seed, out, _ = _load(args)
    ensemble = generate_paths(spec, spec.horizon, seed)
    steps = enumerate(ensemble.values.tolist(), start=1)
    io.write_table_csv(out / "paths.csv", ["k", *map(io.format_float, spec.grid.points)],
                       ([k, *row] for k, row in steps))
    _manifest(out, "simulate", cfg, seed, ["paths.csv"],
              extra={"window": ensemble.window, "spec_hash": ensemble.spec_hash,
                     "truncation_tail_var": ensemble.truncation_tail_var.tolist()})
    return 0


def _pair_rows(ds: float, dt: float):
    """c_matrix.csv fields and summability class of one exponent pair."""
    try:
        cq = scale_integral(ds, dt)
        cc = scale_integral_closed_form(ds, dt)
        c_fields = (cq, cc, abs(cq - cc) / abs(cc), "")
    except RegimeError as exc:
        c_fields = ("", "", "", str(exc))
    return c_fields, classify_summability(ds, dt)


def _asymptotic(spec, h: int):
    """Lag-h asymptotic covariance of every grid pair, and the note of each
    distinct exponent pair ("" where the law applies); the closed form runs
    once per distinct pair, on its whole sigma block."""
    sigma = spec.innovations.sigma
    u, idx = spec.memory.distinct
    values = np.zeros_like(sigma)
    notes = [["lag too small for asymptotics"] * len(u) for _ in u]
    if h < 2:
        return values, notes
    for a in range(len(u)):
        for b in range(len(u)):
            block = np.ix_(idx == a, idx == b)
            try:
                values[block] = cross_covariance_asymptotic(float(u[a]), float(u[b]),
                                                            sigma[block], h)
                notes[a][b] = ""
            except RegimeError as exc:
                notes[a][b] = str(exc)
    return values, notes


def cmd_analyze(args) -> int:
    cfg, spec, seed, out, _ = _load(args)
    pts = spec.grid.points
    q = spec.grid.q
    lags = _config_value(cfg, "lags", [0, 1, 10, 100], _int_list)
    covs = [cross_covariance_matrix(spec, h) + _asymptotic(spec, h) for h in lags]
    u, idx = spec.memory.distinct
    pair_rows = [[_pair_rows(float(a), float(b)) for b in u] for a in u]

    c_rows, cov_rows, sum_rows = [], [], []
    for i in range(q):
        for j in range(q):
            s, t = float(pts[i]), float(pts[j])
            c_fields, summability = pair_rows[idx[i]][idx[j]]
            c_rows.append((s, t, *c_fields))
            sum_rows.append((s, t, summability))
            for h, (values, bounds, asym, notes) in zip(lags, covs):
                note = notes[idx[i]][idx[j]]
                cov_rows.append((s, t, h, float(values[i, j]), float(bounds[i, j]),
                                 "" if note else float(asym[i, j]), note))

    io.write_table_csv(out / "c_matrix.csv",
                       ["s", "t", "c_quadrature", "c_closed_form",
                        "relative_delta", "note"], c_rows)
    io.write_table_csv(out / "covariances.csv",
                       ["s", "t", "h", "exact", "exact_error_bound",
                        "asymptotic", "note"], cov_rows)
    io.write_table_csv(out / "summability.csv", ["s", "t", "classification"], sum_rows)
    l2 = l2_membership(spec)
    io.write_json(out / "l2_report.json",
                  {"verdict": l2.verdict,
                   "integral_sigma2": l2.integral_sigma2,
                   "integral_sigma2_over_2d_minus_1": l2.integral_weighted})
    _manifest(out, "analyze", cfg, seed,
              ["c_matrix.csv", "covariances.csv", "summability.csv", "l2_report.json"])
    return 0


def cmd_verify_clt(args) -> int:
    cfg, spec, seed, out, threads = _load(args)
    n = _config_value(cfg, "n", spec.horizon, int)
    N = _config_value(cfg, "N", MIN_NORMALITY_N, int)
    n_list = _config_value(cfg, "n_list", [256, 512, 1024, 2048, 4096], _int_list)
    z_star = _config_value(cfg, "z_star", DEFAULT_Z_STAR, float)

    # everything that can reject the input runs before the Monte Carlo run
    fit = fit_variance_exponent(spec, n_list)
    if N < MIN_NORMALITY_N:
        raise ValueError(f"normality diagnostics need N >= {MIN_NORMALITY_N}; got N={N}")
    report = run_clt_experiment(spec, n, N, seed, z_star=z_star, shards=threads)
    norm = normality_diagnostics(report.samples,
                                 variances=np.diag(report.finite_n_exact))

    pts = spec.grid.points
    for name, matrix in (("covariance_empirical", report.empirical),
                         ("covariance_finite_exact", report.finite_n_exact),
                         ("covariance_limit", report.limit.K),
                         ("covariance_se", report.se),
                         ("verdicts", report.verdicts.astype(float)),
                         ("gap_relative", report.gap_rel)):
        # labelled on both axes by the grid points
        io.write_table_csv(out / f"{name}.csv", ["s\\t", *map(io.format_float, pts)],
                           ([s, *row] for s, row in zip(pts.tolist(), matrix.tolist())))
    io.write_table_csv(out / "normality.csv",
                       ["t", "skewness", "excess_kurtosis", "ks_distance",
                        "skew_ok", "kurt_ok"],
                       [(float(pts[i]), float(norm.skewness[i]),
                         float(norm.excess_kurtosis[i]), float(norm.ks_distance[i]),
                         bool(norm.skew_ok[i]), bool(norm.kurt_ok[i]))
                        for i in range(spec.grid.q)])
    io.write_table_csv(out / "exponent_fit.csv",
                       ["t", "slope", "theoretical", "ln_corrected", "max_residual"],
                       [(float(pts[i]), float(fit.slopes[i]), float(fit.theoretical[i]),
                         bool(fit.corrected[i]), float(fit.max_residual[i]))
                        for i in range(spec.grid.q)])
    passed = report.passed and norm.passed
    summary = {
        "regime": report.limit.regime,
        "n": n, "N": N, "z_star": z_star,
        "covariance_verdicts_pass": report.passed,
        "normality_pass": norm.passed,
        "max_relative_gap": report.max_gap,
        "skew_band": norm.skew_band, "kurt_band": norm.kurt_band,
        "overall_pass": passed,
    }
    io.write_json(out / "summary.json", summary)
    _manifest(out, "verify-clt", cfg, seed,
              ["covariance_empirical.csv", "covariance_finite_exact.csv",
               "covariance_limit.csv", "covariance_se.csv", "verdicts.csv",
               "gap_relative.csv", "normality.csv", "exponent_fit.csv",
               "summary.json"],
              extra={"window": report.window,
                     "truncation_tail_var": report.truncation_tail_var.tolist(),
                     "innovations_drawn": report.innovations_drawn})
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Simulate and verify functional linear processes with "
                    "space-varying long memory.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("simulate", cmd_simulate, "generate truncated sample paths"),
            ("analyze", cmd_analyze, "exact/asymptotic covariance analytics"),
            ("verify-clt", cmd_verify_clt, "Monte Carlo CLT verification")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON spec/run config")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (env {ENV_PREFIX}SEED)")
        p.add_argument("--out", default=None,
                       help=f"output directory (env {ENV_PREFIX}OUT)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker cap (env {ENV_PREFIX}THREADS)")
        p.add_argument("--tail-tol", type=float, default=None, dest="tail_tol",
                       help=f"override truncation budget (env {ENV_PREFIX}TAIL_TOL)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, TailBudgetError, RegimeError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
