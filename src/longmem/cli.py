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
from .model import TailBudgetError, ValidationError, spec_from_dict
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
from .mcverify import fit_variance_exponent, normality_diagnostics, run_clt_experiment
from . import io

ENV_PREFIX = "LONGMEM_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _resolve(args, cfg):
    """Flag > environment > config file > default, for the shared knobs."""
    seed = args.seed if args.seed is not None else \
        int(_env("SEED")) if _env("SEED") else int(cfg.get("seed", 0))
    out = Path(args.out if args.out is not None else _env("OUT") or ".")
    threads = args.threads if args.threads is not None else \
        int(_env("THREADS")) if _env("THREADS") else 1
    if threads < 1:
        raise ValueError(f"--threads / {ENV_PREFIX}THREADS must be at least 1; got {threads}")
    tail_tol = args.tail_tol if args.tail_tol is not None else \
        float(_env("TAIL_TOL")) if _env("TAIL_TOL") else None
    return seed, out, threads, tail_tol


def _load(args):
    cfg_path = Path(args.config)
    with cfg_path.open() as fh:
        cfg = json.load(fh)
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
    n = int(cfg.get("horizon", spec.horizon))
    ensemble = generate_paths(spec, n, seed)
    io.write_paths_csv(out / "paths.csv", ensemble.values, spec.grid.points)
    _manifest(out, "simulate", cfg, seed, ["paths.csv"],
              extra={"window": ensemble.window, "spec_hash": ensemble.spec_hash})
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


def cmd_analyze(args) -> int:
    cfg, spec, seed, out, _ = _load(args)
    pts = spec.grid.points
    d = spec.memory.values
    sigma = spec.innovations.sigma
    q = spec.grid.q
    lags = [int(h) for h in cfg.get("lags", [0, 1, 10, 100])]
    covs = [cross_covariance_matrix(spec, h) for h in lags]
    u, idx = spec.memory.distinct
    pair_rows = [[_pair_rows(float(a), float(b)) for b in u] for a in u]

    c_rows, cov_rows, sum_rows = [], [], []
    for i in range(q):
        for j in range(q):
            s, t = float(pts[i]), float(pts[j])
            ds, dt = float(d[i]), float(d[j])
            c_fields, summability = pair_rows[idx[i]][idx[j]]
            c_rows.append((s, t, *c_fields))
            sum_rows.append((s, t, summability))
            for h, (values, bounds) in zip(lags, covs):
                try:
                    asym = io.format_float(
                        cross_covariance_asymptotic(ds, dt, float(sigma[i, j]), h)) \
                        if h >= 2 else ""
                    note = "" if h >= 2 else "lag too small for asymptotics"
                except RegimeError as exc:
                    asym, note = "", str(exc)
                cov_rows.append((s, t, h, float(values[i, j]), float(bounds[i, j]),
                                 asym, note))

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
    n = int(cfg.get("n", spec.horizon))
    N = int(cfg.get("N", 500))
    n_list = cfg.get("n_list", [256, 512, 1024, 2048, 4096])
    z_star = float(cfg.get("z_star", 4.0))

    report = run_clt_experiment(spec, n, N, seed, z_star=z_star, shards=threads)
    norm = normality_diagnostics(report.samples,
                                 variances=np.diag(report.finite_n_exact))
    fit = fit_variance_exponent(spec, n_list)

    pts = spec.grid.points
    io.write_matrix_csv(out / "covariance_empirical.csv", report.empirical, pts)
    io.write_matrix_csv(out / "covariance_finite_exact.csv", report.finite_n_exact, pts)
    io.write_matrix_csv(out / "covariance_limit.csv", report.limit.K, pts)
    io.write_matrix_csv(out / "covariance_se.csv", report.se, pts)
    io.write_matrix_csv(out / "verdicts.csv", report.verdicts.astype(float), pts)
    io.write_matrix_csv(out / "gap_relative.csv", report.gap_rel, pts)
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
