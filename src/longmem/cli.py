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

from . import __version__
from .model import TailBudgetError, ValidationError, _read_config
from .analytics import (
    RegimeError,
    _pair_blocks,
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


def _override(flag: str, value, name: str, cast):
    """``value`` if the flag was given, else ``cast`` of the environment
    variable (None if unset); a value that fails names both."""
    raw = os.environ.get(ENV_PREFIX + name)
    if value is not None or not raw:
        return value
    try:
        return cast(raw)
    except ValueError:
        raise ValidationError(f"{flag} / {ENV_PREFIX}{name}: invalid value {raw!r}") from None


def _resolve(args):
    """Flag > environment, for the shared knobs; ``seed`` and ``tail_tol``
    are None when neither is given (the config file or a default decides)."""
    seed = _override("--seed", args.seed, "SEED", int)
    out = Path(_override("--out", args.out, "OUT", str) or ".")
    threads = _override("--threads", args.threads, "THREADS", int)
    threads = 1 if threads is None else threads
    if threads < 1:
        raise ValueError(f"--threads / {ENV_PREFIX}THREADS must be at least 1; got {threads}")
    return seed, out, threads, _override("--tail-tol", args.tail_tol, "TAIL_TOL", float)


def _load(args):
    """The raw config (for the manifest), its top level as read (the run
    keys), the spec, and the shared knobs: flag > environment > config
    file > default."""
    cfg_path = Path(args.config)
    with cfg_path.open() as fh:
        cfg = json.load(fh)
    seed, out, threads, tail_tol = _resolve(args)
    cfg, spec, run = _read_config(cfg, cfg_path.parent, tail_tol)
    seed = run.get("seed", 0) if seed is None else seed
    if seed < 0:
        raise ValueError(f"--seed / {ENV_PREFIX}SEED / config 'seed' must be non-negative; "
                         f"got {seed}")
    out.mkdir(parents=True, exist_ok=True)
    return cfg, run, spec, seed, out, threads


def _manifest(out: Path, command: str, cfg: dict, seed: int, outputs, extra=None):
    payload = {
        "command": command,
        "version": __version__,
        # byte-identical outputs are promised only on one software stack
        "software": {"python": platform.python_version(), "numpy": np.__version__},
        "seed": seed,
        "resolved_config": cfg,
        "outputs": {name: io.sha256_file(out / name) for name in outputs},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    io.write_json(out / "manifest.json", payload)


def cmd_simulate(args) -> int:
    cfg, _, spec, seed, out, _ = _load(args)
    values, tail_var = generate_paths(spec, spec.horizon, seed)
    io.write_table_csv(out / "paths.csv", ["k", *map(io.format_float, spec.grid.points)],
                       [np.arange(1, len(values) + 1), *values.T])
    _manifest(out, "simulate", cfg, seed, ["paths.csv"],
              extra={"window": spec.window, "spec_hash": spec.spec_hash,
                     "truncation_tail_var": tail_var.tolist()})
    return 0


def _pair_rows(ds: float, dt: float) -> tuple:
    """c_matrix.csv fields and summability class of one exponent pair."""
    try:
        cq = scale_integral(ds, dt)
        cc = scale_integral_closed_form(ds, dt)
        c_fields = (cq, cc, abs(cq - cc) / abs(cc), "")
    except RegimeError as exc:
        c_fields = ("", "", "", str(exc))
    return (*c_fields, classify_summability(ds, dt))


def _asymptotic(spec, h: int):
    """Lag-h asymptotic covariances and notes ("" where the law applies), q x q;
    the closed form runs once per distinct exponent pair, on its sigma block."""
    sigma = spec.innovations.sigma
    values = np.zeros_like(sigma)
    notes = np.empty(sigma.shape, dtype=object)
    notes[...] = "lag too small for asymptotics"   # one str object for every entry
    if h < 2:
        return values, notes
    for d_s, d_t, block in _pair_blocks(spec):
        try:
            values[block] = cross_covariance_asymptotic(d_s, d_t, sigma[block], h)
            notes[block] = ""
        except RegimeError as exc:
            notes[block] = str(exc)
    return values, notes


def cmd_analyze(args) -> int:
    cfg, run, spec, seed, out, _ = _load(args)
    pts = spec.grid.points
    q = spec.grid.q
    lags = run.get("lags", [0, 1, 10, 100])
    # one row per grid pair (i, j), j fastest
    i, j = divmod(np.arange(q * q), q)
    fields = np.empty((q, q, 5), dtype=object)
    for d_s, d_t, block in _pair_blocks(spec):
        fields[block] = _pair_rows(d_s, d_t)
    c_quad, c_closed, delta, c_note, summability = fields.reshape(q * q, 5).T

    # covariances.csv: one row per (i, j, lag), lag fastest
    exact, bound, asym = (np.empty((q * q, len(lags))) for _ in range(3))
    note = np.empty((q * q, len(lags)), dtype=object)
    for k, h in enumerate(lags):
        values, bounds = cross_covariance_matrix(spec, h)
        asymptotic, notes = _asymptotic(spec, h)
        exact[:, k], bound[:, k], asym[:, k] = values.ravel(), bounds.ravel(), asymptotic.ravel()
        note[:, k] = notes.ravel()
    asym = asym.astype(object)
    asym[note != ""] = ""
    s, t = np.repeat(pts[i], len(lags)), np.repeat(pts[j], len(lags))

    io.write_table_csv(out / "c_matrix.csv",
                       ["s", "t", "c_quadrature", "c_closed_form",
                        "relative_delta", "note"],
                       [pts[i], pts[j], c_quad, c_closed, delta, c_note])
    io.write_table_csv(out / "covariances.csv",
                       ["s", "t", "h", "exact", "exact_error_bound",
                        "asymptotic", "note"],
                       [s, t, np.tile(lags, q * q),
                        exact.ravel(), bound.ravel(), asym.ravel(), note.ravel()])
    io.write_table_csv(out / "summability.csv", ["s", "t", "classification"],
                       [pts[i], pts[j], summability])
    l2 = l2_membership(spec)
    io.write_json(out / "l2_report.json",
                  {"integral_sigma2": l2.integral_sigma2,
                   "integral_sigma2_over_2d_minus_1": l2.integral_weighted,
                   "min_d_minus_half": l2.min_d_minus_half, "min_d_point": l2.min_d_point})
    _manifest(out, "analyze", cfg, seed,
              ["c_matrix.csv", "covariances.csv", "summability.csv", "l2_report.json"])
    return 0


def cmd_verify_clt(args) -> int:
    cfg, run, spec, seed, out, threads = _load(args)
    n = run.get("n", spec.horizon)
    N = run.get("N", MIN_NORMALITY_N)
    n_list = run.get("n_list", [256, 512, 1024, 2048, 4096])
    z_star = run.get("z_star", DEFAULT_Z_STAR)

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
                         ("covariance_limit", report.limit),
                         ("covariance_se", report.se),
                         ("verdicts", report.verdicts.astype(float)),
                         ("gap_relative", report.gap_rel)):
        # labelled on both axes by the grid points
        io.write_table_csv(out / f"{name}.csv", ["s\\t", *map(io.format_float, pts)],
                           [pts, *matrix.T])
    io.write_table_csv(out / "normality.csv",
                       ["t", "skewness", "excess_kurtosis", "ks_distance",
                        "skew_ok", "kurt_ok"],
                       [pts, norm.skewness, norm.excess_kurtosis, norm.ks_distance,
                        norm.skew_ok, norm.kurt_ok])
    io.write_table_csv(out / "exponent_fit.csv",
                       ["t", "slope", "theoretical", "ln_corrected", "max_residual"],
                       [pts, fit.slopes, fit.theoretical, fit.corrected, fit.max_residual])
    passed = report.passed and norm.passed
    summary = {
        "regime": report.regime,
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
              extra={"window": spec.window,
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
            KeyError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
