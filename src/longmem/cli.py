"""Config-driven command line: simulate / analyze / verify-clt.

Every run writes a ``manifest.json`` echoing the fully resolved
configuration, the package version, the software stack, the seed, and the
SHA-256 digest that each writer returned for the file it emitted.  Only the
manifest timestamp is nondeterministic; the data files are byte-identical
for identical config + seed on one software stack and SIMD dispatch.

Exit codes: 0 = success / all verdicts pass, 1 = verdict failure and
nothing else, 2 = ``ValidationError``, ``OSError`` or ``MemoryError``, or a
usage error (one line on stderr), 3 = anything else, a plain ``ValueError``
included: an internal fault (its traceback on stderr).
"""

from __future__ import annotations

import argparse
import datetime
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .model import ValidationError, _load_json, _read_config, _unit
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

# no longer read: refused when set, so a leftover one never changes a run unnoticed
_RETIRED = ("LONGMEM_SEED", "LONGMEM_OUT", "LONGMEM_THREADS", "LONGMEM_TAIL_TOL")


def _load(args):
    """The raw config (for the manifest), its top level as read (the run
    keys), the spec, the seed and the output directory: flag > config file
    > default."""
    retired = [name for name in _RETIRED if name in os.environ]
    if retired:
        raise ValidationError(f"environment {', '.join(retired)}: no longer read; unset it "
                              f"and set the value by a flag or in the config")
    cfg_path = Path(args.config)
    cfg, spec, run = _read_config(_load_json(cfg_path), cfg_path.parent, args.tail_tol)
    seed = run.get("seed", 0) if args.seed is None else args.seed
    if seed < 0:
        raise ValidationError(f"--seed / config 'seed' must be non-negative; got {seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, run, spec, seed, out


def _require_finite(values, name) -> None:
    """Refuse a result with an entry that is not finite, naming the first by
    ``name(i)``, i its flat index: the input lies beyond the float range, and
    no file is written."""
    values = np.ravel(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(f"{name(bad[0])} is {values[bad[0]]:g}, not a finite float: "
                              f"the input lies beyond the float range")


def _manifest(out: Path, command: str, cfg: dict, seed: int, outputs: dict, extra=None):
    # byte-identical outputs are promised only on one software stack and one
    # SIMD dispatch: numpy's log and tan loops differ by target
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    payload = {
        "command": command,
        "version": __version__,
        "software": {"python": platform.python_version(), "numpy": np.__version__,
                     "simd_baseline": simd.get("baseline", []),
                     "simd_found": simd.get("found", [])},
        "seed": seed,
        "resolved_config": cfg,
        "outputs": outputs,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    io.write_json(out / "manifest.json", payload)


def cmd_simulate(args) -> int:
    cfg, _, spec, seed, out = _load(args)
    values, tail_var = generate_paths(spec, spec.horizon, seed)
    outputs = {"paths.csv": io.write_table_csv(
        out / "paths.csv", ["k", *map(io.format_float, spec.grid.points)],
        [np.arange(1, len(values) + 1), *values.T])}
    _manifest(out, "simulate", cfg, seed, outputs,
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
    cfg, run, spec, seed, out = _load(args)
    pts = spec.grid.points
    q = spec.grid.q
    lags = run.get("lags", [0, 1, 10, 100])
    # one row per grid pair (s, t), t fastest
    s_pair, t_pair = np.repeat(pts, q), np.tile(pts, q)
    fields = np.empty((q, q, 5), dtype=object)
    for d_s, d_t, block in _pair_blocks(spec):
        fields[block] = _pair_rows(d_s, d_t)
    c_quad, c_closed, delta, c_note, summability = fields.reshape(q * q, 5).T

    # covariances.csv: one row per (s, t, lag), lag fastest
    exact, bound, asym = (np.empty((q * q, len(lags))) for _ in range(3))
    note = np.empty((q * q, len(lags)), dtype=object)
    with np.errstate(all="ignore"):   # what leaves the float range is refused below
        for k, h in enumerate(lags):
            values, bounds = cross_covariance_matrix(spec, h)
            asymptotic, notes = _asymptotic(spec, h)
            exact[:, k], bound[:, k], asym[:, k] = (values.ravel(), bounds.ravel(),
                                                    asymptotic.ravel())
            note[:, k] = notes.ravel()
        l2 = l2_membership(spec)
    s, t = np.repeat(s_pair, len(lags)), np.repeat(t_pair, len(lags))
    h = np.tile(lags, q * q)
    for column, values in (("exact", exact), ("exact_error_bound", bound),
                           ("asymptotic", asym)):
        _require_finite(values, lambda i: f"covariances.csv {column} at (s, t, h) = "
                                          f"({s[i]:g}, {t[i]:g}, {h[i]})")
    l2_fields = {"integral_sigma2": l2.integral_sigma2,
                 "integral_sigma2_over_2d_minus_1": l2.integral_weighted,
                 "min_d_minus_half": l2.min_d_minus_half, "min_d_point": l2.min_d_point}
    for key, value in l2_fields.items():
        _require_finite(value, lambda i: f"l2_report.json {key}")
    asym = asym.astype(object)
    asym[note != ""] = ""

    outputs = {name: io.write_table_csv(out / name, header, columns)
               for name, header, columns in (
        ("c_matrix.csv", ["s", "t", "c_quadrature", "c_closed_form", "relative_delta", "note"],
         [s_pair, t_pair, c_quad, c_closed, delta, c_note]),
        ("covariances.csv", ["s", "t", "h", "exact", "exact_error_bound", "asymptotic", "note"],
         [s, t, h, exact.ravel(), bound.ravel(), asym.ravel(), note.ravel()]),
        ("summability.csv", ["s", "t", "classification"], [s_pair, t_pair, summability]))}
    outputs["l2_report.json"] = io.write_json(out / "l2_report.json", l2_fields)
    _manifest(out, "analyze", cfg, seed, outputs)
    return 0


def cmd_verify_clt(args) -> int:
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1; got {args.threads}")
    cfg, run, spec, seed, out = _load(args)
    n = run.get("n", spec.horizon)
    N = run.get("N", MIN_NORMALITY_N)
    n_list = run.get("n_list", [256, 512, 1024, 2048, 4096])
    z_star = run.get("z_star", DEFAULT_Z_STAR)

    # everything that can reject the input runs before the Monte Carlo run
    fit = fit_variance_exponent(spec, n_list)
    if N < MIN_NORMALITY_N:
        raise ValidationError(f"normality diagnostics need N >= {MIN_NORMALITY_N}; got N={N}")
    report = run_clt_experiment(spec, n, N, seed, z_star=z_star, shards=args.threads)
    pts = spec.grid.points
    _require_finite(report.empirical, lambda i: f"covariance_empirical.csv at (s, t) = "
                                                f"({pts[i // spec.q]:g}, {pts[i % spec.q]:g})")
    k = _unit(spec.innovations.sigma)   # read in sigma's unit, as the verdicts are
    norm = normality_diagnostics(np.ldexp(report.samples, -k) if k else report.samples,
                                 variances=np.ldexp(np.diag(report.finite_n_exact), -2 * k))
    for column in ("skewness", "excess_kurtosis", "ks_distance"):
        _require_finite(getattr(norm, column), lambda i: f"normality.csv {column} at "
                                                         f"t = {pts[i]:g}")

    grid = ["s\\t", *map(io.format_float, pts)]   # labelled on both axes by the points
    outputs = {name: io.write_table_csv(out / name, header, columns)
               for name, header, columns in (
        ("covariance_empirical.csv", grid, [pts, *report.empirical.T]),
        ("covariance_finite_exact.csv", grid, [pts, *report.finite_n_exact.T]),
        ("covariance_limit.csv", grid, [pts, *report.limit.T]),
        ("covariance_se.csv", grid, [pts, *report.se.T]),
        ("verdicts.csv", grid, [pts, *report.verdicts.astype(float).T]),
        ("gap_relative.csv", grid, [pts, *report.gap_rel.T]),
        ("normality.csv",
         ["t", "skewness", "excess_kurtosis", "ks_distance", "skew_ok", "kurt_ok"],
         [pts, norm.skewness, norm.excess_kurtosis, norm.ks_distance,
          norm.skew_ok, norm.kurt_ok]),
        ("exponent_fit.csv", ["t", "slope", "theoretical", "ln_corrected", "max_residual"],
         [pts, fit.slopes, fit.theoretical, fit.corrected, fit.max_residual]))}
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
    outputs["summary.json"] = io.write_json(out / "summary.json", summary)
    _manifest(out, "verify-clt", cfg, seed, outputs,
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
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tail-tol", type=float, default=None, dest="tail_tol",
                       help="override truncation budget")
        if name == "verify-clt":
            p.add_argument("--threads", type=int, default=1,
                           help="Monte Carlo shards, run on at most the core count")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback   # the error path only
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
