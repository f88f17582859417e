"""Domain types: index grid, memory exponent field, innovation law, process spec.

The index space is discretized to a finite grid with quadrature weights.
A process spec bundles the grid, the memory exponent field d(t), the
innovation covariance sigma(s, t), a relative tail-variance budget for
truncating the infinite moving-average filter, and a time horizon.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_TAIL_TOL = 1e-3
HARD_CAP = 10_000_000

# regime labels for the per-point memory exponent
REGIME_LONG = "long"          # 1/2 < d < 1
REGIME_BOUNDARY = "boundary"  # d = 1
REGIME_SHORT = "short"        # d > 1
REGIME_INVALID = "invalid"    # d <= 1/2 (series does not converge a.s.)

# PSD tolerance: smallest eigenvalue >= -PSD_RTOL * largest eigenvalue
PSD_RTOL = 1e-10
# factorization jitter cap: diagonal shift up to JITTER_RTOL * trace / q
JITTER_RTOL = 1e-12


class ValidationError(ValueError):
    """A process spec (or one of its parts) violates a standing assumption."""


class TailBudgetError(ValueError):
    """The requested truncation budget cannot be met under the hard cap."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpaceGrid:
    """Discretized index space: ordered points with positive quadrature weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.atleast_1d(self.points)))
        object.__setattr__(self, "weights", _readonly(np.atleast_1d(self.weights)))
        if self.points.ndim != 1 or self.weights.ndim != 1:
            raise ValidationError("grid points and weights must be one-dimensional")
        if len(self.points) != len(self.weights):
            raise ValidationError("grid points and weights must have equal length")
        if len(self.points) == 0:
            raise ValidationError("grid must contain at least one point")
        if not np.all(np.isfinite(self.points)) or not np.all(np.isfinite(self.weights)):
            raise ValidationError("grid points and weights must be finite")
        if np.any(np.diff(self.points) <= 0):
            raise ValidationError("grid points must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValidationError("grid weights must be strictly positive")

    @property
    def q(self) -> int:
        return len(self.points)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.weights))

    def quadrature(self, values) -> float:
        """Weighted sum approximating the integral of a function over the grid."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


@dataclass(frozen=True, eq=False)
class MemoryFunction:
    """Memory exponent field d(t), stored as per-grid-point values."""

    kind: str
    values: np.ndarray
    breakpoints: tuple = ()
    levels: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "step", "table"):
            raise ValidationError(f"unknown memory kind {self.kind!r}")
        object.__setattr__(self, "values", _readonly(np.atleast_1d(self.values)))
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("memory exponents must be finite")

    @classmethod
    def constant(cls, d: float, grid: SpaceGrid) -> "MemoryFunction":
        return cls("constant", np.full(grid.q, float(d)))

    @classmethod
    def step(cls, breakpoints, levels, grid: SpaceGrid) -> "MemoryFunction":
        """Piecewise-constant d(t): level i on [b_{i-1}, b_i), last level on [b_last, inf)."""
        breakpoints = [float(b) for b in breakpoints]
        levels = [float(v) for v in levels]
        if len(levels) != len(breakpoints) + 1:
            raise ValidationError("step memory needs len(levels) == len(breakpoints) + 1")
        if sorted(breakpoints) != breakpoints:
            raise ValidationError("step breakpoints must be sorted")
        idx = np.searchsorted(breakpoints, grid.points, side="right")
        return cls("step", np.asarray(levels, dtype=float)[idx],
                   breakpoints=tuple(breakpoints), levels=tuple(levels))

    @classmethod
    def table(cls, values, grid: SpaceGrid) -> "MemoryFunction":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if len(values) != grid.q:
            raise ValidationError("table memory needs one exponent per grid point")
        return cls("table", values)

    @property
    def d_min(self) -> float:
        return float(np.min(self.values))

    @functools.cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """``(exponents, index)``, sorted distinct exponents with ``values ==
        exponents[index]``: per-exponent work is done once per exponent."""
        exponents, index = np.unique(self.values, return_inverse=True)
        exponents.flags.writeable = index.flags.writeable = False
        return exponents, index


def _factor_psd(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular F with F F^T ~= sigma, adding diagonal jitter if needed."""
    q = sigma.shape[0]
    trace = float(np.trace(sigma))
    if trace == 0.0:
        return np.zeros_like(sigma)
    scale = trace / q
    for jitter in (0.0, 1e-16 * scale, 1e-14 * scale, JITTER_RTOL * scale):
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(q))
        except np.linalg.LinAlgError:
            continue
    raise ValidationError("innovation covariance could not be factorized even with jitter")


@dataclass(frozen=True, eq=False)
class InnovationModel:
    """Spatial covariance sigma(s, t) of the i.i.d.-in-time innovations plus sampling law.

    ``law`` selects the marginal sampling distribution: "gaussian" (default)
    or "pareto" (symmetrized, scaled to unit variance; heavy-tailed but
    square integrable).  Either way the sampled vectors are mean zero with
    covariance ``sigma`` (via ``factor``, always the jittered Cholesky
    factor of ``sigma``, or None when ``sigma`` cannot be factorized).
    """

    kind: str
    sigma: np.ndarray
    factor: np.ndarray = field(init=False, default=None)
    law: str = "gaussian"
    pareto_alpha: float = 4.5

    def __post_init__(self):
        if self.kind not in ("white", "wiener", "custom"):
            raise ValidationError(f"unknown innovation kind {self.kind!r}")
        if self.law not in ("gaussian", "pareto"):
            raise ValidationError(f"unknown innovation law {self.law!r}")
        if self.law == "pareto" and self.pareto_alpha <= 4.0:
            raise ValidationError("pareto_alpha must exceed 4 (finite fourth moment)")
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sigma.shape[0] != sigma.shape[1]:
            raise ValidationError("innovation covariance must be square")
        object.__setattr__(self, "sigma", _readonly(sigma))
        # indefinite matrices are left unfactorized so that validate()
        # can report them; sampling from such a model is fatal
        try:
            object.__setattr__(self, "factor", _readonly(_factor_psd(sigma)))
        except ValidationError:
            pass

    @property
    def q(self) -> int:
        return self.sigma.shape[0]

    @property
    def sigma2(self) -> np.ndarray:
        return np.diag(self.sigma)

    @classmethod
    def white(cls, sigma2, q: int | None = None, **kw) -> "InnovationModel":
        sigma2 = np.atleast_1d(np.asarray(sigma2, dtype=float))
        if sigma2.size == 1 and q is not None:
            sigma2 = np.full(q, sigma2[0])
        return cls("white", np.diag(sigma2), **kw)

    @classmethod
    def wiener(cls, points, **kw) -> "InnovationModel":
        """sigma(s, t) = min(s, t): innovations sampled from a Wiener bridge-free path."""
        points = np.asarray(points, dtype=float)
        return cls("wiener", np.minimum.outer(points, points), **kw)

    @classmethod
    def custom(cls, sigma, **kw) -> "InnovationModel":
        return cls("custom", sigma, **kw)


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Fully specified simulation input: grid + memory + innovations + budgets."""

    grid: SpaceGrid
    memory: MemoryFunction
    innovations: InnovationModel
    tail_tol: float = DEFAULT_TAIL_TOL
    horizon: int = 1

    def __post_init__(self):
        if not (0.0 < self.tail_tol <= 1.0):
            raise ValidationError("tail_tol must lie in (0, 1]")
        if self.horizon < 1:
            raise ValidationError("horizon must be at least 1")

    @property
    def q(self) -> int:
        return self.grid.q

    @functools.cached_property
    def window(self) -> int:
        """Truncation window M of the moving-average filter: the smallest M
        meeting the tail budget at the smallest exponent, computed once per spec."""
        return truncation_length(self.memory.d_min, self.tail_tol)

    @functools.cached_property
    def report(self) -> "ValidationReport":
        """The validation report, computed on first use and kept: the spec is immutable."""
        return _check(self)

    def require_valid(self) -> "ValidationReport":
        """The cached report; raises ``ValidationError`` listing every fatal violation."""
        if not self.report.ok:
            raise ValidationError("; ".join(self.report.fatal))
        return self.report

    def to_dict(self) -> dict:
        return {
            "grid": {"points": self.grid.points.tolist(),
                     "weights": self.grid.weights.tolist()},
            "memory": {"kind": self.memory.kind,
                       "values": self.memory.values.tolist(),
                       "breakpoints": list(self.memory.breakpoints),
                       "levels": list(self.memory.levels)},
            "innovations": {"kind": self.innovations.kind,
                            "sigma": self.innovations.sigma.tolist(),
                            "law": self.innovations.law,
                            "pareto_alpha": self.innovations.pareto_alpha},
            "tail_tol": self.tail_tol,
            "horizon": self.horizon,
        }

    @property
    def spec_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a spec against the standing assumptions."""

    regimes: tuple
    clt_part: str | None  # "i" (all long), "ii" (all boundary), or None
    fatal: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.fatal


def _classify_exponent(d: float) -> str:
    if d <= 0.5:
        return REGIME_INVALID
    if d < 1.0:
        return REGIME_LONG
    if d == 1.0:
        return REGIME_BOUNDARY
    return REGIME_SHORT


def validate(spec: ProcessSpec) -> ValidationReport:
    """Check every standing assumption; list each violation with its grid location.

    Pure: the same spec always yields an identical report.  The checks run
    once per spec; later calls return the report cached on the spec.
    """
    return spec.report


def _check(spec: ProcessSpec) -> ValidationReport:
    fatal = []
    q = spec.grid.q
    if len(spec.memory.values) != q:
        fatal.append(f"memory field has {len(spec.memory.values)} values for {q} grid points")
    if spec.innovations.q != q:
        fatal.append(f"innovation covariance is {spec.innovations.q}x{spec.innovations.q} "
                     f"for {q} grid points")

    d = spec.memory.values
    regimes = tuple(_classify_exponent(float(x)) for x in d[:q])
    for i, reg in enumerate(regimes):
        if reg == REGIME_INVALID:
            fatal.append(f"d(t)={float(d[i])!r} <= 1/2 at grid point "
                         f"t={spec.grid.points[i]:g} (index {i}): defining series "
                         f"does not converge")

    sigma = spec.innovations.sigma
    if sigma.shape[0] == q:
        if not np.allclose(sigma, sigma.T, rtol=1e-12, atol=1e-12 * max(1.0, abs(sigma).max())):
            fatal.append("innovation covariance is not symmetric")
        else:
            eig = np.linalg.eigvalsh(sigma)
            lo, hi = float(eig[0]), float(eig[-1])
            if lo < -PSD_RTOL * max(hi, 0.0):
                fatal.append(f"innovation covariance is not positive semidefinite "
                             f"(min eigenvalue {lo:.3e})")
            s2 = spec.innovations.sigma2
            bound = np.sqrt(np.outer(s2, s2))
            if np.any(np.abs(sigma) > bound * (1 + 1e-9) + 1e-12):
                fatal.append("innovation covariance violates |sigma(s,t)| <= "
                             "sqrt(sigma2(s) sigma2(t))")
            if spec.innovations.kind == "white" and np.any(sigma - np.diag(np.diag(sigma)) != 0):
                fatal.append("white innovations must have a diagonal covariance")
            if spec.innovations.kind == "wiener":
                expected = np.minimum.outer(spec.grid.points, spec.grid.points)
                if not np.allclose(sigma, expected, rtol=1e-12, atol=1e-12):
                    fatal.append("wiener innovations must have sigma(s,t) = min(s,t) "
                                 "at the grid points")

    clt_part = None
    if not fatal:
        if all(r == REGIME_LONG for r in regimes):
            clt_part = "i"
        elif all(r == REGIME_BOUNDARY for r in regimes):
            clt_part = "ii"
    return ValidationReport(regimes=regimes, clt_part=clt_part, fatal=tuple(fatal))


def tail_variance_bound(d: float, M: int) -> float:
    """Integral-comparison bound: sum_{j>M} (j+1)^{-2d} <= (M+1)^{1-2d} / (2d-1)."""
    return (M + 1.0) ** (1.0 - 2.0 * d) / (2.0 * d - 1.0)


def truncation_length(d: float, tail_tol: float) -> int:
    """Smallest M whose certified tail-variance bound meets the relative budget.

    The budget is ``tail_tol`` times the total coefficient variance
    zeta(2d); the tail is bounded by integral comparison.  Deterministic
    in (d, tail_tol); raises ``TailBudgetError`` when no M under
    ``HARD_CAP`` satisfies the budget (d near 1/2 with a tight tolerance).
    """
    if d <= 0.5:
        raise ValidationError(f"d={float(d)!r} <= 1/2: truncation undefined (series diverges)")
    if not (0.0 < tail_tol <= 1.0):
        raise ValidationError("tail_tol must lie in (0, 1]")
    from scipy.special import zeta   # loaded on first use: `import longmem` stays light

    budget = tail_tol * float(zeta(2.0 * d))
    if tail_variance_bound(d, 0) <= budget:
        return 0
    # closed-form start, taken in logs (the power overflows as d -> 1/2) and
    # capped just past HARD_CAP; the loops fix it up to the exact smallest M
    log_start = (math.log(budget) + math.log(2.0 * d - 1.0)) / (1.0 - 2.0 * d)
    M = max(int(math.ceil(math.exp(min(log_start, math.log(HARD_CAP + 2.0))) - 1.0)), 1)
    while M > 1 and tail_variance_bound(d, M - 1) <= budget:
        M -= 1
    while tail_variance_bound(d, M) > budget and M <= HARD_CAP:
        M += 1
    if M > HARD_CAP:
        raise TailBudgetError(
            f"tail budget unreachable: d={float(d)!r}, tail_tol={tail_tol:g} needs "
            f"M>{HARD_CAP}; increase tail_tol")
    return M


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _grid_from_dict(cfg: dict) -> SpaceGrid:
    if "linspace" in cfg:
        a, b, q = cfg["linspace"]
        points = np.linspace(float(a), float(b), int(q))
    else:
        points = np.asarray(cfg["points"], dtype=float)
    if "weights" in cfg and cfg["weights"] is not None:
        weights = np.asarray(cfg["weights"], dtype=float)
    else:
        # default: uniform probability weights (the measure is a config choice)
        weights = np.full(len(points), 1.0 / len(points))
    return SpaceGrid(points, weights)


def _memory_from_dict(cfg: dict, grid: SpaceGrid) -> MemoryFunction:
    kind = cfg["kind"]
    if kind == "constant":
        values = np.unique(np.asarray(cfg["values"], dtype=float))
        if values.size != 1:
            raise ValidationError(f"constant memory needs one exponent; got "
                                  f"{values.size} distinct values")
        return MemoryFunction.constant(values[0], grid)
    if kind == "step":
        return MemoryFunction.step(cfg["breakpoints"], cfg["levels"], grid)
    if kind == "table":
        return MemoryFunction.table(cfg["values"], grid)
    raise ValidationError(f"unknown memory kind {kind!r}")


def _finite_array(cfg: dict, key: str) -> np.ndarray:
    """``cfg[key]`` as a float array; null, non-numeric or non-finite
    entries raise ``ValidationError`` naming ``innovations.<key>``."""
    try:
        values = np.asarray(cfg[key], dtype=float)
        finite = bool(np.all(np.isfinite(values)))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ValidationError(f"config: invalid 'innovations.{key}': {cfg[key]!r}")
    return values


def _innovations_from_dict(cfg: dict, grid: SpaceGrid, base_dir: Path) -> InnovationModel:
    kind = cfg["kind"]
    kw = {}
    if "law" in cfg:
        kw["law"] = cfg["law"]
    if "pareto_alpha" in cfg:
        kw["pareto_alpha"] = float(cfg["pareto_alpha"])
    if kind == "white":
        if "sigma2" in cfg:
            sigma2 = _finite_array(cfg, "sigma2")
        elif "sigma" in cfg:
            sigma = np.atleast_2d(_finite_array(cfg, "sigma"))
            sigma2 = np.diagonal(sigma)
            if sigma.shape != (sigma2.size,) * 2 or np.any(sigma != np.diag(sigma2)):
                raise ValidationError("white innovations need a square diagonal sigma")
        else:
            sigma2 = 1.0
        return InnovationModel.white(sigma2, q=grid.q, **kw)
    if kind == "wiener":
        return InnovationModel.wiener(grid.points, **kw)
    if kind == "custom":
        if "sigma_file" in cfg:
            sigma = np.loadtxt(base_dir / cfg["sigma_file"], delimiter=",")
        else:
            sigma = _finite_array(cfg, "sigma")
        return InnovationModel.custom(sigma, **kw)
    raise ValidationError(f"unknown innovation kind {kind!r}")


def _section(cfg: dict, name: str, build, *args):
    """``build(cfg[name], *args)``; a missing key, a section that is not a
    JSON object or a value of the wrong type in it raises
    ``ValidationError`` naming the section."""
    if name not in cfg:
        raise ValidationError(f"config: missing key {name!r}")
    if not isinstance(cfg[name], dict):
        raise ValidationError(f"config: {name!r} must be a JSON object")
    try:
        return build(cfg[name], *args)
    except KeyError as exc:
        raise ValidationError(f"{name}: missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _config_value(cfg: dict, name: str, default, cast):
    """``cast(cfg.get(name, default))``; a value ``cast`` cannot convert
    raises ``ValidationError`` naming the key."""
    value = cfg.get(name, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"config: invalid {name!r}: {value!r}") from None


def _integer(value) -> int:
    """``int(value)``, refusing a non-integral float instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def spec_from_dict(cfg: dict, base_dir: Path | str = ".") -> ProcessSpec:
    """Build a ProcessSpec from a parsed JSON config dictionary."""
    grid = _section(cfg, "grid", _grid_from_dict)
    memory = _section(cfg, "memory", _memory_from_dict, grid)
    innovations = _section(cfg, "innovations", _innovations_from_dict, grid, Path(base_dir))
    return ProcessSpec(
        grid=grid,
        memory=memory,
        innovations=innovations,
        tail_tol=_config_value(cfg, "tail_tol", DEFAULT_TAIL_TOL, float),
        horizon=_config_value(cfg, "horizon", 1, _integer),
    )


def load_spec(path: Path | str) -> ProcessSpec:
    """Load a ProcessSpec from a JSON config file."""
    path = Path(path)
    with path.open() as fh:
        cfg = json.load(fh)
    return spec_from_dict(cfg, base_dir=path.parent)
