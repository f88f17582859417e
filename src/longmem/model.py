"""Domain types: index grid, memory exponent field, innovation law, process spec.

The index space is discretized to a finite grid with quadrature weights.
A process spec bundles the grid, the memory exponent field d(t), the
innovation covariance sigma(s, t), a relative tail-variance budget for
truncating the infinite moving-average filter, and a time horizon.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .io import sha256

DEFAULT_TAIL_TOL = 1e-3
HARD_CAP = 10_000_000

# PSD tolerance: smallest eigenvalue >= -PSD_RTOL * largest eigenvalue
PSD_RTOL = 1e-10
# factorization jitter cap: diagonal shift up to JITTER_RTOL * trace / q
JITTER_RTOL = 1e-12


class ValidationError(ValueError):
    """Refused input: a config, spec or argument outside its assumptions or range."""


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

    def quadrature(self, values) -> float:
        """Weighted sum approximating the integral of a function over the grid."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


@dataclass(frozen=True, eq=False)
class MemoryFunction:
    """Memory exponent field d(t), stored as per-grid-point values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.atleast_1d(self.values)))
        if self.values.ndim != 1:
            raise ValidationError("memory exponents must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("memory exponents and breakpoints must be finite")

    @classmethod
    def constant(cls, d: float, grid: SpaceGrid) -> "MemoryFunction":
        return cls(np.full(grid.q, float(d)))

    @classmethod
    def step(cls, breakpoints, levels, grid: SpaceGrid) -> "MemoryFunction":
        """Piecewise-constant d(t): level i on [b_{i-1}, b_i), last level on [b_last, inf)."""
        breakpoints = [float(b) for b in breakpoints]
        levels = [float(v) for v in levels]
        if not np.all(np.isfinite(breakpoints + levels)):
            raise ValidationError("memory exponents and breakpoints must be finite")
        if len(levels) != len(breakpoints) + 1:
            raise ValidationError("step memory needs len(levels) == len(breakpoints) + 1")
        if sorted(breakpoints) != breakpoints:
            raise ValidationError("step breakpoints must be sorted")
        idx = np.searchsorted(breakpoints, grid.points, side="right")
        return cls(np.asarray(levels, dtype=float)[idx])

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
    covariance ``sigma``, through ``factor``.
    """

    sigma: np.ndarray
    law: str = "gaussian"
    pareto_alpha: float = 4.5

    def __post_init__(self):
        if self.law not in ("gaussian", "pareto"):
            raise ValidationError(f"unknown innovation law {self.law!r}")
        if not math.isfinite(self.pareto_alpha):
            raise ValidationError(f"pareto_alpha must be finite; got {self.pareto_alpha!r}")
        if self.law == "pareto" and self.pareto_alpha <= 4.0:
            raise ValidationError("pareto_alpha must exceed 4 (finite fourth moment)")
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValidationError(f"innovation covariance must be a square matrix; "
                                  f"got shape {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise ValidationError("innovation covariance must be finite")
        # a subnormal entry has lost significant bits before any arithmetic
        subnormal = (sigma != 0.0) & (np.abs(sigma) < np.finfo(float).tiny)
        if np.any(subnormal):
            i, j = np.argwhere(subnormal)[0]
            raise ValidationError(f"innovation covariance entry ({i}, {j}) is "
                                  f"{float(sigma[i, j])!r}, subnormal: a nonzero entry "
                                  f"must have |sigma| >= {float(np.finfo(float).tiny)!r}")
        object.__setattr__(self, "sigma", _readonly(sigma))

    @functools.cached_property
    def factor(self) -> np.ndarray:
        """The jittered Cholesky factor of ``sigma``, read-only, computed on
        first use (only sampling needs it); ``ValidationError`` when ``sigma``
        has none."""
        return _readonly(_factor_psd(self.sigma))

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
        return cls(np.diag(sigma2), **kw)

    @classmethod
    def wiener(cls, points, **kw) -> "InnovationModel":
        """sigma(s, t) = min(s, t): innovations sampled from a Wiener bridge-free path."""
        points = np.asarray(points, dtype=float)
        return cls(np.minimum.outer(points, points), **kw)


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Fully specified simulation input: grid + memory + innovations + budgets.

    Valid by construction: building a spec (directly, by ``spec_from_dict``
    or by ``dataclasses.replace``) checks every standing assumption once and
    raises ``ValidationError`` listing each violation; ``report`` keeps the
    regime report of the checks.
    """

    grid: SpaceGrid
    memory: MemoryFunction
    innovations: InnovationModel
    tail_tol: float = DEFAULT_TAIL_TOL
    horizon: int = 1
    report: "ValidationReport" = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.tail_tol <= 1.0):
            raise ValidationError("tail_tol must lie in (0, 1]")
        if self.horizon < 1:
            raise ValidationError("horizon must be at least 1")
        object.__setattr__(self, "report", _check(self))

    @property
    def q(self) -> int:
        return self.grid.q

    @functools.cached_property
    def window(self) -> int:
        """Truncation window M of the moving-average filter: the smallest M
        meeting the tail budget at the smallest exponent, computed once per spec."""
        return truncation_length(self.memory.d_min, self.tail_tol)

    @property
    def spec_hash(self) -> str:
        """Content identity of the process: its scalars and the bytes of its
        arrays (q fixes their lengths), whatever config spelling built them."""
        model = self.innovations
        h = sha256(repr((self.q, model.law, float(model.pareto_alpha),
                         float(self.tail_tol), int(self.horizon))).encode())
        for a in (self.grid.points, self.grid.weights, self.memory.values, model.sigma):
            h.update(a.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class ValidationReport:
    """What checking a spec found besides its validity: the CLT regime."""

    regime: str | None  # "long" (1/2 < d < 1) or "boundary" (d = 1) everywhere, else None
    ok = True           # a spec with a violation is never built; bench/run.py reads it


def validate(spec: ProcessSpec) -> ValidationReport:
    """The spec's regime report.  The checks ran once, when the spec was
    built, and a spec with a violation was never built, so the report is ok."""
    return spec.report


def _check(spec: ProcessSpec) -> ValidationReport:
    """Check every standing assumption, raising ``ValidationError`` that lists
    each violation with its grid location; else the spec's regime report."""
    fatal = []
    q = spec.grid.q
    if len(spec.memory.values) != q:
        fatal.append(f"memory field has {len(spec.memory.values)} values for {q} grid points")
    if spec.innovations.q != q:
        fatal.append(f"innovation covariance is {spec.innovations.q}x{spec.innovations.q} "
                     f"for {q} grid points")

    d = spec.memory.values
    for i in np.flatnonzero(d[:q] <= 0.5):
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
            sd = np.sqrt(spec.innovations.sigma2)   # no square of sigma: it may overflow
            bound = np.outer(sd, sd)
            if np.any(np.abs(sigma) > bound * (1 + 1e-9) + 1e-12):
                fatal.append("innovation covariance violates |sigma(s,t)| <= "
                             "sqrt(sigma2(s) sigma2(t))")

    if fatal:
        raise ValidationError("; ".join(fatal))
    # the CLT is stated where every point is long, or every point is boundary
    regime = "long" if np.all(d < 1.0) else "boundary" if np.all(d == 1.0) else None
    return ValidationReport(regime)


# B_2j / (2j)!, j = 1..8: the Euler-Maclaurin corrections of _zeta
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)
_ZETA_HEAD = 12


def _zeta(s: float) -> float:
    """Riemann zeta(s) for real s != 1, continued to s < 1.

    Euler-Maclaurin at N = 12: sum_{k<N} k^-s + N^{1-s}/(s-1) + N^-s/2 +
    sum_j B_2j/(2j)! s(s+1)...(s+2j-2) N^{1-s-2j}, the smallest terms first.
    On (1, 8] it is within 2 ulps of the exact value, and the first omitted
    term is below 2e-19.  From s = 54 on zeta(s) - 1 < 2^-53, so it rounds
    to 1.0, returned before the rising factorial overflows (NaN past 1e20).
    """
    if s >= 54.0:
        return 1.0
    power = _ZETA_HEAD ** -s
    rising, scale, terms = s, power / _ZETA_HEAD, []
    for j, c in enumerate(_EULER_MACLAURIN):
        terms.append(c * rising * scale)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        scale /= _ZETA_HEAD ** 2
    # a plain loop: sum() compensates its additions from Python 3.12 on
    total = 0.0
    for term in [*reversed(terms), power / 2, *(k ** -s for k in range(_ZETA_HEAD - 1, 0, -1))]:
        total += term
    return total + _ZETA_HEAD ** (1.0 - s) / (s - 1.0)


def tail_variance_bound(d: float, M: int) -> float:
    """Integral-comparison bound: sum_{j>M} (j+1)^{-2d} <= (M+1)^{1-2d} / (2d-1)."""
    return (M + 1.0) ** (1.0 - 2.0 * d) / (2.0 * d - 1.0)


def truncation_length(d: float, tail_tol: float) -> int:
    """Smallest M whose certified tail-variance bound meets the relative budget.

    The budget is ``tail_tol`` times the total coefficient variance
    zeta(2d); the tail is bounded by integral comparison.  Deterministic
    in (d, tail_tol); raises ``ValidationError`` when no M under
    ``HARD_CAP`` satisfies the budget (d near 1/2 with a tight tolerance).
    """
    if d <= 0.5:
        raise ValidationError(f"d={float(d)!r} <= 1/2: truncation undefined (series diverges)")
    if not (0.0 < tail_tol <= 1.0):
        raise ValidationError("tail_tol must lie in (0, 1]")
    budget = tail_tol * _zeta(2.0 * d)
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
        raise ValidationError(
            f"tail budget unreachable: d={float(d)!r}, tail_tol={tail_tol:g} needs "
            f"M>{HARD_CAP}; increase tail_tol")
    return M


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """A JSON integer, refusing a bool, a string and a non-integral float
    instead of reading them as 1 or 0, parsing or truncating them."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _integers(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return [_integer(v) for v in value]


def _real(value) -> float:
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _holds(value, types) -> bool:
    return isinstance(value, types) or isinstance(value, list) and any(
        _holds(v, types) for v in value)


def _reals(value) -> np.ndarray:
    """A number or a nested list of numbers as a float array, refusing null,
    strings and bools, which numpy would read as NaN, parse or read as 1 or 0."""
    if _holds(value, (bool, str, type(None))):
        raise TypeError(f"{value!r} is not an array of numbers")
    return np.asarray(value, dtype=float)


def _linspace(value) -> np.ndarray:
    a, b, q = value
    return np.linspace(_real(a), _real(b), _integer(q))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


# every key a config may hold, with its caster: per section and kind, and at
# the top level the sections (read by kind), the spec's scalars and the run
# keys that any command reads (the bundled configs carry verify-clt's, and
# every command loads them)
_CONFIG_KEYS = {
    "": {"grid": dict, "memory": dict, "innovations": dict, "tail_tol": _real,
         "horizon": _integer, "seed": _integer, "n": _integer, "N": _integer,
         "n_list": _integers, "z_star": _real, "lags": _integers},
    "grid": {"linspace": _linspace, "points": _reals, "weights": _reals},
    "memory.constant": {"kind": _text, "values": _reals},
    "memory.step": {"kind": _text, "breakpoints": _reals, "levels": _reals},
    "memory.table": {"kind": _text, "values": _reals},
    "innovations.white": {"kind": _text, "law": _text, "pareto_alpha": _real,
                          "sigma2": _reals, "sigma": _reals},
    "innovations.wiener": {"kind": _text, "law": _text, "pareto_alpha": _real},
    "innovations.custom": {"kind": _text, "law": _text, "pareto_alpha": _real,
                           "sigma_file": _text, "sigma": _reals},
}


def _cast(cast, value, path: str):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"config: invalid '{path}': {value!r}") from None


def _read(cfg: dict, table: dict, prefix: str = "") -> dict:
    """``cfg`` with every value cast by the caster ``table`` gives its key.
    A key that ``table`` does not list is refused, naming its path and the
    nearest key that it does (no loader reads it, so a misspelling would run
    on the default); so is a value its caster refuses.  A section (``dict``)
    is left to ``_section``, which reads it by the table of its kind."""
    for key in map(str, cfg):
        if key not in table:
            import difflib   # the error path only: 2.4 ms of import per process
            near = difflib.get_close_matches(key, table, n=1)
            hint = (f"did you mean '{prefix}{near[0]}'?" if near
                    else "known keys: " + ", ".join(table))
            raise ValidationError(f"config: unknown key '{prefix}{key}'; {hint}")
    return {key: value if table[key] is dict else _cast(table[key], value, prefix + key)
            for key, value in cfg.items()}


def _grid_from_dict(cfg: dict) -> SpaceGrid:
    if "linspace" in cfg and "points" in cfg:
        raise ValidationError("grid takes 'linspace' or 'points', not both")
    points = cfg["linspace"] if "linspace" in cfg else cfg["points"]
    if "weights" in cfg:
        return SpaceGrid(points, cfg["weights"])
    # default: uniform probability weights (the measure is a config choice);
    # an empty grid gets no weights, and SpaceGrid refuses it
    return SpaceGrid(points, np.full(len(points), 1.0 / max(len(points), 1)))


def _memory_from_dict(cfg: dict, grid: SpaceGrid) -> MemoryFunction:
    if cfg["kind"] == "constant":
        # with no return_* flag np.unique would load numpy.ma to ask whether
        # the array is masked (numpy 2.4); asking for the counts skips that
        values = np.unique(cfg["values"], return_counts=True)[0]
        if values.size != 1:
            raise ValidationError(f"constant memory needs one exponent; got "
                                  f"{values.size} distinct values")
        return MemoryFunction.constant(values[0], grid)
    if cfg["kind"] == "step":
        return MemoryFunction.step(cfg["breakpoints"], cfg["levels"], grid)
    return MemoryFunction(cfg["values"])   # "table"


def _innovations_from_dict(cfg: dict, grid: SpaceGrid, base_dir: Path) -> InnovationModel:
    kw = {key: cfg[key] for key in ("law", "pareto_alpha") if key in cfg}
    if cfg["kind"] == "white":
        if "sigma2" in cfg and "sigma" in cfg:
            raise ValidationError("white innovations take 'sigma2' or 'sigma', not both")
        sigma2 = cfg.get("sigma2", 1.0)
        if "sigma" in cfg:
            sigma = np.atleast_2d(cfg["sigma"])
            sigma2 = np.diagonal(sigma)
            if not np.all(np.isfinite(sigma)):
                raise ValidationError("innovation covariance must be finite")
            if sigma.shape != (sigma2.size,) * 2 or np.any(sigma != np.diag(sigma2)):
                raise ValidationError("white innovations need a square diagonal sigma")
        return InnovationModel.white(sigma2, q=grid.q, **kw)
    if cfg["kind"] == "wiener":
        return InnovationModel.wiener(grid.points, **kw)
    if "sigma_file" in cfg and "sigma" in cfg:   # "custom"
        raise ValidationError("custom innovations take 'sigma_file' or 'sigma', not both")
    if "sigma_file" in cfg:
        return InnovationModel(np.loadtxt(base_dir / cfg["sigma_file"], delimiter=","), **kw)
    return InnovationModel(cfg["sigma"], **kw)


def _section(cfg: dict, name: str, build, *args):
    """``build`` of section ``name`` of ``cfg``, read by the table of its
    kind; a missing key, an unknown kind, a section that is not a JSON
    object or one that does not build raises ``ValidationError`` naming the
    section."""
    if name not in cfg:
        raise ValidationError(f"config: missing key {name!r}")
    section = cfg[name]
    if not isinstance(section, dict):
        raise ValidationError(f"config: {name!r} must be a JSON object")
    try:
        table = name if name in _CONFIG_KEYS else f"{name}.{section['kind']}"
        if table not in _CONFIG_KEYS:
            raise ValidationError(f"config: invalid '{name}.kind': {section['kind']!r}")
        return build(_read(section, _CONFIG_KEYS[table], f"{name}."), *args)
    except KeyError as exc:
        raise ValidationError(f"{name}: missing key {exc.args[0]!r}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _read_config(cfg: dict, base_dir: Path | str = ".",
                 tail_tol: float | None = None) -> tuple[dict, ProcessSpec, dict]:
    """A parsed JSON config as resolved, with ``tail_tol`` in place of its
    own when given; the spec it describes; and its top level with every
    value read by ``_CONFIG_KEYS``: the run keys, for the commands.  A top
    level that is not a JSON object is refused before anything reads it."""
    if not isinstance(cfg, dict):
        raise ValidationError("config: the top level must be a JSON object")
    if tail_tol is not None:
        cfg = dict(cfg, tail_tol=tail_tol)
    run = _read(cfg, _CONFIG_KEYS[""])
    grid = _section(run, "grid", _grid_from_dict)
    memory = _section(run, "memory", _memory_from_dict, grid)
    innovations = _section(run, "innovations", _innovations_from_dict, grid, Path(base_dir))
    return cfg, ProcessSpec(grid=grid, memory=memory, innovations=innovations,
                            tail_tol=run.get("tail_tol", DEFAULT_TAIL_TOL),
                            horizon=run.get("horizon", 1)), run


def spec_from_dict(cfg: dict, base_dir: Path | str = ".") -> ProcessSpec:
    """Build a ProcessSpec from a parsed JSON config dictionary.  Every key,
    run keys included, is read by its caster in ``_CONFIG_KEYS``, and a key
    that it does not list is refused."""
    return _read_config(cfg, base_dir)[1]


def _load_json(path: Path):
    """The parsed config file ``path``, refusing text that is not UTF-8 JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:   # UnicodeDecodeError or json.JSONDecodeError
        raise ValidationError(f"config {str(path)!r}: {exc}") from None


def load_spec(path: Path | str) -> ProcessSpec:
    """Load a ProcessSpec from a JSON config file."""
    path = Path(path)
    return spec_from_dict(_load_json(path), base_dir=path.parent)
