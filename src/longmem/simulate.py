"""Seeded generation of innovation fields, truncated paths, and partial sums.

Innovations are addressed by (seed, replication, time index) through a
counter-based generator, so any consumer — the direct path filter, the
coefficient-table partial sum, or a sharded Monte Carlo worker — sees the
identical draw for a given index regardless of evaluation order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import InnovationModel, ProcessSpec, ValidationError, tail_variance_bound
from .analytics import CoefficientTable, partial_sum_weights

# time indices are shifted by ORIGIN inside the counter so that past
# innovations (index >= 1 - M, M capped at 1e7) stay nonnegative
ORIGIN = 1 << 40

_U_HALF_ULP = 2.0 ** -54  # centers uniform draws away from 0
_WORD = (1 << 64) - 1


def _words_per_index(q: int) -> int:
    # one 64-bit word per double, rounded up to whole 4-word counter blocks
    return 4 * ((q + 3) // 4)


@functools.lru_cache(maxsize=64)
def _philox_key(seed: int) -> tuple:
    """Philox key words of a master seed, hashed once: a Monte Carlo run
    seeks one generator per replication under the same seed."""
    return tuple(int(w) for w in np.random.SeedSequence(seed).generate_state(2, np.uint64))


def _seek(gen: np.random.Generator, seed: int, rep: int, start: int, W: int) -> None:
    """Point ``gen`` (Philox) at time index ``start`` of replication ``rep``.

    The one map from (seed, rep, index) to generator state: the key hashes
    the seed, the counter's high words hold the replication, and each time
    index owns W/4 consecutive 4-word counter blocks.  Philox is counter
    based, so resetting its state is the same stream as a new generator.
    """
    counter = (int(rep) << 128) + (int(start) + ORIGIN) * (W // 4)
    if not 0 <= counter < 1 << 256:
        raise ValueError(f"replication {rep}, index {start}: counter must be "
                         f"positive and less than 2**256")
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(counter >> s) & _WORD for s in (0, 64, 128, 192)],
                  "key": _philox_key(int(seed))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _uniform_block(seed: int, rep: int, start: int, count: int, q: int) -> np.ndarray:
    """(count, q) uniforms on [0, 1), one fixed counter block per time index."""
    W = _words_per_index(q)
    gen = np.random.Generator(np.random.Philox(int(seed)))
    _seek(gen, seed, rep, start, W)
    return gen.random((count, W))[:, :q]


def _standardized_draws(u: np.ndarray, law: str, pareto_alpha: float) -> np.ndarray:
    """Map uniforms to i.i.d. mean-zero unit-variance draws of the given law."""
    if law == "gaussian":
        return ndtri(u + _U_HALF_ULP)
    # symmetrized Pareto via inverse CDF: sign and magnitude from one uniform
    v = 2.0 * u - 1.0 + 2.0 ** -53
    mag = (1.0 - np.abs(v)) ** (-1.0 / pareto_alpha)
    scale = np.sqrt((pareto_alpha - 2.0) / pareto_alpha)
    return np.sign(v) * mag * scale


def _standard_block(model: InnovationModel, seed: int, start: int, count: int,
                    rep: int = 0) -> np.ndarray:
    """Standardized draws g_m for m = start .. start+count-1, as (count, q).

    Entries are i.i.d. mean zero, unit variance, of the model's law;
    ``innovation_block`` is this block times ``model.factor.T``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if model.factor is None:
        raise ValidationError("innovation covariance could not be factorized "
                              "even with jitter; cannot sample")
    u = _uniform_block(seed, rep, start, count, model.q)
    return _standardized_draws(u, model.law, model.pareto_alpha)


def innovation_block(model: InnovationModel, seed: int, start: int, count: int,
                     rep: int = 0) -> np.ndarray:
    """Innovation vectors eps_m for m = start .. start+count-1, as (count, q).

    Deterministic in (seed, rep, m): overlapping blocks agree entry for
    entry, which is what makes the two partial-sum routes comparable.
    """
    return _standard_block(model, seed, start, count, rep) @ model.factor.T


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated paths X_k(t_i) for k = 1..n on the spec's grid."""

    spec_hash: str
    n: int
    values: np.ndarray          # (n, q)
    window: int                 # truncation length M actually used
    seed: int
    rep: int
    truncation_tail_var: np.ndarray  # per-point bound on the variance dropped per X_k


def generate_paths(spec: ProcessSpec, n: int, seed: int, rep: int = 0) -> PathEnsemble:
    """Filter a rolling innovation window through the truncated power-law MA.

    X_k(t_i) = sum_{j=0}^{M} (j+1)^{-d(t_i)} eps_{k-j}(t_i), with M chosen
    from the spec's tail budget; consecutive k share innovations.
    """
    spec.require_valid()
    if n < 1:
        raise ValueError("n must be >= 1")
    M = spec.window
    eps = innovation_block(spec.innovations, seed, start=1 - M, count=n + M, rep=rep)
    u, idx = spec.memory.distinct
    j = np.arange(M + 1, dtype=float)
    coefs = [((j + 1.0) ** (-float(d)))[::-1] for d in u]
    values = np.empty((n, spec.q))
    for i in range(spec.q):
        windows = np.lib.stride_tricks.sliding_window_view(eps[:, i], M + 1)
        values[:, i] = windows[:n] @ coefs[idx[i]]
    tail = np.array([tail_variance_bound(float(d), M) for d in u])
    return PathEnsemble(spec_hash=spec.spec_hash, n=int(n), values=values,
                        window=M, seed=int(seed), rep=int(rep),
                        truncation_tail_var=spec.innovations.sigma2 * tail[idx])


def partial_sums_direct(ensemble: PathEnsemble) -> np.ndarray:
    """S_n(t_i) = sum_{k=1}^n X_k(t_i), summed over the stored paths."""
    return ensemble.values.sum(axis=0)


def partial_sums_via_z(spec: ProcessSpec, n: int, seed: int, rep: int = 0,
                       table: CoefficientTable | None = None) -> np.ndarray:
    """S_n via the independent-summands identity S_n(t) = sum_j z_{n,j}(t) eps_j(t).

    Uses the same truncation window and the same addressable innovations as
    ``generate_paths``, so the result matches ``partial_sums_direct`` to
    floating-point reassociation error (<= 1e-12 relative).
    """
    if n < 2:
        raise ValueError("the independent-summands identity is stated for n >= 2")
    if table is None:
        table = partial_sum_weights(spec, n)
    elif table.n != n:
        raise ValueError(f"coefficient table built for n={table.n}, not n={n}")
    M = table.window
    eps = innovation_block(spec.innovations, seed, start=1 - M, count=n + M, rep=rep)
    if eps.shape[0] != table.z.shape[1]:
        raise ValueError("innovation window does not match the coefficient table; "
                         "refusing to compare different truncations")
    return np.einsum("im,mi->i", table.z, eps)
