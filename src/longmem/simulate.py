"""Seeded generation of innovation fields, truncated paths, and partial sums.

Innovations are addressed by (seed, replication, time index) through a
counter-based generator, so any consumer — the direct path filter, the
coefficient-table partial sum, or a shard of the Monte Carlo replication
sampler — sees the identical draw for a given index regardless of
evaluation order.  This module is the one map from (seed, replication) to
a partial sum S_n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (InnovationModel, ProcessSpec, ValidationError, _factor_psd,
                    tail_variance_bound)
from .analytics import CoefficientTable, partial_sum_weights

# time indices are shifted by ORIGIN inside the counter so that past
# innovations (index >= 1 - M, M capped at 1e7) stay nonnegative
ORIGIN = 1 << 40

_U_HALF_ULP = 2.0 ** -54  # centers uniform draws away from 0
_WORD = (1 << 64) - 1
REPLICATION_BLOCK = 16  # Gaussian replications (n + 1 rows each) sampled together


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


def _standardized_draws(u: np.ndarray, law: str, pareto_alpha: float,
                        ndtri) -> np.ndarray:
    """Map uniforms to i.i.d. mean-zero unit-variance draws of the given law.

    Gaussian draws overwrite ``u`` and are returned in it; ``ndtri`` is
    ``scipy.special.ndtri``, which the caller imports.
    """
    if law == "gaussian":
        u += _U_HALF_ULP
        return ndtri(u, out=u)
    # symmetrized Pareto via inverse CDF: sign and magnitude from one uniform
    v = 2.0 * u - 1.0 + 2.0 ** -53
    mag = (1.0 - np.abs(v)) ** (-1.0 / pareto_alpha)
    scale = np.sqrt((pareto_alpha - 2.0) / pareto_alpha)
    return np.sign(v) * mag * scale


def _standard_draws(model: InnovationModel, seed: int, reps: range, start: int,
                    count: int, block: int):
    """Yield the standardized draws g_m, m = start .. start+count-1, of the
    replications in ``reps``, as (k, count, q) arrays of ``block``
    replications (fewer in the last).

    Entries are i.i.d. mean zero, unit variance, of the model's law; one
    Philox generator and one uniform buffer serve the whole call, reset to
    each replication's counter, so a replication's draws do not depend on
    the block it falls in.  A Gaussian block is that buffer, transformed in
    place: use it before asking for the next one.
    """
    from scipy.special import ndtri   # loaded on first draw: `import longmem` stays light

    if count < 1:
        raise ValueError("count must be >= 1")
    W = _words_per_index(model.q)
    gen = np.random.Generator(np.random.Philox(int(seed)))
    u = np.empty((min(block, len(reps)), count, W))
    for lo in range(0, len(reps), block):
        k = min(block, len(reps) - lo)
        for r in range(k):
            _seek(gen, seed, reps[lo + r], start, W)
            gen.random(out=u[r])
        yield _standardized_draws(u[:k, :, :model.q], model.law, model.pareto_alpha, ndtri)


def _factor_t(model: InnovationModel) -> np.ndarray:
    """``model.factor.T``, or ValidationError when sigma has no factor."""
    if model.factor is None:
        raise ValidationError("innovation covariance could not be factorized "
                              "even with jitter; cannot sample")
    return model.factor.T


def innovation_block(model: InnovationModel, seed: int, start: int, count: int,
                     rep: int = 0) -> np.ndarray:
    """Innovation vectors eps_m for m = start .. start+count-1, as (count, q).

    Deterministic in (seed, rep, m): overlapping blocks agree entry for
    entry, which is what makes the two partial-sum routes comparable.
    """
    factor_t = _factor_t(model)
    g, = _standard_draws(model, seed, range(rep, rep + 1), start, count, 1)
    return g[0] @ factor_t


def _past_factor(model: InnovationModel, table: CoefficientTable) -> np.ndarray:
    """L with L L^T = sigma o Z_past Z_past^T, the covariance of the past
    term sum_{m<=0} z_{n,m} eps_m of the truncated partial sum."""
    z_past = table.z[:, :table.window]
    return _factor_psd(model.sigma * (z_past @ z_past.T))


def _replication_sampler(spec: ProcessSpec, table: CoefficientTable, seed: int,
                         pathwise: bool = False):
    """``((rep_start, count) -> (count, q) S_n, rows)``: the partial sums of
    replications rep_start .. rep_start+count-1, and the innovation rows one
    replication draws.

    The pathwise route (``pathwise``, or any non-Gaussian law) draws the
    window's indices 1-M..n and contracts them with the whole table.  Under
    the Gaussian law the past term sum_{m<=0} z_{n,m} eps_m is exactly
    N(0, sigma o Z_past Z_past^T), so a replication draws indices 0..n only:
    rows 1..n times ``factor.T`` are eps_1..eps_n of ``innovation_block``
    and meet ``z[:, M:]``, and row 0 drives the past through
    ``_past_factor``.  Replications are drawn, transformed and contracted in
    blocks that hold no more rows than REPLICATION_BLOCK Gaussian
    replications, or than one replication; each replication's arithmetic is
    the same whatever its block.
    """
    model = spec.innovations
    n, M = table.n, table.window
    factor_t = _factor_t(model)
    if pathwise or model.law != "gaussian":
        start, z, past_factor = 1 - M, table.z, None
    else:
        start, z = 0, np.ascontiguousarray(table.z[:, M:])
        past_factor = _past_factor(model, table)
    rows = n + 1 - start
    block = max(1, REPLICATION_BLOCK * (n + 1) // rows)

    def sample(rep_start: int, count: int) -> np.ndarray:
        out = np.empty((count, model.q))
        draws = _standard_draws(model, seed, range(rep_start, rep_start + count),
                                start, rows, block)
        for lo, g in zip(range(0, count, block), draws):
            if past_factor is None:
                sums = np.einsum("im,rmi->ri", z, g @ factor_t)
            else:
                # a stack of matrix-vector products, as per replication: a
                # matrix-matrix product would sum the past term in another order
                past = (past_factor @ g[:, 0, :, None])[:, :, 0]
                sums = np.einsum("im,rmi->ri", z, g[:, 1:] @ factor_t) + past
            out[lo:lo + len(g)] = sums
        return out

    return sample, rows


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


def partial_sums_via_z(spec: ProcessSpec, n: int, seed: int, rep: int = 0) -> np.ndarray:
    """S_n via the independent-summands identity S_n(t) = sum_j z_{n,j}(t) eps_j(t).

    Uses the same truncation window and the same addressable innovations as
    ``generate_paths``, so the result matches the sum of the paths over k to
    floating-point reassociation error (<= 1e-12 relative).
    """
    if n < 2:
        raise ValueError("the independent-summands identity is stated for n >= 2")
    sample, _ = _replication_sampler(spec, partial_sum_weights(spec, n), seed,
                                     pathwise=True)
    return sample(rep, 1)[0]
