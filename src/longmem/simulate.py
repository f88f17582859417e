"""Seeded generation of innovation fields, truncated paths, and partial sums.

Innovations are addressed by (seed, replication, time index): word w of
index m of replication rep is word rep 2^64 + (m + ORIGIN) W + w of the
sequence of ``PCG64DXSM(seed)``, reached in O(1) calls by ``advance``.  So
any consumer — the direct path filter, the coefficient-table partial sum,
or a shard of the Monte Carlo replication sampler — sees the identical draw
for a given index regardless of evaluation order.  This module is the one
map from (seed, replication) to a partial sum S_n.
"""

from __future__ import annotations

import functools
import importlib
import os
import random
import sys
import threading
import types

import numpy as np

from .model import (InnovationModel, ProcessSpec, ValidationError, _factor_psd,
                    tail_variance_bound)
from .analytics import partial_sum_weights

# time indices are shifted by ORIGIN inside a replication's 2^64-word region
# so that past innovations (index >= 1 - M, M capped at 1e7) sit at
# nonnegative offsets
ORIGIN = 1 << 40

REPLICATION_BLOCK = 16  # Gaussian replications (n + 1 rows each) sampled together
CHUNK_WORDS = 1 << 15   # most uniforms transformed per pass of _standardized_draws


def _words_per_index(q: int) -> int:
    # one 64-bit word per double, rounded up to an even count: Box-Muller
    # maps the words of an index in pairs
    return q + (q & 1)


_RANDOM_IMPORT = threading.Lock()


@functools.cache
def _numpy_random():
    """``numpy.random``, the one route by which this module reaches it.

    numpy's ``bit_generator`` imports ``randbits`` from ``secrets`` for
    seedless entropy, and ``secrets`` loads ``hmac``, ``hashlib`` and
    OpenSSL's ``_hashlib``, about 3.4 MB of resident memory; every generator
    here is seeded.  So unless ``secrets`` or ``numpy.random`` is loaded
    already, a stand-in ``secrets`` holding what ``secrets.randbits`` is,
    ``random.SystemRandom().getrandbits``, serves the one import and is then
    removed: a later ``import secrets`` loads the standard module.
    """
    with _RANDOM_IMPORT:
        if "secrets" in sys.modules or "numpy.random" in sys.modules:
            return importlib.import_module("numpy.random")
        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
        try:
            return importlib.import_module("numpy.random")
        finally:
            del sys.modules["secrets"]


def _seek(bit_gen, at: int, rep: int, start: int, count: int, W: int) -> int:
    """Move ``bit_gen``, a PCG64DXSM at word ``at`` of its seed's sequence, to
    word 0 of time index ``start`` of replication ``rep``, and return the word
    it sits at once ``count`` indices of W words are drawn from there.

    The one map from (seed, rep, index) to generator state: word w of index
    m of replication rep is word rep 2^64 + (m + ORIGIN) W + w, reached by
    one relative ``advance`` (mod 2^128), which also drops a buffered half
    word.  A replication owns 2^64 words, so ``rep`` must be below 2^64 and
    the indices drawn must stay inside its region; anything else would
    alias another replication and is refused.
    """
    rep, start = int(rep), int(start)
    first, end = (start + ORIGIN) * W, (start + count + ORIGIN) * W
    if not (0 <= rep < 1 << 64 and 0 <= first and end <= 1 << 64):
        raise ValueError(f"replication {rep}, indices {start}..{start + count - 1}: the "
                         f"replication must lie in [0, 2**64) and its words in its "
                         f"own 2**64-word region")
    word = (rep << 64) + first
    bit_gen.advance((word - at) % (1 << 128))
    return word + count * W


def _standardized_draws(u: np.ndarray, law: str, pareto_alpha: float) -> np.ndarray:
    """Map the uniforms of ``u``, a (rows, words) array, to i.i.d. mean-zero
    unit-variance draws of the given law, in place, and return ``u``.

    Rows are transformed in the fewest chunks of at most CHUNK_WORDS words,
    their row counts equal to within one, so the temporaries stay small
    beside ``u`` and no pass runs on a sliver of rows.  Gaussian draws come
    in pairs of words (2p, 2p+1) of a row, by Box-Muller with the tangent
    half-angle: for R = sqrt(-2 ln(1 - u0)) and t = tan(pi (u1 - 1/2)), the
    pair (R cos theta, R sin theta) at theta = 2 pi (u1 - 1/2) is
    ((1 - t)(1 + t) s, 2 t s) with s = R / (1 + t^2).  No sin or cos is
    evaluated.  1 - u0 lies in [2^-53, 1] and is exact, and
    |t| <= 1.7e16, so every draw is finite.
    """
    rows = len(u)
    chunks = -(-rows // max(1, CHUNK_WORDS // u.shape[1]))
    for i in range(chunks):
        chunk = u[i * rows // chunks:(i + 1) * rows // chunks]
        if law == "gaussian":
            _box_muller(chunk[:, 0::2], chunk[:, 1::2])
        else:
            _pareto(chunk, pareto_alpha)
    return u


def _box_muller(u0: np.ndarray, u1: np.ndarray) -> None:
    """Overwrite the uniforms (u0, u1), two strided views, with their Gaussian
    pair.  The transcendentals run on contiguous copies, where numpy has
    SIMD loops for them."""
    s = np.subtract(1.0, u0)
    np.log(s, out=s)
    s *= -2.0
    np.sqrt(s, out=s)        # R
    t = np.subtract(u1, 0.5)
    t *= np.pi
    np.tan(t, out=t)
    w = np.square(t)
    w += 1.0
    s /= w                   # s = R / (1 + t^2)
    np.subtract(1.0, t, out=w)
    np.multiply(t, 2.0, out=u1)
    u1 *= s
    t += 1.0
    w *= t
    np.multiply(w, s, out=u0)


def _pareto(u: np.ndarray, pareto_alpha: float) -> None:
    """Overwrite uniforms with standardized symmetrized Pareto draws."""
    # inverse CDF, sign(v) (1 - |v|)^(-1/alpha) scale with v = 2u - 1 + 2^-53
    # (exact, never 0); rounding commutes with sign, so it goes last
    u *= 2.0
    u -= 1.0
    u += 2.0 ** -53
    sign = np.sign(u, out=np.empty(u.shape, np.int8), casting="unsafe")
    np.abs(u, out=u)
    np.subtract(1.0, u, out=u)
    np.power(u, -1.0 / pareto_alpha, out=u)
    u *= np.sqrt((pareto_alpha - 2.0) / pareto_alpha)
    np.multiply(u, sign, out=u)


def _excess_kurtosis(law: str, pareto_alpha: float) -> float:
    """E g^4 - 3 of one draw g of ``_standardized_draws``: the Pareto magnitude
    has E x^4 = alpha / (alpha - 4), times the scale's fourth power."""
    if law == "gaussian":
        return 0.0
    return (pareto_alpha - 2.0) ** 2 / (pareto_alpha * (pareto_alpha - 4.0)) - 3.0


def _standard_draws(model: InnovationModel, seed: int, reps: range, start: int,
                    count: int, block: int):
    """Yield the standardized draws g_m, m = start .. start+count-1, of the
    replications in ``reps``, as (k, count, q) arrays of ``block``
    replications (fewer in the last).

    Entries are i.i.d. mean zero, unit variance, of the model's law; one
    PCG64DXSM generator and one uniform buffer serve the whole call, moved
    to each replication's first word, so a replication's draws do not
    depend on the block it falls in.  A block is that buffer, all W words of
    each index transformed in place, viewed at its first q words: use it
    before asking for the next one.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    W = _words_per_index(model.q)
    npr = _numpy_random()
    bit_gen = npr.PCG64DXSM(int(seed))
    gen, at = npr.Generator(bit_gen), 0
    u = np.empty((min(block, len(reps)), count, W))
    for lo in range(0, len(reps), block):
        k = min(block, len(reps) - lo)
        for r in range(k):
            at = _seek(bit_gen, at, reps[lo + r], start, count, W)
            gen.random(out=u[r])
        _standardized_draws(u[:k].reshape(-1, W), model.law, model.pareto_alpha)
        yield u[:k, :, :model.q]


def _physical_memory() -> int:
    """Bytes of physical memory, the bound on what one run may allocate."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_memory(arrays: dict) -> None:
    """Refuse, before anything is allocated, a run whose largest arrays
    (name -> bytes) together exceed physical memory, naming the largest."""
    total, limit = sum(arrays.values()), _physical_memory()
    if total > limit:
        name = max(arrays, key=arrays.get)
        raise ValidationError(f"memory: the run needs {total:,} bytes, more than the "
                              f"{limit:,} bytes of physical memory; its largest array, "
                              f"the {name}, takes {arrays[name]:,}")


def _factor(model: InnovationModel) -> np.ndarray:
    """``model.factor``, or ValidationError when sigma has no factor."""
    if model.factor is None:
        raise ValidationError("innovation covariance could not be factorized "
                              "even with jitter; cannot sample")
    return model.factor


def innovation_block(model: InnovationModel, seed: int, start: int, count: int,
                     rep: int = 0) -> np.ndarray:
    """Innovation vectors eps_m for m = start .. start+count-1, as (count, q).

    Deterministic in (seed, rep, m): overlapping blocks agree entry for
    entry, which is what makes the two partial-sum routes comparable.
    """
    factor = _factor(model)
    g, = _standard_draws(model, seed, range(rep, rep + 1), start, count, 1)
    return g[0] @ factor.T


def _contract(z: np.ndarray, idx: np.ndarray, factor: np.ndarray,
              g: np.ndarray) -> np.ndarray:
    """sum_m z_{n,m}(t_i) eps_m(t_i) per replication of the standardized
    draws ``g`` (k, rows, q), as (k, q), with eps_m = F g_m for the factor F.

    The weight rows ``z`` (one per distinct exponent, ``rows`` columns) meet
    the draws first, Y = z @ g, and then S_i = sum_j F_ij Y[idx_i, j]: the
    innovations themselves are never formed.  Each replication's arithmetic
    is the same whatever k.
    """
    y = z @ g
    return np.sum(y[:, idx] * factor, axis=-1)


def _past_factor(spec: ProcessSpec, z: np.ndarray) -> np.ndarray:
    """L with L L^T = sigma o Z_past Z_past^T, the covariance of the past
    term sum_{m<=0} z_{n,m} eps_m of the truncated partial sum of weights z."""
    z_past = z[:, :spec.window]
    _, idx = spec.memory.distinct
    return _factor_psd(spec.innovations.sigma * (z_past @ z_past.T)[np.ix_(idx, idx)])


def _draw_plan(model: InnovationModel, n: int, M: int) -> tuple[int, int, int]:
    """``(start, rows, block)`` of the replication sampler at horizon n and
    window M: a replication draws ``rows`` time indices from ``start`` on,
    and ``block`` replications are drawn together."""
    start = 0 if model.law == "gaussian" else 1 - M
    rows = n + 1 - start
    return start, rows, max(1, REPLICATION_BLOCK * (n + 1) // rows)


def _replication_sampler(spec: ProcessSpec, z: np.ndarray, seed: int):
    """``(rep_start, count[, out]) -> (count, q) S_n``: the partial sums of
    replications rep_start .. rep_start+count-1 for the weights ``z`` of
    ``partial_sum_weights``, written into ``out`` when it is given.

    A non-Gaussian law takes the pathwise route: it draws the window's
    indices 1-M..n and contracts them with ``z`` through ``_contract``,
    as ``partial_sums_via_z`` does.  Under the Gaussian law the past term
    sum_{m<=0} z_{n,m} eps_m is exactly N(0, sigma o Z_past Z_past^T), so a
    replication draws indices 0..n only: rows 1..n times ``factor.T`` are
    eps_1..eps_n of ``innovation_block`` and are contracted with ``z[:, M:]``,
    and row 0 drives the past through ``_past_factor``.  Replications are
    drawn, transformed and contracted in blocks that hold no more rows than
    REPLICATION_BLOCK Gaussian replications, or than one replication; each
    replication's arithmetic is the same whatever its block.
    """
    model, M = spec.innovations, spec.window
    factor = _factor(model)
    _, idx = spec.memory.distinct
    start, rows, block = _draw_plan(model, z.shape[1] - M, M)
    past_factor = None
    if model.law == "gaussian":
        z, past_factor = z[:, M:], _past_factor(spec, z)

    def sample(rep_start: int, count: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((count, model.q))
        draws = _standard_draws(model, seed, range(rep_start, rep_start + count),
                                start, rows, block)
        for lo, g in zip(range(0, count, block), draws):
            if past_factor is None:
                out[lo:lo + len(g)] = _contract(z, idx, factor, g)
            else:
                # a stack of matrix-vector products, as per replication: a
                # matrix-matrix product would sum the past term in another order
                past = (past_factor @ g[:, 0, :, None])[:, :, 0]
                out[lo:lo + len(g)] = _contract(z, idx, factor, g[:, 1:]) + past
        return out

    return sample


def generate_paths(spec: ProcessSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter a rolling innovation window through the truncated power-law MA.

    Returns ``(values, truncation_tail_var)``: the (n, q) paths
    X_k(t_i) = sum_{j=0}^{M} (j+1)^{-d(t_i)} eps_{k-j}(t_i), truncated at the
    spec's window M, and per grid point the certified bound on the variance
    the window drops from each X_k.  Consecutive k share innovations.  A run
    whose draw buffer, innovations and paths exceed physical memory is
    refused (``ValidationError``) before any is allocated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    M = spec.window
    _require_memory({"draw buffer": (n + M) * _words_per_index(spec.q) * 8,
                     "innovations": (n + M) * spec.q * 8, "paths": n * spec.q * 8})
    eps = innovation_block(spec.innovations, seed, start=1 - M, count=n + M)
    u, idx = spec.memory.distinct
    j = np.arange(M + 1, dtype=float)
    coefs = [((j + 1.0) ** (-float(d)))[::-1] for d in u]
    values = np.empty((n, spec.q))
    for i in range(spec.q):
        windows = np.lib.stride_tricks.sliding_window_view(eps[:, i], M + 1)
        values[:, i] = windows[:n] @ coefs[idx[i]]
    tail = np.array([tail_variance_bound(float(d), M) for d in u])
    return values, spec.innovations.sigma2 * tail[idx]


def partial_sums_via_z(spec: ProcessSpec, n: int, seed: int, rep: int = 0) -> np.ndarray:
    """S_n via the independent-summands identity S_n(t) = sum_j z_{n,j}(t) eps_j(t).

    The weights times the innovations of indices 1-M..n, those of
    ``innovation_block``: the same truncation window and the same addressable
    innovations as ``generate_paths``, so the result matches the sum of the
    paths over k to floating-point reassociation error (<= 1e-12 relative).
    The contraction is ``_contract``'s, so the sum is bit for bit the one
    the replication sampler forms for ``rep`` under a non-Gaussian law.
    """
    if n < 2:
        raise ValueError("the independent-summands identity is stated for n >= 2")
    model, M = spec.innovations, spec.window
    factor = _factor(model)
    g, = _standard_draws(model, seed, range(rep, rep + 1), 1 - M, n + M, 1)
    return _contract(partial_sum_weights(spec, n), spec.memory.distinct[1], factor, g)[0]
