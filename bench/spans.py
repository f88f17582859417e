"""In-process span tracer for the longmem benchmark.

``Tracer.install`` replaces every public function of the package's modules
(``model``, ``analytics``, ``simulate``, ``mcverify``, ``io``, ``cli``) at every
module attribute that binds it, so a call made through any import site records
a span: name, start, end and parent span.  Spans stay in memory; the
metrics are computed from them after the traced operation ends.

A layer's self time is its span's duration minus the union of the intervals
its child spans cover, so overlapping children on worker threads (the sharded
Monte Carlo path) are not subtracted twice.

The wrapper's own cost (a few microseconds per call, outside the wrapped
function's interval) lands in the self time of the calling span: on
``analyze`` the 14,886 ``validate`` spans charge theirs to
``cross_covariance_exact`` and the ``cross_covariance_exact`` spans theirs to
``cli``.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("model", "analytics", "simulate", "mcverify", "io", "cli")


@dataclass(slots=True)
class Span:
    name: str                      # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    attrs: dict | None = None      # work counts, for the functions in RECORDERS
    call: tuple | None = None      # (fn, args, kwargs, result shape) until counted

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# per-function work counts
# ---------------------------------------------------------------------------
#
# While a traced operation runs, a span of one of these functions keeps only
# its raw arguments and the shape of its result (``Span.call``); the counts are
# worked out from them after the operation ends, so the counting is not
# charged to the calling span's self time.

_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bind(fn, args, kwargs) -> dict:
    try:
        return _signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _rows(fn, args, kwargs, shape) -> dict:
    return {"rows": int(shape[0])} if shape else {}


def _replications(fn, args, kwargs, shape) -> dict:
    reps = _bind(fn, args, kwargs).get("N")
    return {"reps": int(reps)} if reps is not None else {}


def _exponent_key(fn, args, kwargs, shape) -> dict:
    """(d_s, d_t, h) of one cross-covariance call, looked up on the spec's grid."""
    a = _bind(fn, args, kwargs)
    try:
        spec, s, t, h = a["spec"], a["s"], a["t"], a["h"]
        points = list(spec.grid.points)
        d = spec.memory.values
        return {"key": (float(d[points.index(s)]), float(d[points.index(t)]), int(h))}
    except (KeyError, ValueError, AttributeError):
        return {}


def _bytes_written(fn, args, kwargs, shape) -> dict:
    path = next(iter(_bind(fn, args, kwargs).values()), None)
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


RECORDERS = {
    "simulate.innovation_block": _rows,
    "mcverify.run_clt_experiment": _replications,
    "analytics.cross_covariance_exact": _exponent_key,
}


def _recorder(name: str):
    if name in RECORDERS:
        return RECORDERS[name]
    if name.startswith("io.write_"):
        return _bytes_written
    return None


def record_attrs(spans: list[Span]) -> None:
    """Fill ``attrs`` of every span that kept its call; run after the operation,
    while the files it wrote still exist."""
    for s in spans:
        if s.call is not None:
            fn, args, kwargs, shape = s.call
            s.attrs = _recorder(s.name)(fn, args, kwargs, shape)
            s.call = None


class Tracer:
    """Wraps the package's public functions and collects their spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        record = _recorder(name) is not None
        current = self._current
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=current.get())
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                current.reset(token)
                spans.append(span)
            if record:
                span.call = (fn, args, kwargs, getattr(result, "shape", None))
            return result

        return traced

    def install(self) -> None:
        layers = {layer: getattr(self.package, layer) for layer in LAYERS
                  if hasattr(self.package, layer)}
        targets = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    targets[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in (self.package, *layers.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    replacement = targets[id(obj)]
                elif obj is concurrent.futures.ThreadPoolExecutor:
                    replacement = ContextThreadPoolExecutor
                else:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn`` with the wrappers installed; returns (result, spans)."""
        self.spans.clear()
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
        record_attrs(self.spans)
        return result, list(self.spans)


class ContextThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
    """Runs each task in the submitter's context, so spans recorded on worker
    threads get the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id): duration minus its children's union.

    A span with no parent that is not the outermost one (a worker thread the
    context did not reach) is attributed to the outermost span.
    """
    roots = [s for s in spans if s.parent is None]
    root = max(roots, key=lambda s: s.duration) if roots else None
    children: dict[int, list[Span]] = {}
    for s in spans:
        parent = s.parent if s.parent is not None or s is root else root
        if parent is not None:
            children.setdefault(id(parent), []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(id(s), ())]
        out[id(s)] = s.duration - _union_length([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see the README for each)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        layer_self[s.layer] += own[id(s)]

    def self_s(*names):
        return sum(own[id(s)] for n in names for s in by_name[n])

    def total(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    cce = by_name["analytics.cross_covariance_exact"]
    blocks = by_name["simulate.innovation_block"]
    rows = total("simulate.innovation_block", "rows")
    busy = sum(s.duration for s in blocks)
    reps = total("mcverify.run_clt_experiment", "reps")
    io_bytes = sum(total(n, "bytes") for n in by_name if n.startswith("io."))
    return {
        "model.validate.calls": len(by_name["model.validate"]),
        "model.validate.self_s": self_s("model.validate"),
        "analytics.cross_covariance_exact.calls": len(cce),
        "analytics.cross_covariance_exact.self_s": self_s("analytics.cross_covariance_exact"),
        "analytics.cross_covariance_exact.distinct_ratio":
            len({(s.attrs or {}).get("key") for s in cce}) / len(cce) if cce else 0.0,
        "analytics.scale_integral.self_s":
            self_s("analytics.scale_integral", "analytics.scale_integral_closed_form"),
        "analytics.partial_sum_weights.self_s": self_s("analytics.partial_sum_weights"),
        "analytics.partial_sum_covariance_series.self_s":
            self_s("analytics.partial_sum_covariance_series"),
        "simulate.generate_paths.self_s": self_s("simulate.generate_paths"),
        "simulate.innovation_block.calls": len(blocks),
        "simulate.innovation_block.rows": rows,
        "simulate.innovation_block.busy_s": busy,
        "simulate.innovation_block.rows_per_s": rows / busy if busy > 0 else 0.0,
        "mcverify.run_clt_experiment.self_s": self_s("mcverify.run_clt_experiment"),
        "mcverify.run_clt_experiment.per_rep_s":
            sum(s.duration for s in by_name["mcverify.run_clt_experiment"]) / reps
            if reps else 0.0,
        "mcverify.normality_diagnostics.self_s": self_s("mcverify.normality_diagnostics"),
        "mcverify.fit_variance_exponent.self_s": self_s("mcverify.fit_variance_exponent"),
        "io.self_s": layer_self["io"],
        "io.bytes_written": io_bytes,
        "cli.self_s": layer_self["cli"],
    }
