"""In-memory span tracing of the engine's layers, installed from outside.

The benchmark measures each layer by wrapping the public function that is
its entry point (see :data:`LAYERS`); nothing under ``src/`` knows about
tracing.  A span records one call, or one ``next()`` of a layer that
returns an iterator, so a lazily evaluated operator is charged only for the
work done while it was being pulled.  Spans nest through a context
variable: a span opened while another is open on the same thread (or the
same asyncio task) is its child.

A layer's *self time* is its span's duration minus the time its child spans
cover.  Self times are folded into a per-request record when each span
closes; the records (plus the raw spans of the first few requests) stay in
memory and are written out only when the benchmark ends.

Requests are identified by a context variable as well.  The in-process loop
opens a root ``request`` span per request (its self time is the
unattributed remainder); the server process binds the request named by the
client's ``X-Perfbench-Request`` header and carries it onto the producer
thread that evaluates the query.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The header the load generator sends and the server-side tracer reads.
REQUEST_HEADER = "x-perfbench-request"

#: Name of the root span the in-process loop opens around each request.
ROOT = "request"

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

_clock = time.perf_counter


class Span:
    """One open span: its layer, start time and the time its children took."""

    __slots__ = ("name", "start", "child", "parent", "ident")

    def __init__(self, name: str, start: float, parent: Optional["Span"], ident: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.ident = ident


class RequestTrace:
    """Per-request accumulators: self seconds and counters per layer."""

    __slots__ = ("key", "self_s", "counts", "roots", "wall", "spans", "_lock")

    def __init__(self, key, keep_spans: bool):
        self.key = key
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (start, end) of every span without a parent in this request.
        self.roots: List[Tuple[float, float]] = []
        #: Duration of the ``request`` root span (in-process loop only).
        self.wall: Optional[float] = None
        #: Raw spans (ident, parent ident, name, start, end, thread) or None.
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        # Spans of one request can close on two threads (event loop and
        # producer), so folding is serialized per request.
        self._lock = threading.Lock()

    def covered(self) -> float:
        """Seconds covered by the request's root-level spans (their union)."""
        return union_length(self.roots)

    def summary(self) -> dict:
        return {
            "key": self.key,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "covered_s": self.covered(),
            "wall_s": self.wall,
        }


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class Tracer:
    """Collects spans into per-request records (spans outside a request are dropped)."""

    def __init__(self, keep_requests: int = 100):
        self.requests: List[RequestTrace] = []
        self.keep_requests = keep_requests
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    # ----------------------------------------------------------- requests
    def new_request(self, key) -> RequestTrace:
        with self._lock:
            record = RequestTrace(key, len(self.requests) < self.keep_requests)
            self.requests.append(record)
        return record

    @contextmanager
    def request(self, key) -> Iterator[RequestTrace]:
        """Bind a new request and time it under a root ``request`` span."""
        record = self.new_request(key)
        token = _REQUEST.set(record)
        span, span_token = self.open(ROOT)
        try:
            yield record
        finally:
            record.wall = self.close(span, span_token)
            _REQUEST.reset(token)

    # -------------------------------------------------------------- spans
    def open(self, name: str):
        span = Span(name, _clock(), _CURRENT.get(), next(self._ids))
        return span, _CURRENT.set(span)

    def close(self, span: Span, token) -> float:
        end = _clock()
        _CURRENT.reset(token)
        duration = end - span.start
        record = _REQUEST.get()
        if record is None:
            return duration
        parent = span.parent
        with record._lock:
            record.self_s[span.name] += duration - span.child
            if parent is None:
                record.roots.append((span.start, end))
            if record.spans is not None:
                record.spans.append((
                    span.ident,
                    parent.ident if parent is not None else None,
                    span.name,
                    span.start,
                    end,
                    threading.get_ident(),
                ))
        if parent is not None:
            parent.child += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        record = _REQUEST.get()
        if record is not None:
            with record._lock:
                record.counts[name] += amount

    # ------------------------------------------------------------ export
    def raw_spans(self) -> List[dict]:
        """Raw spans of the first ``keep_requests`` requests, for the trace file."""
        out = []
        for record in self.requests:
            if record.spans:
                out.append({"key": record.key, "spans": record.spans})
        return out


# ------------------------------------------------------------------ wrappers
def wrap_call(tracer: Tracer, name: str, fn: Callable, measure=None) -> Callable:
    """Time every call of ``fn`` as a ``name`` span; ``measure`` adds counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.count(name + ".calls")
        span, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if measure is not None:
            measure(tracer, name, result)
        return result

    return traced


def wrap_iter(
    tracer: Tracer, name: str, fn: Callable, measure=None, count_inputs: bool = False
) -> Callable:
    """Time the call of an iterator-returning ``fn`` and each ``next()`` on it.

    With ``count_inputs``, every iterator argument is metered so the layer
    reports the rows it pulled (``<name>.rows_in``) next to the rows it
    produced (``measure``).
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count_inputs:
            args = tuple(
                _metered(tracer, name + ".rows_in", arg) if hasattr(arg, "__next__") else arg
                for arg in args
            )
        tracer.count(name + ".calls")
        span, token = tracer.open(name)
        try:
            inner = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        return timed_iter(tracer, name, inner, measure)

    return traced


def timed_iter(tracer: Tracer, name: str, inner, measure=None) -> Iterator:
    """Yield from ``inner``, timing each ``next()`` as a ``name`` span."""
    iterator = iter(inner)
    try:
        while True:
            span, token = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(span, token)
            if measure is not None:
                measure(tracer, name, item)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _metered(tracer: Tracer, counter: str, inner) -> Iterator:
    try:
        for batch in inner:
            tracer.count(counter, batch.rows)
            yield batch
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()


def wrap_async(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time an ``async`` method ``fn(self, produce)`` that starts a producer.

    The producer callable runs on another thread; it is rebound to the
    current request so the spans it opens land in the same record.
    """

    @functools.wraps(fn)
    async def traced(self, produce, *args, **kwargs):
        record = _REQUEST.get()
        tracer.count(name + ".calls")
        span, token = tracer.open(name)
        try:
            return await fn(self, bind_producer(record, produce), *args, **kwargs)
        finally:
            tracer.close(span, token)

    return traced


def bind_producer(record: Optional[RequestTrace], produce: Callable) -> Callable:
    """``produce(stop)`` whose call and chunk iteration run under ``record``."""

    def bound(*args, **kwargs):
        token = _REQUEST.set(record)
        try:
            chunks = produce(*args, **kwargs)
        finally:
            _REQUEST.reset(token)
        return _bound_iter(record, chunks)

    return bound


def _bound_iter(record: Optional[RequestTrace], chunks) -> Iterator:
    iterator = iter(chunks)
    try:
        while True:
            token = _REQUEST.set(record)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                _REQUEST.reset(token)
            yield item
    finally:
        token = _REQUEST.set(record)
        try:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
        finally:
            _REQUEST.reset(token)


def wrap_request_entry(fn: Callable, tracer: Tracer) -> Callable:
    """Bind the request named by the client header around ``fn(self, request, writer)``."""

    @functools.wraps(fn)
    async def traced(self, request, writer, *args, **kwargs):
        headers = request[2]
        key = headers.get(REQUEST_HEADER)
        if key is None:
            return await fn(self, request, writer, *args, **kwargs)
        token = _REQUEST.set(tracer.new_request(key))
        try:
            return await fn(self, request, writer, *args, **kwargs)
        finally:
            _REQUEST.reset(token)

    return traced


# ------------------------------------------------------------ measurements
def _rows_out(tracer: Tracer, name: str, batch) -> None:
    tracer.count(name + ".rows_out", batch.rows)


def _rows_returned(tracer: Tracer, name: str, rows: int) -> None:
    tracer.count(name + ".rows", rows)


def _rows_decoded(tracer: Tracer, name: str, column) -> None:
    tracer.count(name + ".rows", len(column))


def _bytes_out(tracer: Tracer, name: str, chunk: bytes) -> None:
    tracer.count(name + ".bytes", len(chunk))


#: Operator kernels composed by ``repro.engine.operators.pipeline``.
KERNELS = (
    ("hash_join", "batch_hash_join"),
    ("left_outer_join", "batch_left_outer_join"),
    ("filter", "batch_filter"),
    ("distinct", "batch_distinct"),
    ("order_by", "batch_order_by"),
    ("aggregate", "batch_aggregate"),
    ("path_apply", "batch_path_apply"),
    ("limit_offset", "batch_limit_offset"),
)

#: (layer, module, attribute path, kind, measure).  ``kind`` is ``call``
#: (plain function or method), ``iter`` (returns an iterator, timed per
#: ``next()``), ``kernel`` (``iter`` plus input-row metering) or ``async``.
LAYERS: Tuple[tuple, ...] = (
    ("parser", "repro.engine.base", "parse_sparql", "call", None),
    ("plan_cache", "repro.engine.turbo_engine", "TurboBGPSolver.plan", "call", None),
    ("plan", "repro.engine.turbo_engine", "compile_query", "call", None),
    ("solve", "repro.engine.turbo_engine", "TurboBGPSolver.solve_batches", "iter", _rows_out),
    ("explore", "repro.matching.turbo", "explore_candidate_region", "call", None),
    ("admission", "repro.engine.cache_admission", "TinyLfuAdmission.record_access", "call", None),
    ("search", "repro.matching.subgraph_search", "SubgraphSearcher.fill", "call", _rows_returned),
    ("decode", "repro.sparql.binding_batch", "BindingBatch.term_column", "call", _rows_decoded),
    ("serialize", "repro.sparql.serializers", "serialize_json", "iter", _bytes_out),
    ("shards", "repro.engine.shard_executor", "ShardExecutor.iter_component_batches", "iter", None),
    ("scheduler", "repro.serving.scheduler", "QueryScheduler.submit", "async", None),
) + tuple(
    ("operators." + kernel, "repro.engine.operators.pipeline", function, "kernel", _rows_out)
    for kernel, function in KERNELS
)


class Instrumentation:
    """Installs the :data:`LAYERS` wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: List[Tuple[object, str, object]] = []

    def install(self, serving: bool = False) -> "Instrumentation":
        for name, module_name, path, kind, measure in LAYERS:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            if kind == "call":
                wrapped = wrap_call(self.tracer, name, original, measure)
            elif kind == "iter":
                wrapped = wrap_iter(self.tracer, name, original, measure)
            elif kind == "kernel":
                wrapped = wrap_iter(self.tracer, name, original, measure, count_inputs=True)
            else:
                wrapped = wrap_async(self.tracer, name, original)
            self._patch(owner, attribute, wrapped)
            if name == "serialize":
                self._patch_registry(original, wrapped)
        self._count_regions()
        if serving:
            self._bind_server_requests()
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _patch_registry(self, original, wrapped) -> None:
        # The server picks its writer from the media-type registry, which
        # holds the function object itself.
        registry = importlib.import_module("repro.sparql.serializers").SERIALIZERS
        for media, writer in list(registry.items()):
            if writer is original:
                self._restore.append((registry, media, original))
                registry[media] = wrapped

    def _count_regions(self) -> None:
        # Each reset() starts the search of one candidate region, explored
        # or reused from the region cache: the base of rows_per_region.
        owner, attribute = _resolve("repro.matching.subgraph_search", "SubgraphSearcher.reset")
        original = getattr(owner, attribute)
        tracer = self.tracer

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count("search.regions")
            return original(*args, **kwargs)

        self._patch(owner, attribute, counted)

    def _bind_server_requests(self) -> None:
        owner, attribute = _resolve("repro.serving.server", "SparqlServer._dispatch")
        self._patch(owner, attribute, wrap_request_entry(getattr(owner, attribute), self.tracer))


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``module.Class.attr`` or ``module.attr``.

    A wrap point that no longer exists raises: a layer that silently went
    unwrapped would report zero time while the run still succeeded.
    """
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attribute):
        raise AttributeError(f"wrap point {module_name}.{path} not found")
    return owner, attribute
