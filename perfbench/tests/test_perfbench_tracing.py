"""Span nesting and self time of the benchmark's tracer."""

import threading

import pytest

import tracing
from tracing import Instrumentation, Tracer, bind_producer, timed_iter, union_length, wrap_iter


class FakeClock:
    """A clock the traced fakes advance explicitly (exact self times)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "_clock", fake)
    return fake


class Batch:
    def __init__(self, rows):
        self.rows = rows


def test_join_pulling_from_solve_batches_splits_self_time(clock):
    tracer = Tracer()

    def solve_batches():
        clock.work(0.010)  # plan, charged to the call span
        def stream():
            for rows in (3, 4):
                clock.work(0.020)  # search work per batch
                yield Batch(rows)
        return stream()

    def hash_join(left):
        for batch in left:
            clock.work(0.005)  # probe work per batch
            yield Batch(batch.rows * 2)

    solve = wrap_iter(tracer, "solve", solve_batches)
    join = wrap_iter(tracer, "operators.hash_join", hash_join, count_inputs=True,
                     measure=lambda t, name, batch: t.count(name + ".rows_out", batch.rows))
    with tracer.request("r1") as record:
        clock.work(0.001)
        out = list(join(solve()))
        clock.work(0.002)

    assert [b.rows for b in out] == [6, 8]
    assert record.self_s["solve"] == pytest.approx(0.010 + 2 * 0.020)
    assert record.self_s["operators.hash_join"] == pytest.approx(2 * 0.005)
    assert record.self_s[tracing.ROOT] == pytest.approx(0.003)
    assert record.wall == pytest.approx(0.063)
    assert sum(record.self_s.values()) == pytest.approx(record.wall)
    assert record.counts["operators.hash_join.rows_in"] == 7
    assert record.counts["operators.hash_join.rows_out"] == 14
    assert record.counts["solve.calls"] == 1


def test_abandoned_stream_closes_the_inner_generator(clock):
    tracer = Tracer()
    closed = []

    def source():
        try:
            for index in range(10):
                clock.work(0.001)
                yield Batch(index)
        finally:
            closed.append(True)

    with tracer.request("r"):
        stream = timed_iter(tracer, "solve", source())
        next(stream)
        stream.close()
    assert closed == [True]


def test_spans_outside_a_request_are_dropped(clock):
    tracer = Tracer()
    span, token = tracer.open("parser")
    clock.work(0.5)
    tracer.close(span, token)
    assert tracer.requests == []


def test_producer_thread_spans_join_the_request_as_roots(clock):
    tracer = Tracer()
    record = tracer.new_request("served")

    def produce(stop):
        def chunks():
            for _ in range(2):
                span, token = tracer.open("serialize")
                clock.work(0.004)
                tracer.close(span, token)
                yield b"x"
        return chunks()

    bound = bind_producer(record, produce)
    worker = threading.Thread(target=lambda: list(bound(None)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert record.self_s["serialize"] == pytest.approx(0.008)
    assert len(record.roots) == 2
    assert record.covered() == pytest.approx(0.008)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert union_length([]) == 0.0


def test_instrumentation_on_the_engine_adds_up_and_restores():
    from repro.datasets import load_lubm
    from repro.engine import base
    from repro.engine.turbo_engine import TurboHomPPEngine
    from repro.sparql import serializers

    dataset = load_lubm(1, seed=42)
    engine = TurboHomPPEngine(workers=1, execution_mode="threads")
    engine.load(dataset.store)
    original_parse = base.parse_sparql
    original_json = serializers.serialize_json
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        for query_id in ("Q1", "Q9", "Q14"):
            with tracer.request(query_id):
                result = engine.query_batches(dataset.queries[query_id])
                with result:
                    body = b"".join(serializers.serialize_json(result.variables, result))
            assert body.startswith(b'{"head"')
    finally:
        instrumentation.uninstall()
        engine.close()
    assert base.parse_sparql is original_parse
    assert serializers.serialize_json is original_json
    assert serializers.SERIALIZERS[serializers.SPARQL_JSON] is original_json
    for record in tracer.requests:
        assert {"parser", "plan_cache", "solve", "serialize", "decode"} <= set(record.self_s)
        assert sum(record.self_s.values()) == pytest.approx(record.wall, rel=1e-9)
        assert all(value >= 0 for value in record.self_s.values())
    q9 = tracer.requests[1]
    assert q9.counts["search.rows"] > 0
    assert q9.counts["serialize.bytes"] > 0
