"""Open-loop latency from the due time, generator lag and the capacity search."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
from benchstats import due_latency, generator_lag
from tracing import REQUEST_HEADER

STALL_S = 0.3
GAP_S = 0.05


class StallOnce(BaseHTTPRequestHandler):
    """Answers instantly, except that the first request stalls the server."""

    protocol_version = "HTTP/1.1"
    stalled = threading.Event()
    keys = []

    def do_GET(self):
        StallOnce.keys.append(self.headers.get(REQUEST_HEADER))
        if not StallOnce.stalled.is_set():
            StallOnce.stalled.set()
            time.sleep(STALL_S)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stall_server():
    StallOnce.stalled.clear()
    StallOnce.keys = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_latency_runs_from_the_due_time_through_a_stall(stall_server):
    requests = [(f"r{i}", "/sparql?query=x") for i in range(6)]
    outcomes, aborted = loadgen.open_loop(
        "127.0.0.1", stall_server, requests, rate=1.0 / GAP_S, connections=1
    )
    assert not aborted
    assert [o.key for o in outcomes] == [f"r{i}" for i in range(6)]
    assert StallOnce.keys == [f"r{i}" for i in range(6)]
    assert all(o.ok for o in outcomes)
    # The second request was due GAP_S after the first but could only be
    # sent when the stalled connection freed up: its latency counts the
    # wait, so it is about STALL_S - GAP_S, far above its service time.
    second = outcomes[1]
    assert second.send - second.due >= STALL_S - GAP_S - 0.02
    assert second.latency >= STALL_S - GAP_S - 0.02
    assert second.end - second.send < 0.1
    # Waiting for the busy connection is the server's doing, not lag.
    assert second.lag < 0.02


def test_latency_and_lag_definitions():
    assert due_latency(due=1.0, end=1.25) == pytest.approx(0.25)
    # Sent 5 ms after the later of due time and connection availability.
    assert generator_lag(due=1.0, free=1.2, send=1.205) == pytest.approx(0.005)
    assert generator_lag(due=1.0, free=0.5, send=1.003) == pytest.approx(0.003)
    assert generator_lag(due=1.0, free=0.5, send=0.999) == 0.0


def _outcomes(latencies, gap=0.01, send_delays=None):
    out = []
    for index, latency in enumerate(latencies):
        due = index * gap
        send = due + (send_delays[index] if send_delays else 0.0)
        out.append(loadgen.Outcome(index, str(index), due, due, send, send, due + latency, 200))
    return out


def test_probe_verdict_rejects_tail_misses_and_backlog():
    ok = _outcomes([0.01] * 1000)
    assert loadgen.probe_verdict(ok, 1000, slo=0.05, aborted=False)[0]
    slow_tail = _outcomes([0.01] * 980 + [0.2] * 20)
    assert not loadgen.probe_verdict(slow_tail, 1000, slo=0.05, aborted=False)[0]
    behind = _outcomes([0.01] * 1000, send_delays=[0.0] * 940 + [0.7] * 60)
    passed, _, backlog = loadgen.probe_verdict(behind, 1000, slo=1.0, aborted=False)
    assert backlog == 60 and not passed
    assert not loadgen.probe_verdict(ok[:900], 1000, slo=0.05, aborted=False)[0]


def test_capacity_search_finds_the_last_passing_grid_rate():
    capacity = 230.0
    seen = []

    def run_probe(rate):
        seen.append(rate)
        return loadgen.Probe(rate, rate <= capacity, 1000, 1.0, 0, False)

    best, probes = loadgen.capacity_search(run_probe, estimate=120.0, deadline=time.perf_counter() + 60)
    assert best <= capacity < best * (1 + loadgen.GRID_STEP)
    assert len(probes) == len(seen) <= 12
    best_low, _ = loadgen.capacity_search(run_probe, estimate=900.0, deadline=time.perf_counter() + 60)
    assert best_low == best


def test_capacity_search_keeps_the_best_rate_when_time_runs_out():
    def run_probe(rate):
        return loadgen.Probe(rate, True, 1000, 1.0, 0, False)

    best, probes = loadgen.capacity_search(run_probe, estimate=100.0, deadline=time.perf_counter() - 1)
    assert best is None and probes == []
    deadline = time.perf_counter() + 0.05

    def slow_probe(rate):
        time.sleep(0.06)
        return loadgen.Probe(rate, True, 1000, 1.0, 0, False)

    best, probes = loadgen.capacity_search(slow_probe, estimate=100.0, deadline=deadline)
    assert len(probes) == 1 and best == probes[0].rate
