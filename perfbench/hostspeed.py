"""Host-speed calibration: a fixed pure-Python kernel timed during each run.

On a shared two-CPU virtual machine the host's speed drifts by 20-30%
within minutes, far more than one run's own noise, so the run-to-run
spread of raw wall-clock figures says more about the neighbours than about
the engine.  Each run therefore times a calibration kernel — dictionary
lookups, tuple and string building and JSON encoding, the interpreter work
the engine does, with no code from the package — throughout its
measurement, and scales its time metrics to a host on which the kernel
takes :data:`REFERENCE_MS`:

    reported time = measured time * REFERENCE_MS / median sample
    reported rate = measured rate * median sample / REFERENCE_MS

The kernel runs in a helper process of its own (``python3 hostspeed.py``,
driven over a pipe by :class:`HostSpeed`), and each sample first copies
:data:`_FLUSH_BYTES` between two buffers of the helper, which evicts the
per-core caches.  So the engine's process state — its heap, its allocator,
what it left in its core's caches — does not enter a sample the way it did
when the kernel ran inside the engine's process right after a request.  The
host's shared last-level cache and the core's branch predictors remain
shared with everything else on the machine, the engine included.  Samples
are taken only while the engine is idle (between requests, or between load
segments of the serving workload).  Raw figures and the sample median are
kept in each run's record; a claimed gain must hold on them too.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from typing import List

#: Median sample on the development box (2-vCPU VM, Python 3.11), in ms.
REFERENCE_MS = 4.0

_TABLE_SIZE = 8192
_LOOKUPS = 4096
_ENCODED_ROWS = 256
#: Bytes copied between two buffers before each sample: far more than the
#: per-core caches hold, so the kernel never runs from a warm L2.
_FLUSH_BYTES = 32 << 20
#: Pause before each sample of a burst.  A sample taken between requests
#: follows at least 0.1 s in which the helper slept; back-to-back samples
#: run several times faster and do not track the host, so a burst pauses
#: too and its samples come from the same state.
_BURST_PAUSE_S = 0.02


class Kernel:
    """The calibration kernel and its flush buffers (lives in the helper)."""

    def __init__(self):
        rng = random.Random(20150801)
        self._table = {(i % 509, f"k{i}"): (i, f"value{i}") for i in range(_TABLE_SIZE)}
        keys = list(self._table)
        rng.shuffle(keys)
        self._keys = keys[:_LOOKUPS]
        self._flush_from = bytearray(_FLUSH_BYTES)
        self._flush_to = bytearray(_FLUSH_BYTES)

    def sample(self) -> float:
        """Flush the caches, then time the kernel once; returns ms."""
        self._flush_to[:] = self._flush_from
        started = time.perf_counter()
        table = self._table
        rows = []
        for key in self._keys:
            number, text = table[key]
            rows.append((number + key[0], text + key[1]))
        json.dumps([list(row) for row in rows[:_ENCODED_ROWS]])
        return (time.perf_counter() - started) * 1e3

    def burst(self, seconds: float) -> List[float]:
        """Samples, each after a short pause, for about ``seconds`` (at least one)."""
        deadline = time.perf_counter() + seconds
        samples = []
        while not samples or time.perf_counter() < deadline:
            time.sleep(_BURST_PAUSE_S)
            samples.append(self.sample())
        return samples


class HostSpeed:
    """Client of a helper process that times the kernel on request.

    Use as a context manager, or call :meth:`close`, so the helper ends.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _ask(self, seconds: float) -> List[float]:
        self._proc.stdin.write(f"{seconds!r}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited (code {self._proc.poll()})")
        return json.loads(line)

    def sample(self) -> float:
        """One sample; returns ms."""
        return self._ask(0.0)[0]

    def burst(self, seconds: float) -> List[float]:
        """Samples, each after a short pause, for about ``seconds``."""
        return self._ask(seconds)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def to_reference_time(value: float, samples_ms: List[float]) -> float:
    """A duration measured while ``samples_ms`` were taken, on the reference host."""
    return value * REFERENCE_MS / statistics.median(samples_ms)


def to_reference_rate(value: float, samples_ms: List[float]) -> float:
    """A rate measured while ``samples_ms`` were taken, on the reference host."""
    return value * statistics.median(samples_ms) / REFERENCE_MS


def serve() -> int:
    """Helper loop: each input line is a burst length in seconds (0 = one
    sample); each output line is the JSON list of its samples in ms."""
    kernel = Kernel()
    for line in sys.stdin:
        seconds = float(line)
        # A single sample follows the idle time between requests itself.
        samples = kernel.burst(seconds) if seconds > 0 else [kernel.sample()]
        sys.stdout.write(json.dumps(samples) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve())
