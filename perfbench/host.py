"""Host fingerprint stamped on every result.

Host times from different machines are not comparable: ``host_id`` names
the machine and toolchain, and ``calibration_ms`` (a fixed pure-Python
loop) shows how fast this interpreter ran on it when the result was made.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import signal
import time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def loop_ms(n: int) -> float:
    """Host time of a fixed pure-Python loop of *n* steps, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def calibration_ms() -> float:
    """Best-of-5 time of the calibration loop."""
    return min(loop_ms(300_000) for _ in range(5))


class _Item:
    __slots__ = ("due", "key", "payload")

    def __init__(self, due: int, key: int, payload: tuple) -> None:
        self.due = due
        self.key = key
        self.payload = payload


def probe_s(n: int = 3_000) -> float:
    """CPU seconds of a fixed pure-Python loop that does the kind of work
    the simulator does: small objects through a heap and a dict.  GC is
    off while it runs, so the probe neither pays for nor shifts the
    collections of the program it is measured next to."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        heap: list = []
        index: dict = {}
        for i in range(n):
            item = _Item(i * 7919 % 1013, i, (i, str(i & 63)))
            heapq.heappush(heap, (item.due, item.key, item))
            index[i & 4095] = item
            if len(heap) > 256:
                index.pop(heapq.heappop(heap)[2].key & 4095, None)
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


#: CPU seconds :func:`probe_s` takes at the reference speed (about the fast
#: level of an Intel Xeon vCPU of the shared host the bounds of
#: ``BENCHMARK.json`` were set on).
REF_PROBE_S = 0.0034


class SpeedSampler:
    """Times a phase in CPU seconds at the reference speed.

    On a shared virtual machine a core's speed switches between levels
    about 1.5-2x apart, for seconds to minutes at a time, invisibly to the
    guest.  CPU time leaves out time the core is taken away, but not a
    slower core.  So while a phase runs, every ``interval`` CPU seconds a
    timer signal runs :func:`probe_s`; the phase's CPU time, less the
    probes', is multiplied by the mean of ``REF_PROBE_S / probe`` over
    those probes and a few just before and after the phase.  Samples are
    spaced evenly in CPU time, so the mean of the speeds (not of the probe
    times) is the right weight.  With ``interval=None`` only the probes
    around the phase are taken.
    """

    EDGE_PROBES = 3
    #: CPU seconds between probes inside a phase.
    INTERVAL = 0.1

    def __init__(self, interval=INTERVAL) -> None:
        self.interval = interval
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_s())

    def _edge(self) -> None:
        self.samples.extend(probe_s() for _ in range(self.EDGE_PROBES))

    def measure(self, fn) -> dict:
        """Run *fn*; its scaled CPU seconds and the raw figures behind them."""
        self.samples = []
        self._edge()
        edge = len(self.samples)
        if self.interval:
            previous = signal.signal(signal.SIGPROF, self._tick)
        w0, t0 = time.perf_counter(), time.thread_time()
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            fn()
        finally:
            if self.interval:
                signal.setitimer(signal.ITIMER_PROF, 0)
            t1, w1 = time.thread_time(), time.perf_counter()
            if self.interval:
                signal.signal(signal.SIGPROF, previous)
        inside = sum(self.samples[edge:])
        self._edge()
        cpu = t1 - t0 - inside
        speed = sum(REF_PROBE_S / p for p in self.samples) / len(self.samples)
        return {"s": cpu * speed, "cpu_s": cpu, "wall_s": w1 - w0, "speed": speed,
                "probes": len(self.samples)}


#: Probing stops after this many CPUs, so a many-core host stays quick.
MAX_PROBED_CPUS = 8


def fastest_cpu():
    """The allowed CPU that runs a short loop fastest right now, or ``None``
    where affinity cannot be set.

    On a shared host each core's speed depends on what else runs on it; it
    changes over seconds to minutes, independently per core.  Probing just
    before a repetition and pinning it there keeps that interference out of
    the measurement as far as the host allows.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    timings = []
    try:
        for cpu in allowed[:MAX_PROBED_CPUS]:
            os.sched_setaffinity(0, {cpu})
            timings.append((sorted(loop_ms(60_000) for _ in range(3))[1], cpu))
    finally:
        os.sched_setaffinity(0, allowed)
    return min(timings)[1]


def fingerprint() -> dict:
    import numpy

    ident = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }
    ident["host_id"] = hashlib.sha256(repr(sorted(ident.items())).encode()).hexdigest()[:12]
    ident["calibration_ms"] = calibration_ms()
    return ident
