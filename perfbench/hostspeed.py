"""Host speed: a fixed interpreter kernel, and ways to time it around work.

On a shared host the same work can take twice as long from one minute to
the next, and the speed changes within seconds; CPU time swells with wall
time. Dividing a measured time by the kernel's time measured at the same
moment cancels that host-wide speed change, and multiplying by
``HOST_KERNEL_REF_S`` turns the ratio back into reference-host seconds.

Only stdlib modules that aircell loads anyway are imported here, so a fresh
interpreter can load this module before timing the import of aircell.
"""

from __future__ import annotations

import gc
import math
import signal
from dataclasses import dataclass
from time import perf_counter

# About the seconds ``host_kernel`` takes on the reference host (2-vCPU Xeon
# VM, Python 3.11.7) in its quietest minutes. Only the unit of rescaled times
# depends on it; changing it moves every run's figures by the same factor.
HOST_KERNEL_REF_S = 0.004
PROBE_INTERVAL_S = 0.1
BRACKET_SAMPLES = 5


@dataclass(frozen=True)
class _Record:
    key: str
    slot: int
    value: float


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key, self.value, self.next = key, value, nxt

    def weight(self, scale: float) -> float:
        return self.value * scale


def host_kernel() -> float:
    """Seconds for a fixed mix of interpreter work that touches no aircell code.

    The mix (arithmetic, small tuples, string keys, objects with methods,
    frozen dataclasses, dict lookups, sorts) is the kind of work the
    simulator and the planners do.
    """
    t0 = perf_counter()
    counts: dict[int, int] = {}
    rows = []
    x = 0.0
    for i in range(4_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, i & 31, x))
        x = 0.5 * x + math.sqrt(i)
    rows.sort()
    sum(r[2] for r in rows if r[1] > 3)
    table: dict[str, _Node] = {}
    head = None
    for i in range(3_000):
        name = f"k{(i * 7919) % 20011}"
        head = _Node(name, float(i), head)
        table[name] = head
    total = 0.0
    for name in sorted(table):
        total += table[name].weight(0.5)
    records = []
    for i in range(2_000):
        record = _Record(f"o{i % 97}", (i * 31) % 211, float(i))
        if record.slot % 3:
            records.append(record)
    min(records, key=lambda r: (r.slot, r.key))
    return perf_counter() - t0


class HostProbe:
    """Samples the host's speed while a repetition runs, and hides the samples.

    A timer signal runs ``host_kernel`` every ``PROBE_INTERVAL_S`` (and once
    on entry), between two bytecodes of whatever the repetition is doing,
    with the garbage collector off so that the kernel's allocations do not
    trigger a collection of the repetition's heap. ``clock`` is
    ``perf_counter`` less the time spent in the kernel, so the repetition's
    own stamps exclude it. Tracing is not probed: the kernel would land in
    whichever span was open.
    """

    def __init__(self):
        self.paused = 0.0
        self.kernel_s: list[float] = []
        self._previous = None
        self._sampling = False

    def clock(self) -> float:
        return perf_counter() - self.paused

    def mean_kernel_s(self) -> float:
        return sum(self.kernel_s) / len(self.kernel_s)

    def _sample(self, *_) -> None:
        if self._sampling:  # a slow kernel outlasted the interval
            return
        self._sampling = True
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        self.kernel_s.append(host_kernel())
        if collecting:
            gc.enable()
        self.paused += perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def bracket_kernel_s() -> float:
    """Mean of ``BRACKET_SAMPLES`` kernel runs, to time just before and after work
    that is not probed."""
    return sum(host_kernel() for _ in range(BRACKET_SAMPLES)) / BRACKET_SAMPLES
