"""Host-speed sampling, to take the host's changing speed out of timings.

The benchmark shares a few cores of a host with other work. The same unit
of work can take twice as long from one minute to the next, because a
neighbour's load slows this process down. A ``Sampler`` measures that
slow-down while the program runs: every ``PERIOD_S`` a ``SIGALRM`` handler
times a fixed reference snippet, in this process and thread, between the
program's own bytecodes. A phase's host-normalised seconds are its wall
seconds times ``NOMINAL_S`` over the reference's mean time during the
phase: the time the phase would take on a host where the reference takes
``NOMINAL_S``.

The reference mimics the program's hottest loop: a scan for equal frozen
dataclass locations over a dict, as ``WorldState.tags_at`` does, plus
JSON encoding of small records, as the trace writer does. It uses none of
the program's objects, so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass

#: Time between two reference samples; the samples cost about 2% of it.
PERIOD_S = 0.025
#: About the reference's median time on a 2-vCPU VM under Python 3.11.
NOMINAL_S = 0.0005


@dataclass(frozen=True)
class _Place:
    site: str
    sub: str


_PLACES = {i: _Place(f"OR-{i % 10}", ("ToolTray", "RoomSpace", "Cavity")[i % 3])
           for i in range(1000)}
_WANTED = _Place("OR-3", "ToolTray")


def reference() -> int:
    """The fixed snippet whose time tracks the host's speed."""
    found = [i for i, place in _PLACES.items() if place == _WANTED]
    size = 0
    for t in range(20):
        size += len(json.dumps({"t": t, "type": "msg", "case": "C-1",
                                "tags": found[:2], "x": t * 0.5}, sort_keys=True))
    return size


class Sampler:
    """Times ``reference`` every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        self.seconds += time.perf_counter() - start
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.samples

    def scale(self, since: tuple[float, int]) -> float:
        """``NOMINAL_S`` over the reference's mean time since ``mark``."""
        if self.samples == since[1]:  # a phase shorter than one period
            self._sample(None, None)
        return NOMINAL_S * (self.samples - since[1]) / (self.seconds - since[0])
