"""Deterministic discrete-event core: integer-ms clock, ordered event queue,
named per-entity random streams, an append-only trace of the rows that event
handlers record, and the count rule every layer validates its counts with.

Time is an integer count of milliseconds. Events dequeue in (time, seq)
order, where seq is the insertion counter, so replays are bit-identical
for a fixed configuration and root seed.

`EventKind` hashes by identity. `Enum.__hash__` hashes the member name in
Python code, and the handler lookup of every dispatched event paid for it.
Enum members are singletons, so identity is equality for them, and member
names hash differently from one process to the next anyway, so no replay
can depend on either hash.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import json
import math
import numbers
from enum import Enum
from typing import Callable, Optional

import numpy as np

SimTime = int  # non-negative milliseconds


def require_count(name: str, value, least: int):
    """Refuse `value`, reported as `name`, unless it is an integer >= least (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class EventKind(Enum):
    SERVICE_ARRIVAL = "ServiceArrival"
    AUCTION_CLEAR = "AuctionClear"
    EXECUTION_COMPLETE = "ExecutionComplete"
    DEADLINE_EXPIRY = "DeadlineExpiry"
    UTILIZATION_REPORT_ARRIVAL = "UtilizationReportArrival"

    __hash__ = object.__hash__


class PastEventError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class Event:
    __slots__ = ("time", "kind", "payload", "seq")

    def __init__(self, time: SimTime, kind: EventKind, payload: dict, seq: int):
        if type(time) is not int or time < 0:  # a bool is not a time
            raise ValueError(f"event time must be a non-negative int, got {time!r}")
        if not isinstance(kind, EventKind):
            raise ValueError(f"event kind must be an EventKind, got {kind!r}")
        if not isinstance(payload, dict):
            raise ValueError("event payload must be a dict")
        self.time = time
        self.kind = kind
        self.payload = payload
        self.seq = seq

    def __repr__(self):
        return f"Event(t={self.time}, {self.kind.value}, seq={self.seq})"


class RngStream:
    """A named, independently seeded random stream for one simulation entity.

    Streams with the same (root_seed, entity_label) reproduce the same draw
    sequence; distinct labels give statistically independent sequences.
    Adding an entity therefore never perturbs the draws of existing ones.
    """

    __slots__ = ("draw_counter", "_gen")

    def __init__(self, root_seed: int, entity_label: str):
        if not entity_label:
            raise ValueError("entity_label must be non-empty")
        self.draw_counter = 0
        digest = hashlib.sha256(entity_label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([root_seed & 0xFFFFFFFFFFFFFFFF, *words])))

    # uniform and normal spell out the affine maps that Generator.uniform and
    # Generator.normal compute in C, so the draws are bit-identical to theirs
    # without numpy's per-call argument broadcasting; they keep its argument
    # checks, raised as ValueError.

    def uniform(self, low=0.0, high=1.0):
        if not 0.0 <= high - low < math.inf:
            raise ValueError(f"uniform needs finite high >= low, got [{low}, {high})")
        self.draw_counter += 1
        return low + (high - low) * self._gen.random()

    def exponential(self, scale):
        if not scale >= 0.0:  # numpy's own check lets NaN through
            raise ValueError(f"exponential needs scale >= 0, got {scale}")
        self.draw_counter += 1
        return float(self._gen.exponential(scale))

    def normal(self, loc=0.0, scale=1.0):
        if not scale >= 0.0:
            raise ValueError(f"normal needs scale >= 0, got {scale}")
        self.draw_counter += 1
        return loc + scale * self._gen.standard_normal()

    # the rest count a draw once numpy has taken its arguments, so a call it
    # refuses leaves the counter as it was

    def standard_normal(self, size=None):
        draws = self._gen.standard_normal(size)
        self.draw_counter += 1
        return draws

    def normals_then_uniform(self, out: np.ndarray) -> float:
        """Standard normals written into the float64 array `out`, then one
        uniform in [0, 1): the two draws of `standard_normal(out.shape)` and
        `uniform()`, in that order, in one call. `Generator.random()` is
        `uniform()`'s draw, since its affine map is the identity on [0, 1)."""
        self._gen.standard_normal(out=out)
        self.draw_counter += 2
        return self._gen.random()

    def integers(self, low, high):
        value = int(self._gen.integers(low, high))
        self.draw_counter += 1
        return value

    def integer_array(self, low, high, size) -> np.ndarray:
        draws = self._gen.integers(low, high, size=size)
        self.draw_counter += 1
        return draws

    def permutation(self, n: int) -> np.ndarray:
        draws = self._gen.permutation(n)
        self.draw_counter += 1
        return draws


def derive_stream(root_seed: int, entity_label: str) -> RngStream:
    """Derive the deterministic stream for (root_seed, entity_label)."""
    return RngStream(root_seed, entity_label)


class TraceRecorder:
    """Append-only run trace.

    One row per observable effect that a handler records. Attribute values are
    stored as strings (floats via repr), and the CSV's attrs column holds
    them as one JSON object, so a serialize/parse round trip is lossless for
    any keys and values and metrics recomputed from the CSV match exactly.
    """

    COLUMNS = ("time_ms", "kind", "entity", "attrs")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rows: list[tuple[int, str, str, dict[str, str]]] = []

    def record(self, time: SimTime, kind: str, entity: str, /, **attrs):
        if self.enabled:
            self.rows.append((time, kind, entity, {k: _fmt(v) for k, v in attrs.items()}))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for time, kind, entity, attrs in self.rows:
                writer.writerow([time, kind, entity, json.dumps(attrs)])

    @staticmethod
    def read_csv(path) -> list[tuple[int, str, str, dict[str, str]]]:
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and tuple(header) != TraceRecorder.COLUMNS:
                raise ValueError(f"unexpected trace header: {header}")
            for rec in reader:
                time, kind, entity, attrs = rec
                rows.append((int(time), kind, entity, json.loads(attrs)))
        return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Simulator:
    """Single-threaded event loop.

    Handlers are registered per event kind and invoked in strict (time, seq)
    order. The loop records nothing itself: handlers add the effect rows a
    run keeps via sim.trace.record.
    """

    def __init__(self, trace: Optional[TraceRecorder] = None):
        self.clock: SimTime = 0
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._handlers: dict[EventKind, Callable[["Simulator", Event], None]] = {}
        self._last_key = (-1, -1)

    def on(self, kind: EventKind, handler: Callable[["Simulator", Event], None]):
        self._handlers[kind] = handler

    def schedule(self, time: SimTime, kind: EventKind, **payload) -> Event:
        if time < self.clock:
            raise PastEventError(f"cannot schedule {kind.value} at t={time} before clock t={self.clock}")
        event = Event(time, kind, payload, self._seq)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def run_until(self, t_end: SimTime):
        """Process all events with time <= t_end in order; clock ends at t_end."""
        if t_end < self.clock:
            raise PastEventError(f"t_end={t_end} is before clock t={self.clock}")
        heap, handlers = self._heap, self._handlers
        while heap and heap[0][0] <= t_end:
            time, seq, event = heapq.heappop(heap)
            key = (time, seq)
            assert key > self._last_key, f"event order violated: {key} after {self._last_key}"
            self._last_key = key
            self.clock = time
            handler = handlers.get(event.kind)
            if handler is not None:
                handler(self, event)
        self.clock = t_end
