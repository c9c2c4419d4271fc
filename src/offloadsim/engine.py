"""Deterministic discrete-event core: integer-ms clock, ordered event queue,
named per-entity random streams, an append-only trace of the rows that event
handlers record, the count rule every layer validates its counts with, and
the left-to-right sum that every replayed total is added with.

Time is an integer count of milliseconds. Events dequeue in (time, seq)
order, where seq is the insertion counter, so replays are bit-identical
for a fixed configuration and root seed.

The queue is bucketed by time, a calendar queue keyed by the integer-ms
clock (Brown, "Calendar queues", CACM 31(10), 1988): a dict maps each
pending time to a list of its events, and a heap holds the distinct times.
Many events share a millisecond, so the heap work is paid per distinct
time, not per event. The order is still (time, seq): the heap yields the
times in order, and seq rises with every schedule call, so appending keeps
each list in seq order.

`Simulator.schedule` is the one home of the event checks: it refuses a
time that is not a non-negative int and a kind that is not an `EventKind`,
then a time before the clock, and only then builds the `Event`, a slotted
record whose `__init__` only assigns. A refused call queues nothing and
takes no seq.

`EventKind` hashes by identity. `Enum.__hash__` hashes the member name in
Python code, and the handler lookup of every dispatched event paid for it.
Enum members are singletons, so identity is equality for them, and member
names hash differently from one process to the next anyway, so no replay
can depend on either hash.

Each `RngStream` is a PCG64 generator seeded by numpy's `SeedSequence` from
one uint32 entropy array: the root seed taken mod 2**64, as its
little-endian 32-bit words (one word below 2**32, two from there on), then
the first 16 bytes of the SHA-256 of the UTF-8 label as four little-endian
words. That is the pool numpy builds from the int list
`[root_seed mod 2**64, *words]`, since it splits each int into the same
words; the array form spares its per-int coercion. numpy promises no
stream stability across releases (NEP 19), so `tests/test_engine.py`
checks the state against that list form.

A stream's draws fall in two groups. The scalar `uniform` and `exponential`
draws each take one word, a uniform in [0, 1), from a block of WORD_BLOCK
words that one `Generator.random(WORD_BLOCK)` call refills when it is
empty, so they do not pay numpy's per-call price one draw at a time. An
exponential is the word's inversion, `scale * -log1p(-u)` (Devroye,
"Non-Uniform Random Variate Generation", 1986, II.2), bit for bit numpy's
`standard_exponential(method="inv")` times scale: numpy's default ziggurat
takes a varying number of words per draw, so it cannot be served from a
block. On a stream that draws only these, draw k is computed from word k,
in call order. Every other draw (`normal`, `standard_normal`,
`normals_then_uniform`, `integer_array`, `permutation`) reads the generator
directly, after the words the block holds. No stream of the program mixes
the groups: the type, arrival and set-up streams draw only from the block,
the site, act, sl, init and auction streams only directly. A stream that
mixed them would keep every draw's law, but its interleaving would depend
on WORD_BLOCK. The generator is never rewound past unused words with
`PCG64.advance`: numpy's bounded-integer draws keep half a word buffered,
which `advance` drops, so a rewind is not exact for every mix of draws.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import heapq
import json
import math
import numbers
import operator
from enum import Enum
from typing import Callable, Optional

import numpy as np

SimTime = int  # non-negative milliseconds
WORD_BLOCK = 16  # uniforms an RngStream draws at once for its scalar draws


def require_count(name: str, value, least: int):
    """Refuse `value`, reported as `name`, unless it is an integer >= least (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def left_sum(values):
    """The values added left to right from int 0, as built-in sum() adds them
    on Python 3.11. From 3.12 on sum() compensates float rounding, so a
    replay that summed with it would depend on the interpreter."""
    return functools.reduce(operator.add, values, 0)


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
    """A queued event: a record that `Simulator.schedule` builds after its checks."""

    __slots__ = ("time", "kind", "payload", "seq")

    def __init__(self, time: SimTime, kind: EventKind, payload: dict, seq: int):
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

    The entropy is the root seed mod 2**64 as one or two little-endian
    uint32 words, then the first four little-endian words of
    sha256(entity_label) (module docstring). The root must be an integer
    (not a bool; a numpy integer is taken as its Python int) and the label
    a non-empty str, or a ValueError names the argument.

    `uniform` and `exponential` each take the next word of the stream's
    block of WORD_BLOCK uniforms; every other draw reads the generator
    directly, after the words the block holds (module docstring). Each
    stream of the program draws from one group only, since a stream that
    mixed them would interleave its draws by WORD_BLOCK. `draw_counter`
    counts one per served draw either way.
    """

    __slots__ = ("draw_counter", "_gen", "_words")

    def __init__(self, root_seed: int, entity_label: str):
        if isinstance(root_seed, bool):
            raise ValueError(f"root_seed must be an integer, got {root_seed!r}")
        try:
            root = operator.index(root_seed) & 0xFFFFFFFFFFFFFFFF
        except TypeError:
            raise ValueError(f"root_seed must be an integer, got {root_seed!r}") from None
        if not isinstance(entity_label, str) or not entity_label:
            raise ValueError(f"entity_label must be a non-empty str, got {entity_label!r}")
        self.draw_counter = 0
        digest = hashlib.sha256(entity_label.encode("utf-8")).digest()
        entropy = np.frombuffer(root.to_bytes(8 if root >> 32 else 4, "little") + digest[:16], dtype="<u4")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        self._words: list[float] = []  # the block's unused words, the next one last

    def _refill(self) -> float:
        """Draw a new block of WORD_BLOCK uniforms and take its first word."""
        self._words = self._gen.random(WORD_BLOCK)[::-1].tolist()
        return self._words.pop()

    # uniform and normal spell out the affine maps that Generator.uniform and
    # Generator.normal compute in C, so the draws are bit-identical to theirs
    # on the same words without numpy's per-call argument broadcasting; each
    # refuses a bad argument with a ValueError before it draws. A scalar draw
    # takes the block's next word, the last item of _words, or refills it.

    def uniform(self, low=0.0, high=1.0):
        if low == 0.0 and high == 1.0:  # the map is the identity on [0, 1)
            self.draw_counter += 1
            try:
                return self._words.pop()
            except IndexError:
                return self._refill()
        if not 0.0 <= high - low < math.inf:
            raise ValueError(f"uniform needs finite high >= low, got [{low}, {high})")
        self.draw_counter += 1
        try:
            u = self._words.pop()
        except IndexError:
            u = self._refill()
        return low + (high - low) * u

    def exponential(self, scale):
        if not 0.0 <= scale < math.inf:
            raise ValueError(f"exponential needs finite scale >= 0, got {scale}")
        self.draw_counter += 1
        try:
            u = self._words.pop()
        except IndexError:
            u = self._refill()
        return scale * -math.log1p(-u)

    def normal(self, loc=0.0, scale=1.0):
        if not 0.0 <= scale < math.inf:
            raise ValueError(f"normal needs finite scale >= 0, got {scale}")
        self.draw_counter += 1
        return loc + scale * self._gen.standard_normal()

    # the rest count a draw once numpy has taken its arguments, so a call it
    # refuses leaves the counter as it was

    def standard_normal(self, size=None, out=None):
        draws = self._gen.standard_normal(size, out=out)
        self.draw_counter += 1
        return draws

    def normals_then_uniform(self, out: np.ndarray) -> float:
        """Standard normals written into the float64 array `out`, then one
        uniform in [0, 1), both read from the generator directly: the draws
        of `Generator.standard_normal(out=out)` and `Generator.random()`, in
        that order, in one call. It counts as two draws."""
        self._gen.standard_normal(out=out)
        self.draw_counter += 2
        return self._gen.random()

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

    `run_until` dispatches the earliest time's list in place. An event that
    a handler schedules at the current time joins the end of that list and
    runs in the same call; one at a later time gets its own list. If a
    handler raises, the raising event and every event dispatched before it
    are gone, the rest stay queued, and `clock` is the raising event's time,
    so the next `run_until` goes on with the event after it.
    """

    def __init__(self, trace: Optional[TraceRecorder] = None):
        self.clock: SimTime = 0
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._buckets: dict[SimTime, list[Event]] = {}  # pending events of each time, in seq order
        self._times: list[SimTime] = []  # heap of the keys of _buckets
        self._seq = 0
        self._handlers: dict[EventKind, Callable[["Simulator", Event], None]] = {}
        self._last_key = (-1, -1)

    def on(self, kind: EventKind, handler: Callable[["Simulator", Event], None]):
        self._handlers[kind] = handler

    def schedule(self, time: SimTime, kind: EventKind, **payload) -> Event:
        if type(time) is not int or time < 0:  # a bool is not a time
            raise ValueError(f"event time must be a non-negative int, got {time!r}")
        if not isinstance(kind, EventKind):
            raise ValueError(f"event kind must be an EventKind, got {kind!r}")
        if time < self.clock:
            raise PastEventError(f"cannot schedule {kind.value} at t={time} before clock t={self.clock}")
        event = Event(time, kind, payload, self._seq)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def run_until(self, t_end: SimTime):
        """Process all events with time <= t_end in order; clock ends at t_end."""
        if type(t_end) is not int:  # a bool is not a time
            raise ValueError(f"t_end must be an int, got {t_end!r}")
        if t_end < self.clock:
            raise PastEventError(f"t_end={t_end} is before clock t={self.clock}")
        times, buckets, handlers = self._times, self._buckets, self._handlers
        while times and times[0] <= t_end:
            time = times[0]
            bucket = buckets[time]
            self.clock = time
            try:
                for event in bucket:  # sees the events handlers append to it
                    key = (time, event.seq)
                    assert key > self._last_key, f"event order violated: {key} after {self._last_key}"
                    self._last_key = key
                    handler = handlers.get(event.kind)
                    if handler is not None:
                        handler(self, event)
            except BaseException:
                del bucket[: bucket.index(event) + 1]
                raise
            heapq.heappop(times)
            del buckets[time]
        self.clock = t_end
