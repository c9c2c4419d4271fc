import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from offloadsim.engine import (
    Event,
    EventKind,
    PastEventError,
    Simulator,
    TraceRecorder,
    derive_stream,
)


def collect(sim):
    seen = []
    for kind in EventKind:
        sim.on(kind, lambda s, e, seen=seen: seen.append((e.time, e.seq, e.kind)))
    return seen


def test_dequeue_in_time_order():
    sim = Simulator()
    seen = collect(sim)
    sim.schedule(5, EventKind.SERVICE_ARRIVAL)
    sim.schedule(3, EventKind.SERVICE_ARRIVAL)
    sim.run_until(10)
    assert [t for t, _, _ in seen] == [3, 5]


def test_ties_broken_by_insertion_seq():
    sim = Simulator()
    seen = collect(sim)
    a = sim.schedule(7, EventKind.SERVICE_ARRIVAL, tag="A")
    b = sim.schedule(7, EventKind.SERVICE_ARRIVAL, tag="B")
    sim.run_until(7)
    assert [s for _, s, _ in seen] == [a.seq, b.seq]
    assert a.seq < b.seq


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(4, EventKind.SERVICE_ARRIVAL)
    sim.run_until(4)
    assert sim.clock == 4
    with pytest.raises(PastEventError):
        sim.schedule(2, EventKind.SERVICE_ARRIVAL)


def test_schedule_rejects_non_integer_time():
    sim = Simulator()
    seen = collect(sim)
    with pytest.raises(ValueError):
        sim.schedule(2.5, EventKind.SERVICE_ARRIVAL)
    sim.run_until(10)
    assert seen == []


def test_run_until_empty_queue_advances_clock():
    sim = Simulator(trace=TraceRecorder())
    sim.run_until(100)
    assert sim.clock == 100
    assert sim.trace.rows == []


def test_disabled_trace_records_nothing():
    trace = TraceRecorder(enabled=False)
    trace.record(1, "effect", "veh0", price=2.5)
    assert trace.rows == []
    sim = Simulator()  # the default trace is disabled
    sim.schedule(10, EventKind.SERVICE_ARRIVAL, entity="veh0")
    sim.run_until(10)
    assert sim.clock == 10 and sim.trace.rows == []


def test_only_handlers_write_the_trace():
    sim = Simulator(trace=TraceRecorder())
    sim.on(EventKind.SERVICE_ARRIVAL, lambda s, e: s.trace.record(s.clock, "admit", e.payload["entity"], site=3))
    sim.schedule(10, EventKind.SERVICE_ARRIVAL, entity="veh0")
    sim.schedule(12, EventKind.AUCTION_CLEAR, entity="aca")  # no handler, so no row
    sim.run_until(20)
    assert sim.trace.rows == [(10, "admit", "veh0", {"site": "3"})]


def test_clock_monotone_across_run_until_calls():
    sim = Simulator()
    sim.schedule(3, EventKind.SERVICE_ARRIVAL)
    sim.run_until(5)
    sim.schedule(6, EventKind.SERVICE_ARRIVAL)
    sim.run_until(8)
    assert sim.clock == 8
    with pytest.raises(PastEventError):
        sim.run_until(7)


def test_event_payload_validation():
    with pytest.raises(ValueError):
        Event(-1, EventKind.SERVICE_ARRIVAL, {}, 0)
    with pytest.raises(ValueError):
        Event(True, EventKind.SERVICE_ARRIVAL, {}, 0)  # a bool is not a time, as it is not a count
    with pytest.raises(ValueError):
        Event(0, "ServiceArrival", {}, 0)
    with pytest.raises(ValueError):
        Event(0, EventKind.SERVICE_ARRIVAL, None, 0)


def drive_seeded_run(seed):
    """Random event cascade; returns the trace rows."""
    sim = Simulator(trace=TraceRecorder())
    rng = derive_stream(seed, "driver")

    def on_arrival(s, e):
        s.trace.record(s.clock, "effect", e.payload["entity"], draw=rng.uniform())
        if e.payload["depth"] < 3:
            s.schedule(
                s.clock + 1 + int(rng.uniform(0, 10)),
                EventKind.SERVICE_ARRIVAL,
                entity=e.payload["entity"],
                depth=e.payload["depth"] + 1,
            )

    sim.on(EventKind.SERVICE_ARRIVAL, on_arrival)
    for v in range(5):
        sim.schedule(int(rng.uniform(0, 20)), EventKind.SERVICE_ARRIVAL, entity=f"veh{v}", depth=0)
    sim.run_until(200)
    return sim.trace.rows


def test_replay_is_bit_identical():
    assert drive_seeded_run(42) == drive_seeded_run(42)
    assert drive_seeded_run(42) != drive_seeded_run(43)


def test_trace_csv_round_trip(tmp_path):
    sim = Simulator(trace=TraceRecorder())
    sim.schedule(1, EventKind.AUCTION_CLEAR, entity="aca")
    sim.run_until(1)
    sim.trace.record(1, "AuctionClear", "aca", type="F1", price=2.5, winners="a b", note="x=y", empty="")
    path = tmp_path / "trace.csv"
    sim.trace.write_csv(path)
    assert TraceRecorder.read_csv(path) == sim.trace.rows


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(attrs=st.dictionaries(st.text(), st.text(), max_size=6))
@example(attrs={"time": "1", "kind": "k", "entity": "e", "self": "s", "": "\r\n,\""})
def test_trace_csv_round_trip_any_text(tmp_path, attrs):
    trace = TraceRecorder()
    trace.record(3, "effect", "veh0", **attrs)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert TraceRecorder.read_csv(path) == [(3, "effect", "veh0", attrs)]


def test_same_label_reproduces_draws():
    a = derive_stream(42, "vehicle/0")
    b = derive_stream(42, "vehicle/0")
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]
    assert a.draw_counter == 100


def test_distinct_labels_are_independent():
    a = derive_stream(42, "vehicle/0")
    b = derive_stream(42, "vehicle/1")
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_uniform_sample_mean():
    # law-of-large-numbers check on the generator behind derive_stream
    s = derive_stream(42, "site/edge")
    mean = sum(s.uniform() for _ in range(100_000)) / 100_000
    assert 0.49 <= mean <= 0.51


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        derive_stream(42, "")


def twin_generator(stream):
    """A numpy Generator in the same state as `stream`'s, drawn from apart."""
    return copy.deepcopy(stream._gen)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.5, 2.0), (0, 10), (-3.0, 7.25), (1e-3, 1e6), (4.0, 4.0)])
def test_uniform_is_generator_uniform_bit_for_bit(low, high):
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = [s.uniform(low, high) for _ in range(10_000)]
    want = [ref.uniform(low, high) for _ in range(10_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert s.draw_counter == 10_000


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (100, 5), (0.0, 0.3), (-2.5, 1e-3), (7.0, 0.0)])
def test_normal_is_generator_normal_bit_for_bit(loc, scale):
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = [s.normal(loc, scale) for _ in range(10_000)]
    want = [ref.normal(loc, scale) for _ in range(10_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert s.draw_counter == 10_000


def test_normals_then_uniform_is_standard_normal_then_uniform_bit_for_bit():
    # drawn into rows of one array, as the learning fleet draws each agent's
    # noise and then its eta coin; the twin draws the same two per row
    s = derive_stream(5, "draws")
    twin = derive_stream(5, "draws")
    got = np.empty((1000, 4))
    coins = [s.normals_then_uniform(row) for row in got]
    want = np.empty_like(got)
    want_coins = []
    for row in want:
        row[:] = twin.standard_normal(4)
        want_coins.append(twin.uniform())
    assert got.tobytes() == want.tobytes()
    assert np.array(coins).tobytes() == np.array(want_coins).tobytes()
    assert all(type(coin) is float for coin in coins)
    assert s.draw_counter == twin.draw_counter == 2000
    assert s.standard_normal(4).tobytes() == twin.standard_normal(4).tobytes()


@pytest.mark.parametrize("scale", [1.0, 33.3, 0.004, 1e-9, 0.0])
def test_exponential_is_generator_exponential_bit_for_bit(scale):
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = [s.exponential(scale) for _ in range(10_000)]
    want = [ref.exponential(scale) for _ in range(10_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert s.draw_counter == 10_000


def test_draw_arguments_checked_before_drawing():
    s = derive_stream(5, "draws")
    for bad in [(1.0, 0.0), (0.0, float("inf")), (0.0, float("nan"))]:
        with pytest.raises(ValueError):
            s.uniform(*bad)
    for bad in [-1.0, float("nan")]:
        with pytest.raises(ValueError):
            s.normal(0.0, bad)
        with pytest.raises(ValueError):
            s.exponential(bad)
    # numpy's own refusals
    with pytest.raises(ValueError):
        s.standard_normal(-1)
    # a row that is not one float64 block: the wrong dtype, a strided row
    # (each other entry of a longer one) and a column of a matrix
    with pytest.raises(TypeError):
        s.normals_then_uniform(np.empty(3, dtype=np.float32))
    with pytest.raises(ValueError):
        s.normals_then_uniform(np.empty(8)[::2])
    with pytest.raises(ValueError):
        s.normals_then_uniform(np.empty((3, 4))[:, 0])
    with pytest.raises(ValueError):
        s.integers(5, 5)
    with pytest.raises(ValueError):
        s.integer_array(3, 1, 4)
    assert s.draw_counter == 0
    assert s.uniform() == twin_generator(derive_stream(5, "draws")).uniform()
