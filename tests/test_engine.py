import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from offloadsim import engine, gametheory, operating, workload
from offloadsim.agents import utility
from offloadsim.engine import (
    WORD_BLOCK,
    EventKind,
    PastEventError,
    RngStream,
    Simulator,
    TraceRecorder,
    derive_stream,
    left_sum,
)

from oracles import reference_generator


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


def test_schedule_refuses_a_bad_kind_before_the_past_check():
    sim = Simulator()
    seen = collect(sim)
    sim.run_until(4)
    with pytest.raises(ValueError, match="kind") as refused:
        sim.schedule(2, "ServiceArrival")
    assert type(refused.value) is ValueError  # not the PastEventError of a valid event
    after = sim.schedule(5, EventKind.SERVICE_ARRIVAL)
    assert after.seq == 0  # the refused call took no seq
    sim.run_until(10)
    assert seen == [(5, 0, EventKind.SERVICE_ARRIVAL)]


@pytest.mark.parametrize("time", [None, "3", 3.0, True, -1])
def test_schedule_refuses_a_time_that_is_not_a_non_negative_int(time):
    sim = Simulator()
    seen = collect(sim)
    with pytest.raises(ValueError, match="time"):
        sim.schedule(time, EventKind.SERVICE_ARRIVAL)
    assert sim.schedule(3, EventKind.SERVICE_ARRIVAL).seq == 0
    sim.run_until(10)
    assert seen == [(3, 0, EventKind.SERVICE_ARRIVAL)]


@pytest.mark.parametrize("t_end", [5.5, 6.0, True, None, "6"])
def test_run_until_refuses_an_end_that_is_not_an_int(t_end):
    sim = Simulator()
    seen = collect(sim)
    sim.schedule(3, EventKind.SERVICE_ARRIVAL)
    sim.run_until(2)
    with pytest.raises(ValueError, match="t_end"):
        sim.run_until(t_end)
    assert sim.clock == 2 and seen == []  # neither the clock nor the queue moved
    sim.run_until(6)
    assert sim.clock == 6 and [t for t, _, _ in seen] == [3]


def test_a_raising_handler_leaves_the_rest_queued():
    sim = Simulator()
    seen = []

    def handler(s, e):
        seen.append(e.payload["tag"])
        if e.payload["tag"] == "b":
            raise RuntimeError("handler failed")

    sim.on(EventKind.SERVICE_ARRIVAL, handler)
    for tag in "abc":
        sim.schedule(7, EventKind.SERVICE_ARRIVAL, tag=tag)
    sim.schedule(9, EventKind.SERVICE_ARRIVAL, tag="d")
    with pytest.raises(RuntimeError):
        sim.run_until(10)
    assert sim.clock == 7
    assert seen == ["a", "b"]
    sim.run_until(10)
    assert seen == ["a", "b", "c", "d"]
    assert sim.clock == 10


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(st.integers(0, 12), max_size=25),
    cascade=st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=40),
    calls=st.lists(
        st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=3)),
        min_size=1,
        max_size=6,
    ),
)
def test_dispatch_order_is_sorted_time_seq_across_calls(initial, cascade, calls):
    # Handlers schedule at the current time and later; between calls events
    # are scheduled at the clock and later. After each run_until(t) the
    # dispatched keys are every scheduled key with time <= t, sorted, where
    # a key is (time, the count of schedule calls before it).
    sim = Simulator()
    kinds = list(EventKind)
    keys, dispatched = [], []

    def schedule(time):
        event = sim.schedule(time, kinds[len(keys) % len(kinds)])
        assert event.seq == len(keys)
        keys.append((time, len(keys)))

    def handler(s, e):
        assert s.clock == e.time
        dispatched.append((e.time, e.seq))
        i = len(dispatched) - 1
        for offset in cascade[i] if i < len(cascade) else ():
            schedule(s.clock + offset)

    for kind in kinds:
        sim.on(kind, handler)
    for time in initial:
        schedule(time)
    t_end = 0
    for step, offsets in calls:
        t_end += step
        sim.run_until(t_end)
        assert sim.clock == t_end
        assert dispatched == sorted(key for key in keys if key[0] <= t_end)
        for offset in offsets:
            schedule(t_end + offset)


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
    for time, kind in [
        (-1, EventKind.SERVICE_ARRIVAL),
        (True, EventKind.SERVICE_ARRIVAL),  # a bool is not a time, as it is not a count
        (2.5, EventKind.SERVICE_ARRIVAL),
        (5, "ServiceArrival"),
    ]:
        sim = Simulator()
        sim.run_until(10)  # every refused time is before the clock too
        with pytest.raises(ValueError) as refused:
            sim.schedule(time, kind)
        assert type(refused.value) is ValueError  # refused before the past-time check
        assert sim._buckets == {} and sim._times == []
        assert sim.schedule(10, EventKind.SERVICE_ARRIVAL).seq == 0  # the refused call took no seq


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


def test_trace_csv_with_a_wrong_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,kind,entity,extra\n1,k,e,{}\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        TraceRecorder.read_csv(path)


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


@pytest.mark.parametrize("label", ["vehicle/0", "agent/m12/init", "véhicule/ü/€"])
@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**64 + 5])
def test_stream_state_is_the_documented_seed_sequence(root, label):
    # numpy promises no stream stability across releases (NEP 19): a release
    # that split the entropy ints differently would fail here
    assert RngStream(root, label)._gen.bit_generator.state == reference_generator(root, label).bit_generator.state


@pytest.mark.parametrize("root", [np.int64(5), np.uint64(2**64 - 1), np.int32(-1), np.uint32(2**32 - 1)])
def test_numpy_integer_root_is_its_python_int(root):
    want = reference_generator(int(root), "vehicle/0").bit_generator.state
    assert RngStream(root, "vehicle/0")._gen.bit_generator.state == want


@pytest.mark.parametrize(
    "root, label, name",
    [
        (1.5, "x", "root_seed"),
        (1.0, "x", "root_seed"),
        (np.float64(2.0), "x", "root_seed"),
        ("7", "x", "root_seed"),
        (None, "x", "root_seed"),
        (True, "x", "root_seed"),
        (False, "x", "root_seed"),
        (np.True_, "x", "root_seed"),
        (1, "", "entity_label"),
        (1, b"x", "entity_label"),
        (1, None, "entity_label"),
        (1, 3, "entity_label"),
    ],
)
def test_bad_seed_or_label_refused_before_hashing(monkeypatch, root, label, name):
    def no_hash(*args):
        raise AssertionError("hashed before the checks")

    monkeypatch.setattr(engine.hashlib, "sha256", no_hash)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        RngStream(root, label)


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


def test_default_uniform_is_generator_random_bit_for_bit():
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = [s.uniform() for _ in range(10_000)]
    want = [ref.random() for _ in range(10_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert s.draw_counter == 10_000
    # any other range still maps its draws
    mapped = [s.uniform(2.0, 5.0) for _ in range(1_000)]
    assert mapped == [2.0 + 3.0 * ref.random() for _ in range(1_000)]
    assert s.draw_counter == 11_000


@pytest.mark.parametrize(
    "low, high", [(5.0, 2.0), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)]
)
def test_uniform_refuses_a_bad_range(low, high):
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    with pytest.raises(ValueError, match="uniform needs"):
        s.uniform(low, high)
    assert s.draw_counter == 0
    assert s.uniform() == ref.random()  # nothing was drawn


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
    # noise and then its eta coin; the twin generator draws the same two per row
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = np.empty((1000, 4))
    coins = [s.normals_then_uniform(row) for row in got]
    want = np.empty_like(got)
    want_coins = []
    for row in want:
        row[:] = ref.standard_normal(4)
        want_coins.append(ref.random())
    assert got.tobytes() == want.tobytes()
    assert np.array(coins).tobytes() == np.array(want_coins).tobytes()
    assert all(type(coin) is float for coin in coins)
    assert s.draw_counter == 2000
    assert s.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()


def test_direct_draws_are_the_generators_own():
    # the auction's tie order, the behaviour model's minibatch indices and
    # the weight initialisation read the generator itself
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    for n in (1, 2, 7, 400):
        assert s.permutation(n).tobytes() == ref.permutation(n).tobytes()
        assert s.integer_array(0, n, 32).tobytes() == ref.integers(0, n, size=32).tobytes()
        out = np.empty((n, 3))
        s.standard_normal(out=out)
        assert out.tobytes() == ref.standard_normal((n, 3)).tobytes()
    assert s.draw_counter == 12


@pytest.mark.parametrize("scale", [1.0, 33.3, 0.004, 1e-9, 0.0])
def test_exponential_is_generator_exponential_bit_for_bit(scale):
    # by inversion: numpy's standard_exponential(method="inv"), one word per draw
    s = derive_stream(5, "draws")
    ref = twin_generator(s)
    got = [s.exponential(scale) for _ in range(10_000)]
    want = [scale * ref.standard_exponential(method="inv") for _ in range(10_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert s.draw_counter == 10_000


# calls each stream refuses before it draws
REFUSED = [
    ("uniform", (1.0, 0.0)),
    ("uniform", (0.0, math.inf)),
    ("uniform", (math.nan, 1.0)),
    ("exponential", (-1.0,)),
    ("exponential", (math.inf,)),
    ("exponential", (math.nan,)),
    ("normal", (0.0, math.inf)),
    ("normal", (0.0, -1.0)),
]

SCALAR_CALLS = st.one_of(
    st.just(("uniform", ())),
    st.tuples(
        st.just("uniform"), st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted).map(tuple)
    ),
    st.tuples(st.just("exponential"), st.tuples(st.floats(0.0, 1e6))),
    st.tuples(st.just("refused"), st.sampled_from(REFUSED)),
)


@settings(max_examples=200, deadline=None)
@given(root=st.integers(0, 2**64 - 1), calls=st.lists(SCALAR_CALLS, max_size=3 * WORD_BLOCK + 5))
@example(root=0, calls=[("uniform", ())] * WORD_BLOCK)
def test_scalar_draws_are_the_blocks_words_in_call_order(root, calls):
    # any interleaving of uniform(), uniform(lo, hi) and exponential(scale)
    # computes draw k from the generator's word k; a refused call takes no word
    s = derive_stream(root, "draws")
    ref = twin_generator(s)
    got, want = [], []
    served = 0
    for name, args in calls:
        if name == "refused":
            name, args = args
            with pytest.raises(ValueError):
                getattr(s, name)(*args)
            assert s.draw_counter == served
            continue
        got.append(getattr(s, name)(*args))
        if name == "exponential":
            want.append(args[0] * ref.standard_exponential(method="inv"))
        elif args:
            want.append(args[0] + (args[1] - args[0]) * ref.random())
        else:
            want.append(ref.random())
        served += 1
        assert s.draw_counter == served
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(draw) is float for draw in got)
    # a direct draw reads the generator after the words the block holds,
    # and the scalar draws then go on with those words
    held = ref.random(-served % WORD_BLOCK).tolist()
    assert s.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
    assert [s.uniform() for _ in held] == held
    assert s.uniform() == ref.random()


def test_draw_arguments_checked_before_drawing():
    s = derive_stream(5, "draws")
    for bad in [(1.0, 0.0), (0.0, float("inf")), (0.0, float("nan"))]:
        with pytest.raises(ValueError):
            s.uniform(*bad)
    for bad in [-1.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError, match="normal needs finite scale"):
            s.normal(0.0, bad)
        with pytest.raises(ValueError, match="exponential needs finite scale"):
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
        s.integer_array(3, 1, 4)
    assert s.draw_counter == 0
    ref = twin_generator(derive_stream(5, "draws"))
    assert s.normal() == ref.standard_normal()
    assert s.uniform() == ref.random()


def compensated_sum(values, start=0):
    """Built-in sum() of floats on Python 3.12 and later: Neumaier's
    compensated sum."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


# a left fold rounds each 1e-16 away; a compensated sum keeps their sum
TINY = [1.0, 1e-16, 1e-16]


def test_left_sum_is_the_left_fold_from_int_zero():
    assert left_sum(TINY) == 1.0
    assert compensated_sum(TINY) == 1.0000000000000002
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum(iter([2, 3])) == 5 and type(left_sum([2, 3])) is int


def test_replayed_totals_do_not_depend_on_builtin_sum(monkeypatch):
    # every module a replay sums in sees a compensated built-in sum(), as on
    # Python 3.12; each total must still be the left fold
    for module in (operating, workload, utility, gametheory):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)

    sites = [operating.ComputingSite(f"s{j}", 1.0, derive_stream(1, f"site/s{j}")) for j in range(3)]
    aca = operating.AdmissionController(sites)
    for site, util in zip(sites, TINY):
        aca.on_report(operating.UtilizationReport(site.site_id, 0, 0, util, util))
    assert aca.believed_beta() == left_sum(TINY) / 3

    # believed free capacities 1.0, 2**-53 and 2**-53: the left fold's total
    # is 1.0, which holds no request of 1 + 2**-52 units
    half_ulp = 2.0**-53
    for site, util in zip(sites, (0.0, 1.0 - half_ulp, 1.0 - half_ulp)):
        aca.on_report(operating.UtilizationReport(site.site_id, 1, 1, util, util))
    assert [aca.believed_free(s.site_id) for s in sites] == [1.0, half_ulp, half_ulp]
    assert aca.compute_slots({"F": 1.0 + 2 * half_ulp}) == {"F": 0}

    for units in TINY:
        aca.note_assignment("s0", 5, units)
    aca.on_report(operating.UtilizationReport("s0", 2, 2, 0.0, 0.0))  # keeps the three pending units
    assert aca.beliefs["s0"].pending_sum == left_sum(TINY)

    assert utility.utility_total(TINY, 1.0, 0.0) == left_sum(TINY)

    tasks = tuple(workload.TaskSpec(f"t{i}", units) for i, units in enumerate(TINY))
    assert workload.ServiceTypeSpec("F", tasks, 100, 1.0).total_units == left_sum(TINY)
    catalog = [workload.ServiceTypeSpec(f"F{i}", tasks[:1], 100, p) for i, p in enumerate(TINY)]
    assert [s.probability for s in workload.normalize_catalog(catalog)] == TINY

    # the static-game oracles too: every player defers, so phi is the sum of the rewards
    players = [
        gametheory.StaticPlayer(
            utility.AgentConfig(f"p{i}", 1.0, lost_bid_cost=0.0, backoff_cost=q, utilization_weight=0.0), {"F": 1.0}
        )
        for i, q in enumerate(TINY)
    ]
    game = gametheory.StaticGame(players, capacity=10.0)
    assert gametheory.potential_value(game, [(None,)] * 3) == left_sum(TINY)
