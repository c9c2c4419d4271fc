"""Benchmark of the offloadsim simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 24 --trace 0

--seconds fixes the amount of simulated work, not a wall-clock window: a
replay plays the workload's warm-up rounds and then --seconds times the
workload's reference round rate, divided by REPLAYS, measured rounds. Every
run of one seed therefore simulates exactly the same rounds and ends with
the same replay digest; on the reference host the measured rounds take
about --seconds of host time in all.

--trace 0 builds the scenario SETUP_REPEATS times (setup_s is the median),
plays REPLAYS untraced replays of the same rounds from fresh set-ups, keeps
each round's fastest host time and prints the end-to-end metrics. Every host
time is scaled to the reference host speed by a probe timed between rounds
(see hostspeed.py); the unscaled figures are printed beside them.

--trace 1 plays one replay's rounds twice from fresh set-ups, first
untraced and then with spans around every layer call, checks that both
give the same replay digest and prints the per-layer metrics.

Every round is checked (see checks.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# One BLAS thread: on a 2-core host a second OpenBLAS thread inside the
# learner's small matmuls only adds contention. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import gc
import glob
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # scenarios built per run; setup_s is the median
REPLAYS = 3  # untraced replays of the same rounds; each round keeps its fastest
OUT_DIR = ROOT / ".perfbench_out"

# Per-call costs measured ad hoc before this benchmark existed (ROADMAP baseline).
ADHOC_BASELINE = {
    "fsp-train": "LearningFleet.act 20 ms per round at 32 agents",
    "fsp-eval": "LearningFleet.act 83 ms per round at 128 agents (training on)",
    "crowd": "clear_auction 1.4 us/bid at 100 bids, 1.9 us/bid at 1000; decide_round 25 us/winner at 400 winners",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for sub in ("src", "tests"):
        if not (ROOT / sub).is_dir():
            print(f"error: {ROOT / sub} not found; run from a checkout of the repository", file=sys.stderr)
            return 2
        sys.path.insert(0, str(ROOT / sub))
    from scenario import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"why: {w.why}")
    print(f"params: {json.dumps(dataclasses.asdict(w))}")
    print(f"env: {json.dumps(environment())}")
    print("model: unvalidated (no reference results); figures below are host cost and determinism, not accuracy")
    if args.trace:
        result = traced_run(w, args.seed, args.seconds)
    else:
        result = untraced_run(w, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }


def blas_threads(numpy) -> int | str:
    """Thread count reported by the bundled OpenBLAS, if it can be found."""
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


# -- playing rounds -------------------------------------------------------------------


def build(w, seed, timings: list, speed=None):
    """A fresh scenario; its set-up phase times are appended to `timings`.

    With a HostSpeed probe, the set-up is bracketed by probes and its scaled
    time is added as "setup_scaled_s".
    """
    from scenario import Scenario

    gc.collect()
    if speed is not None:
        speed.probe()
    scn = Scenario(w, seed)
    if speed is not None:
        speed.probe()
        scn.timings["setup_scaled_s"] = scn.timings["setup_s"] * speed.scale(speed.last() - 1)
    timings.append(scn.timings)
    return scn


def play(monitor, rounds: int, tracer=None, speed=None) -> tuple[list[float], list[int]]:
    """Play `rounds` rounds of the monitor's scenario. Return the host seconds
    of each round after the warm-up and, with a HostSpeed probe, the index of
    the last probe taken before each of them."""
    scn = monitor.scn
    warmup = scn.w.warmup_rounds
    times, probes = [], []
    clock = time.perf_counter
    if speed is not None:
        speed.probe()
    for r in range(rounds):
        if tracer is not None:
            tracer.round = r
        exc = None
        t0 = clock()
        try:
            scn.play_round()
        except Exception as e:  # a failed round is counted and reported, the run goes on
            exc = e
        dt = clock() - t0
        if r >= warmup:
            times.append(dt)
            if speed is not None:
                probes.append(speed.last())
        if tracer is not None:
            tracer.flush()
        monitor.after_round(exc)
        if speed is not None:
            speed.tick()
    if speed is not None:
        speed.probe()
    monitor.finish()
    return times, probes


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 rounds beyond it: (percentile, value).

    With a fixed number of measured rounds this is the same percentile in
    every run of a workload.
    """
    n = len(times_ms)
    return 100.0 * (1.0 - 10.0 / n), sorted(times_ms)[n - 11]


def summary(monitors) -> tuple[bool, int, int]:
    attempted = sum(m.rounds for m in monitors)
    failed = sum(m.failed for m in monitors)
    causes = sum((m.causes for m in monitors), Counter())
    for cause, n in causes.most_common():
        print(f"failed rounds: {n} x {cause}")
    for p in monitors[0].problems[:20]:
        print(f"check: {p}")
    print(f"rounds attempted {attempted} failed {failed} (failure share {failed / attempted:.4f})")
    correct = not any(m.problems for m in monitors)
    return correct, attempted, failed


def report_model(monitor, label=""):
    print(f"replay_digest{label} {monitor.digest} (rounds 0..{monitor.rounds - 1})")
    print(f"model outputs{label} (not gated): {json.dumps(monitor.outputs)}")


def run_rounds(w, seconds) -> int:
    """Rounds of one replay: the warm-up plus the measured rounds."""
    return w.warmup_rounds + max(11, round(seconds * w.rounds_per_s / REPLAYS))


def median_timings(timings: list) -> dict:
    return {k: statistics.median(t[k] for t in timings) for k in timings[0]}


def untraced_run(w, seed, seconds) -> dict:
    from checks import Monitor
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    timings = []
    for _ in range(SETUP_REPEATS - REPLAYS):
        build(w, seed, timings, speed)
    monitors, raw, replays = [], [], []
    for _ in range(REPLAYS):
        monitor = Monitor(build(w, seed, timings, speed))
        times, probes = play(monitor, run_rounds(w, seconds), speed=speed)
        raw.append(times)
        replays.append([dt * speed.scale(k) for dt, k in zip(times, probes)])
        monitor.scn = None
        monitors.append(monitor)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [min(replay) for replay in zip(*replays)]
    times_ms = [t * 1e3 for t in times]
    pct, tail_ms = tail(times_ms)
    sim_s = len(times) * w.round_ms / 1000.0
    setup = median_timings(timings)
    metrics = {
        "sim_speed": (sim_s / sum(times), "sim_s/host_s"),
        "round_host_p50_ms": (statistics.median(times_ms), "ms"),
        "round_host_tail_ms": (tail_ms, "ms"),
        "setup_s": (setup["setup_scaled_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    raw_times = [min(replay) for replay in zip(*raw)]
    print(f"host times are scaled to the reference host speed: probe median {speed.median_ms():.3f} ms over "
          f"{len(speed.samples)} probes, reference {REFERENCE_S * 1e3:.3f} ms; unscaled sim_speed "
          f"{sim_s / sum(raw_times):.6g}, round p50 {statistics.median(raw_times) * 1e3:.6g} ms, setup "
          f"{setup['setup_s']:.6g} s")
    print(f"round_host_tail_ms is p{pct:.2f} of {len(times)} measured rounds; a round's host time is its fastest of "
          f"{REPLAYS} replays (unscaled replay totals {', '.join(f'{sum(r):.2f}' for r in raw)} s host, "
          f"{sim_s:.1f} s simulated)")
    print(f"agents.actor_grad_norm_max = {monitors[0].grad_norm_max:.6g} over {monitors[0].rounds} rounds")
    report_model(monitors[0])
    correct, attempted, failed = summary(monitors)
    digests = {m.digest for m in monitors}
    if len(digests) > 1:
        print(f"check: replays of one seed gave different digests {sorted(digests)}")
        correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(w, seed, seconds) -> dict:
    from checks import Monitor
    from spans import SpanTable, Tracer, calibrate

    timings = []
    for _ in range(SETUP_REPEATS - 2):
        build(w, seed, timings)
    rounds = run_rounds(w, seconds)
    plain = Monitor(build(w, seed, timings))
    plain_times, _ = play(plain, rounds)
    plain.scn = None
    traced = Monitor(build(w, seed, timings))
    tracer = Tracer()
    tracer.install(traced.scn)
    traced_times, _ = play(traced, rounds, tracer=tracer)
    cost = calibrate()
    table = SpanTable(tracer, w.warmup_rounds, cost)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{w.name}.npz")

    measured = len(traced_times)
    window = traced.counts()
    window.subtract(traced.warm)
    bids = window["bids"]
    winners = window["Won"] + window["Rejected"]
    arrivals = window["arrivals"]
    events = table.calls(*(n for n in table.names if n.startswith("handler.")))
    reports = table.calls("operating.report")
    host = sum(traced_times)

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    metrics = {
        "engine.events": (events, "count"),
        "engine.dispatch_us_per_event": (per(table.self("engine.run_until"), events, 1e6), "us"),
        "engine.schedule_us": (per(table.total("engine.schedule"), table.calls("engine.schedule"), 1e6), "us"),
        "engine.rng_draws": (traced.outputs["rng_draws"], "count"),
        "workload.arrivals": (arrivals, "count"),
        "workload.sample_us": (per(table.total("workload.sample", "workload.mmpp"), arrivals, 1e6), "us"),
        "auction.bids_per_round": (bids / measured, "1/round"),
        "auction.clear_us_per_bid": (per(table.total("auction.clear"), bids, 1e6), "us"),
        "auction.feedback_us": (per(table.total("auction.feedback"), table.calls("auction.feedback"), 1e6), "us"),
        "operating.winners_per_round": (winners / measured, "1/round"),
        "operating.decide_us_per_winner": (per(table.total("operating.decide"), winners, 1e6), "us"),
        "operating.reject_ratio": (per(window["Rejected"], winners), "ratio"),
        "operating.drop_ratio": (per(window["dropped"], window["admitted"]), "ratio"),
        "operating.slots_us": (per(table.total("operating.slots"), measured, 1e6), "us"),
        "operating.site_us": (per(table.total("operating.site"), table.calls("operating.site"), 1e6), "us"),
        "operating.report_us": (per(table.total("operating.report", "operating.on_report"), reports, 1e6), "us"),
        "agents.act_ms": (per(table.total("agents.act"), measured, 1e3), "ms"),
        "agents.update_ms": (per(table.total("agents.update"), measured, 1e3), "ms"),
        "agents.forward_ms": (per(table.total("agents.forward"), measured, 1e3), "ms"),
        "agents.sl_train_ms": (per(table.total("agents.sl_train"), table.calls("agents.sl_train"), 1e3), "ms"),
        "agents.predict_ms": (per(table.total("agents.predict"), measured, 1e3), "ms"),
        "agents.store_us": (per(table.total("agents.store"), table.calls("agents.store"), 1e6), "us"),
        "agents.self_ms": (per(table.self("agents.act"), measured, 1e3), "ms"),
        "agents.actor_grad_norm_max": (traced.grad_norm_max, "norm"),
        "setup.fleet_s": (median_timings(timings)["fleet_s"], "s"),
        "bench.driver_share": (table.handler_self() / host, "ratio"),
        "bench.trace_overhead": (per(host, sum(plain_times)), "ratio"),
    }
    print(f"traced window: rounds {w.warmup_rounds}..{rounds - 1} ({measured} rounds, {host:.2f} s host traced, "
          f"{sum(plain_times):.2f} s untraced); wrapper cost {cost[0] * 1e9:.0f} + {cost[1] * 1e9:.0f} ns per span subtracted")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("span self time (share of traced host time):")
    for name, calls, total_s, self_s in table.rows():
        print(f"  {name:28s} calls {calls:9d}  total {total_s:9.4f} s  self {self_s:9.4f} s  {self_s / host:6.1%}")
    print(f"ad hoc baseline (ROADMAP): {ADHOC_BASELINE[w.name]}")
    report_model(plain, " (untraced)")
    report_model(traced, " (traced)")
    correct, attempted, failed = summary([plain, traced])
    if plain.digest != traced.digest:
        print(f"check: traced digest {traced.digest} != untraced {plain.digest}")
        correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
