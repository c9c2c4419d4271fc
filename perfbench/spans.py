"""Spans around the scenario's calls into each layer, for the traced run only.

A span records name, start, end, parent span and round id. Layer entry
points are wrapped on the instances of a traced scenario, so the untraced
run executes the same code without any wrapper. Spans are kept in memory,
moved into numpy arrays once per round (outside the timed window) and
written to one file when the run ends.

A wrapper costs time of its own: part of it inside the span it records and
part in its parent. Both parts are measured once per run on a no-op function
and subtracted, so self times and `bench.driver_share` are not inflated by
the number of spans.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from offloadsim.agents import LearningFleet

# columns of the span array
NAME, START, END, PARENT, ROUND = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.round = -1
        self._open: list[list] = []  # spans of the current round, as [name, start, end, parent, round]
        self._chunks: list[np.ndarray] = []
        self._flushed = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock, tracer = self._open, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1], tracer.round]
            stack.append(tracer._flushed + len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def flush(self):
        """Move the finished round's spans into an array (call between rounds)."""
        if self._open:
            self._chunks.append(np.array(self._open, dtype=float))
            self._flushed += len(self._open)
            self._open.clear()

    def spans(self) -> np.ndarray:
        self.flush()
        return np.concatenate(self._chunks) if self._chunks else np.zeros((0, 5))

    def save(self, path):
        np.savez(path, spans=self.spans(), names=np.array(self.names))

    def install(self, scn):
        """Wrap every layer entry point the scenario calls."""
        w = self.wrap
        sim = scn.sim
        sim.run_until = w("engine.run_until", sim.run_until)
        sim.schedule = w("engine.schedule", sim.schedule)
        for kind, handler in scn.handlers.items():
            sim.on(kind, w(f"handler.{kind.value}", handler))
        scn.sample = w("workload.sample", scn.sample)
        scn.next_arrival = w("workload.mmpp", scn.next_arrival)
        scn.clear = w("auction.clear", scn.clear)
        scn.feedback = w("auction.feedback", scn.feedback)
        ctl = scn.controller
        ctl.type_estimate = w("operating.slots", ctl.type_estimate)
        ctl.compute_slots = w("operating.slots", ctl.compute_slots)
        ctl.rial_update_prices = w("operating.prices", ctl.rial_update_prices)
        ctl.decide_round = w("operating.decide", ctl.decide_round)
        ctl.on_report = w("operating.on_report", ctl.on_report)
        for site in scn.sites:
            site.accept = w("operating.site", site.accept)
            site.finish = w("operating.site", site.finish)
            site.drop = w("operating.site", site.drop)
            site.report_utilization = w("operating.report", site.report_utilization)
        fleet = scn.fleet
        fleet.act = w("agents.act", fleet.act)
        if isinstance(fleet, LearningFleet):
            fleet.pool.update = w("agents.update", fleet.pool.update)
            fleet.pool.actor_forward = w("agents.forward", fleet.pool.actor_forward)
            fleet.pool.critic_eval = w("agents.forward", fleet.pool.critic_eval)
            fleet.behavior.predict = w("agents.predict", fleet.behavior.predict)
            fleet.behavior.store = w("agents.store", fleet.behavior.store)
            fleet.behavior.train_step = w("agents.sl_train", fleet.behavior.train_step)


def _noop():
    return None


def calibrate(repeats: int = 7, calls: int = 20_000) -> tuple[float, float]:
    """Wrapper cost in seconds per span: (inside the span, in its parent)."""
    inside, total = [], []
    clock = time.perf_counter
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", _noop)
        t0 = clock()
        for _ in range(calls):
            _noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - t0
        s = tracer.spans()
        recorded = float((s[:, END] - s[:, START]).mean())
        inside.append(recorded - bare / calls)
        total.append((wrapped - bare) / calls)
    c_in = max(0.0, statistics.median(inside))
    return c_in, max(0.0, statistics.median(total) - c_in)


class SpanTable:
    """Per-name totals over the spans of rounds >= first_round, corrected for wrapper cost."""

    def __init__(self, tracer: Tracer, first_round: int, cost: tuple[float, float]):
        s = tracer.spans()
        c_in, c_out = cost
        n = len(s)
        dur = s[:, END] - s[:, START]
        parent = s[:, PARENT].astype(np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], minlength=n)[:n]
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
        self_time = dur - child_dur - c_in - children * c_out
        # total with wrapper cost removed; exact for spans whose children are leaves
        total = dur - c_in - children * (c_in + c_out)
        keep = s[:, ROUND] >= first_round
        name = s[keep, NAME].astype(np.int64)
        k = len(tracer.names)
        self.names = tracer.names
        self.count = np.bincount(name, minlength=k)
        self.self_s = np.bincount(name, weights=self_time[keep], minlength=k)
        self.total_s = np.bincount(name, weights=total[keep], minlength=k)

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def calls(self, *names) -> int:
        return int(sum(self.count[i] for i in map(self._id, names) if i is not None))

    def total(self, *names) -> float:
        return float(sum(self.total_s[i] for i in map(self._id, names) if i is not None))

    def self(self, *names) -> float:
        return float(sum(self.self_s[i] for i in map(self._id, names) if i is not None))

    def handler_self(self) -> float:
        return self.self(*(n for n in self.names if n.startswith("handler.")))

    def rows(self):
        """(name, calls, total s, self s) sorted by self time, for the report."""
        out = [(n, int(self.count[i]), float(self.total_s[i]), float(self.self_s[i])) for i, n in enumerate(self.names)]
        return sorted(out, key=lambda row: -row[3])
