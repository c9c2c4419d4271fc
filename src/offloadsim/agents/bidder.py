"""Bidder agents: self-play mixing of a best-response learner with a
supervised behavioral model.

Each decision round an agent tosses its eta coin: with probability eta
(1/t, never below `LearnerHyper.eta_floor`) it executes a best-response
action sampled from its Gaussian policy, otherwise the behavioral model's
average strategy. Only the chosen branch runs. The actor learns only from
rounds where it executed its own sample, the critic from every round.

`LearningFleet` is the only code that knows the action layout: K backoff
components, then K prices. `LearningFleet._fractions` maps a raw policy
sample to executed fractions in [0, 1], the form the behavioral model
stores and predicts, and `_directives` turns a fraction into a price by one
product with the budget. Per service type, a backoff component above
`BACKOFF_THRESHOLD` submits the bid at that price; otherwise the bid is
deferred for the component times `MAX_BACKOFF_MS`, rounded, and at least
1 ms. Both are constants of this module, like the layout they read.

Active agents of a fleet advance in lock step through batched learners but
draw all randomness from their own per-agent streams, so fleet composition
never perturbs an individual agent's trajectory. Only agents with a pending
request decide; the others are idle once they have no feedback and no
previous-round action to score. `LearningFleet.act` runs a round in three
stages:

1. One pass over every agent checks the input and scores last round's
   actions of each agent that is not idle: there must be one feedback and
   one pending entry per agent, the codec must know every pending and
   feedback price type, and each pending work must be finite and > 0 and
   each deadline finite and >= 0. The pass notes each such agent's
   request and last prices. Idle agents' rewards are written in bulk
   (`utility_total` over the fleet's weights), the same arithmetic per
   element. Only then does each agent draw, in a pass of its own and one
   `RngStream.normals_then_uniform` call per agent: the noise vector
   straight into its row of the round's noise array, then the eta coin.
   One `FeatureCodec.encode` call writes every agent's new step into a
   fresh array, which is copied into the window.
2. The batched learner step. While learning, `ActorCriticPool.td_step`
   first steps every agent's critic on last round's transition, and the
   actor of each agent that executed its own sample last round. Then each
   deciding agent runs the branch its coin picks, on its own row and
   reading only its own weights: the actor pass, the sample and
   `_fractions` for the best response, or only the behavioural model's
   prediction. While learning, every deciding agent stores one
   behaviour-memory row, and the actor pass's rows are what the next TD
   step scores. Nothing of this runs when no agent decides, and a learning
   round and a frozen one with the same coins take the same rows. For
   each deciding agent the result is bit-identical to a full-batch pass
   running both branches for every agent: matmul makes the same per-agent
   product whichever agents run beside it, and the solves and the squash
   work per row. An agent that does not decide executes no action, so it
   has none to score or to remember; one that executes the behavioural
   action has no sample whose score is a policy gradient.
3. One pass out over the deciding agents: the directives for their pending
   types. Every other agent gets none and nothing to score next round.

Each agent draws its noise, then its eta coin, once per round, pending or
not, learning or frozen, so stage 2 runs for a subset of agents without
moving any act stream. A round refused for its input leaves everything as
it was: every stream, `t` and the window. An error raised later in stage 1
leaves the window and `t` as they were, and the streams of the agents
that drew advanced.

The window's length is the codec's, its only settable home. The window
holds each step twice, at slots j and j + window of a (B, 2 * window,
step_dim) array, where j is the round modulo the window. `history`, the
last `window` steps oldest first, is then one slice of it, and a new step
costs two row copies rather than a shift of the window.

Each agent's `agent/<id>/init` stream feeds, in this order, its actor, its
critic and its behaviour net, and nothing else reads it. The actor is
drawn in `__init__`; the critic and then the behaviour net (with its Adam
moments) are drawn from the same stream objects, once, when something
first needs them: the first learning round, or the first behavioural
prediction of a fleet frozen with a mixing weight below 1. So every weight
is the one an eager draw in that order gives, and a fleet frozen at t = 1
with eta 1 never draws them. `freeze` drops what a frozen fleet never
reads: the critic, the behaviour memory and the Adam moments. It keeps the
actor and the behaviour net, the two policies it acts with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from ..auction import FeedbackSignal
from ..engine import derive_stream, require_count
from .behavior import BehaviorPool
from .features import FeatureCodec
from .policy import ActorCriticPool, sigmoid
from .utility import AgentConfig, utility_per_type, utility_total, valuation


SL_CAPACITY = 10_000  # behaviour-memory rows per agent
SL_LR = 1e-3  # the behaviour model's Adam step size


@dataclass
class LearnerHyper:
    # Not a field: a fleet takes its window from its codec alone. This is
    # the length a caller may build that codec with.
    window: ClassVar[int] = 8
    actor_rate: float = 1e-4
    eta_floor: float = 0.01  # 0 keeps the pure 1/t
    init_std: float = 0.5
    price_bias_init: float = 1.0
    sl_batch_size: int = 64
    sl_train_interval: int = 32

    def __post_init__(self):
        for name in ("sl_batch_size", "sl_train_interval"):
            require_count(name, getattr(self, name), 1)
        if self.sl_batch_size > SL_CAPACITY:
            raise ValueError(f"sl_batch_size ({self.sl_batch_size}) must not exceed SL_CAPACITY ({SL_CAPACITY})")
        if not 0.0 <= self.actor_rate < math.inf:
            raise ValueError(f"actor_rate must be finite and >= 0, got {self.actor_rate}")
        if not 0.0 <= self.eta_floor <= 1.0:
            raise ValueError(f"eta_floor must be in [0, 1], got {self.eta_floor}")
        if not 0.0 < self.init_std < math.inf:
            raise ValueError(f"init_std must be finite and > 0, got {self.init_std}")
        if not math.isfinite(self.price_bias_init):
            raise ValueError(f"price_bias_init must be finite, got {self.price_bias_init}")

    def eta(self, t: int) -> float:
        """The best response's mixing weight in round t: 1/t, never below eta_floor."""
        return max(1.0 / max(1, t), self.eta_floor)


SUBMIT = "submit"
BACKOFF = "backoff"
BACKOFF_THRESHOLD = 0.5  # a backoff component above it submits the bid
MAX_BACKOFF_MS = 100  # the deferral of a backoff component of 1


def _require_roster(configs: Sequence[AgentConfig]):
    """Refuse an empty fleet or a repeated bidder_id: the auction refuses two
    bids of one id on one type, and a learner's streams derive from its id."""
    if not configs:
        raise ValueError("need at least one agent")
    ids = [c.bidder_id for c in configs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"bidder_id must be distinct across the fleet, got {ids}")


def _require_one_per_agent(n_agents: int, feedbacks: Sequence, pending: Sequence):
    """Refuse a round without exactly one feedback and one pending entry per agent."""
    if len(feedbacks) != n_agents or len(pending) != n_agents:
        raise ValueError(
            f"need one feedback and one pending entry per agent ({n_agents}), "
            f"got {len(feedbacks)} and {len(pending)}"
        )


def _unknown_types(bidder_id: str, what: str, by_type: dict, known) -> ValueError:
    return ValueError(f"agent {bidder_id} has {what} types the codec does not know: {sorted(by_type.keys() - known)}")


class LearningFleet:
    """All active bidders of a run, advanced together once per round."""

    def __init__(
        self,
        configs: Sequence[AgentConfig],
        codec: FeatureCodec,
        root_seed: int,
        hyper: Optional[LearnerHyper] = None,
    ):
        _require_roster(configs)
        self.hyper = hyper or LearnerHyper()
        self.configs = list(configs)
        self.codec = codec
        self.B = len(configs)
        self.k = codec.k
        self.action_dim = 2 * codec.k
        self.budgets = np.array([c.budget for c in configs])
        self.weights = np.array([c.utilization_weight for c in configs])
        # the actor's draws, then the critic's and the behaviour net's in `_draw_learners`
        self._init_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/init") for c in configs]
        self.act_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/act") for c in configs]
        self.sl_streams = [derive_stream(root_seed, f"agent/{c.bidder_id}/sl") for c in configs]
        mu_bias = np.zeros(self.action_dim)
        mu_bias[codec.k :] = self.hyper.price_bias_init
        self.pool = ActorCriticPool(
            self._init_streams,
            input_dim=codec.rl_input_dim,
            action_dim=self.action_dim,
            actor_rate=self.hyper.actor_rate,
            init_std=self.hyper.init_std,
            mu_bias_init=mu_bias,
        )
        self.behavior = BehaviorPool(
            self.B,
            state_dim=codec.sl_dim,
            action_dim=self.action_dim,
            capacity=SL_CAPACITY,
            batch_size=self.hyper.sl_batch_size,
            lr=SL_LR,
        )
        # Per agent, every step twice: round r's at slots r % window and
        # r % window + window, so the last `window` steps lie in one slice.
        self._windows = np.zeros((self.B, 2 * codec.window, codec.step_dim))
        self._newest = codec.window - 1  # the slot of the newest step below `window`
        self.t = 1
        self.frozen_eta: Optional[float] = None  # the fixed mixing weight once frozen; None while learning
        # Last round's (S of every agent, (raw sample, actor cache) of the
        # agents that executed their sample, or None), which this round's
        # TD step scores.
        self._prev: Optional[tuple] = None
        # Per agent, last round's (type, valuation, submitted) per pending
        # type, the submitted types first.
        self._last_actions: list[tuple[tuple[str, float, bool], ...]] = [()] * self.B

    @property
    def history(self) -> np.ndarray:
        """Per agent, the last `window` steps, the oldest first: a view of
        shape (B, window, step_dim), to be read only, since a write would
        reach one of a step's two copies."""
        start = self._newest + 1
        return self._windows[:, start : start + self.codec.window]

    # -- mode switches ---------------------------------------------------------

    def freeze(self):
        """Stop all learning; keep acting with the mixing weight fixed at its
        current value. Drops what acting never reads: the critic, the
        behaviour memory and its Adam moments. The behaviour net stays, for
        the behavioural predictions of a mixing weight below 1."""
        self.frozen_eta = self.hyper.eta(self.t)
        self._prev = None  # no TD step will score it
        self._release_training()

    def _release_training(self):
        self.pool.critic = None
        self.behavior.release_training()

    def _draw_learners(self):
        """Draw the critic, then the behaviour net, from the init streams
        that drew the actor, once: at the first learning round or the first
        behavioural prediction. A frozen fleet keeps only the net."""
        if self._init_streams is None:
            return
        self.pool.draw_critic(self._init_streams)
        self.behavior.draw(self._init_streams)
        self._init_streams = None
        if self.frozen_eta is not None:
            self._release_training()

    # -- the per-round step ------------------------------------------------------

    def act(
        self,
        feedbacks: Sequence[Optional[FeedbackSignal]],
        pending: Sequence[dict[str, tuple[float, float]]],
        n_present: int,
        beta: float,
        phase: float,
    ) -> list[dict[str, tuple]]:
        """Advance one decision round; returns per-agent directives
        {type: ("submit", price) | ("backoff", duration_ms)} for pending types."""
        # 1. check the input, score the agents that are not idle, draw for all, then encode
        _require_one_per_agent(self.B, feedbacks, pending)
        learning = self.frozen_eta is None
        eta = self.hyper.eta(self.t) if learning else self.frozen_eta
        known = self.codec.index.keys()
        utilities = utility_total([], beta, self.weights)  # an idle round's, for every agent
        active = []  # (agent, its request, last round's prices) of the agents that are not idle
        deciding = []  # the agents with a pending request, in fleet order
        for b, config in enumerate(self.configs):
            fb = feedbacks[b]
            actions = self._last_actions[b]  # scored on this round's feedback
            requests = pending[b]
            if requests:
                if not known >= requests.keys():  # refused before encode, which would raise KeyError
                    raise _unknown_types(config.bidder_id, "pending", requests, known)
                for service_type, (work, deadline) in requests.items():
                    if not (0.0 < work < math.inf and 0.0 <= deadline < math.inf):
                        raise ValueError(
                            f"agent {config.bidder_id} has pending type {service_type} with work {work} and "
                            f"deadline {deadline}: work must be finite and > 0, the deadline finite and >= 0"
                        )
                deciding.append(b)
            if fb is not None or actions or requests:
                outcomes, prices = (fb.outcomes, fb.prices) if fb else ({}, {})
                if not known >= prices.keys():
                    raise _unknown_types(config.bidder_id, "feedback", prices, known)
                c, q = config.lost_bid_cost, config.backoff_cost
                terms = [
                    utility_per_type(outcomes.get(t, 0), v, prices.get(t, 0.0), c, q, sent)
                    for t, v, sent in actions
                ]
                utilities[b] = utility_total(terms, beta, config.utilization_weight)
                active.append((b, requests, prices))
        noise = np.empty((self.B, self.action_dim))
        coins = [stream.normals_then_uniform(row) for stream, row in zip(self.act_streams, noise)]
        use_rl = np.array(coins) < eta
        steps = np.empty((self.B, self.codec.step_dim))
        self.codec.encode(steps, (float(n_present), beta, phase), utilities, active)
        window = self.codec.window
        newest = (self._newest + 1) % window  # the oldest step's slots until now
        self._windows[:, newest] = steps
        self._windows[:, newest + window] = steps
        self._newest = newest
        history = self.history

        # 2. the batched learner step: every critic while learning, then the deciding agents' rows
        if learning:
            self._draw_learners()
            flat = history.reshape(self.B, -1).copy()
            if self._prev is not None:
                prev_flat, prev_scored = self._prev
                self.pool.td_step(prev_flat, flat, utilities, prev_scored)
        scored = None
        executed = np.empty((len(deciding), self.action_dim))  # row r from agent deciding[r]'s branch
        if deciding:
            picked = use_rl[deciding]
            best = [b for b in deciding if use_rl[b]]  # the agents that execute the actor's sample
            behavioural = [b for b in deciding if not use_rl[b]]  # the others, the behavioural model's action
            if learning or behavioural:  # a behavioural prediction or a store reads them
                sl_states = np.take(steps[deciding], self.codec.sl_columns, axis=1)
            if best:
                x = history.reshape(self.B, -1)[best]
                mu, L, actor_cache = self.pool.actor_forward(x, best)
                zeta_raw = self.pool.sample_raw(mu, L, noise[best])
                executed[picked] = self._fractions(zeta_raw, self.budgets[best])
                if learning:
                    scored = (zeta_raw, actor_cache)
            if behavioural:
                self._draw_learners()
                executed[~picked] = self.behavior.predict(sl_states[~picked], behavioural)
            if learning:
                self.behavior.store(sl_states, executed, deciding)
        if learning:
            if self.t % self.hyper.sl_train_interval == 0:
                self.behavior.train_step(self.sl_streams)
            self._prev = (flat, scored)
        self.t += 1

        # 3. one pass out, per deciding agent
        return self._directives(executed, deciding, pending)

    # -- the action map ------------------------------------------------------------

    def _fractions(self, zeta_raw: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        """Executed fractions of raw samples (n, 2K) of agents with budgets
        (n,): a sigmoid on each backoff component, and each price clipped to
        [0, budget] and then divided by the budget."""
        budgets = budgets[:, None]
        out = np.empty_like(zeta_raw)
        out[:, : self.k] = sigmoid(zeta_raw[:, : self.k])
        out[:, self.k :] = np.clip(zeta_raw[:, self.k :], 0.0, budgets) / budgets
        return out

    def _directives(self, fractions, deciding, pending) -> list[dict[str, tuple]]:
        """Directives for the pending types; row r of fractions belongs to
        agent deciding[r], and every other agent gets none. Every fraction
        is in [0, 1] and rounding is monotone, so each price fraction *
        budget is in [0, budget]."""
        directives: list[dict[str, tuple]] = [{} for _ in range(self.B)]
        self._last_actions = [()] * self.B  # an agent with nothing pending has none
        for row, b in enumerate(deciding):
            config = self.configs[b]
            agent_directives = directives[b]
            submitted, deferred = [], []
            for service_type, (work, _deadline) in pending[b].items():
                i = self.codec.index[service_type]
                alpha = float(fractions[row, i])
                if alpha > BACKOFF_THRESHOLD:
                    agent_directives[service_type] = (SUBMIT, float(fractions[row, self.k + i]) * config.budget)
                    submitted.append((service_type, valuation(work, config), True))
                else:
                    duration = max(1, round(alpha * MAX_BACKOFF_MS))
                    agent_directives[service_type] = (BACKOFF, duration)
                    deferred.append((service_type, valuation(work, config), False))
            self._last_actions[b] = tuple(submitted + deferred)
        return directives


class PassiveFleet:
    """Non-learning baseline: every pending request is submitted right away
    at its valuation, a constant priority."""

    def __init__(self, configs: Sequence[AgentConfig]):
        _require_roster(configs)
        self.configs = list(configs)
        self.B = len(configs)

    def act(self, feedbacks, pending, n_present, beta, phase) -> list[dict[str, tuple]]:
        _require_one_per_agent(self.B, feedbacks, pending)
        directives = []
        for b, config in enumerate(self.configs):
            directives.append(
                {
                    service_type: (SUBMIT, valuation(work, config))
                    for service_type, (work, _deadline) in pending[b].items()
                }
            )
        return directives
