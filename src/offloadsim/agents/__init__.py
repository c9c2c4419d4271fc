from .behavior import BehaviorPool
from .bidder import BACKOFF, SUBMIT, EtaSchedule, LearnerHyper, LearningFleet, PassiveFleet
from .features import FeatureCodec
from .nets import AdamState, NumericalInstabilityError, StackedMlp
from .policy import ActorCriticPool, LearningRates, td_error
from .utility import AgentConfig, utility_per_type, utility_total, valuation

__all__ = [
    "AgentConfig",
    "ActorCriticPool",
    "AdamState",
    "BACKOFF",
    "BehaviorPool",
    "EtaSchedule",
    "FeatureCodec",
    "LearnerHyper",
    "LearningFleet",
    "LearningRates",
    "NumericalInstabilityError",
    "PassiveFleet",
    "SUBMIT",
    "StackedMlp",
    "td_error",
    "utility_per_type",
    "utility_total",
    "valuation",
]
