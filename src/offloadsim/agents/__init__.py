from .behavior import BehaviorPool
from .bidder import BACKOFF, SUBMIT, LearnerHyper, LearningFleet, PassiveFleet
from .features import FeatureCodec
from .nets import AdamState, NumericalInstabilityError, StackedMlp
from .policy import ActorCriticPool
from .utility import AgentConfig, utility_per_type, utility_total, valuation

__all__ = [
    "AgentConfig",
    "ActorCriticPool",
    "AdamState",
    "BACKOFF",
    "BehaviorPool",
    "FeatureCodec",
    "LearnerHyper",
    "LearningFleet",
    "NumericalInstabilityError",
    "PassiveFleet",
    "SUBMIT",
    "StackedMlp",
    "utility_per_type",
    "utility_total",
    "valuation",
]
