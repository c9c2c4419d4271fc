from .behavior import BehaviorPool, InsufficientDataError, sl_train
from .bidder import BACKOFF, SUBMIT, EtaSchedule, LearnerHyper, LearningFleet, PassiveFleet
from .features import FeatureCodec, RlStep, WindowBuffer
from .nets import AdamState, NumericalInstabilityError, StackedMlp
from .policy import ActorCriticPool, LearningRates, squash_action, td_error
from .utility import AgentConfig, utility_per_type, utility_total, valuation

__all__ = [
    "AgentConfig",
    "ActorCriticPool",
    "AdamState",
    "BACKOFF",
    "BehaviorPool",
    "EtaSchedule",
    "FeatureCodec",
    "InsufficientDataError",
    "LearnerHyper",
    "LearningFleet",
    "LearningRates",
    "NumericalInstabilityError",
    "PassiveFleet",
    "RlStep",
    "SUBMIT",
    "StackedMlp",
    "WindowBuffer",
    "sl_train",
    "squash_action",
    "td_error",
    "utility_per_type",
    "utility_total",
    "valuation",
]
