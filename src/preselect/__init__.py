"""Few-shot detection inference accelerator: correlation-map scoring,
class pre-selection, and the precision/latency metrics around them."""

from .cost import CostProfile, REFERENCE_PROFILE, per_class_cost, predict_time
from .episodes import Episode, FusionProjector, SynthConfig, synth_episode, synth_episodes
from .metrics import average_precision, omission_rate
from .scorer import Phase, ScoreModel, TrainConfig, train
from .selector import Adaptive, All, Detection, TopN, run_inference, select

__all__ = [
    "Adaptive",
    "All",
    "CostProfile",
    "Detection",
    "Episode",
    "FusionProjector",
    "Phase",
    "REFERENCE_PROFILE",
    "ScoreModel",
    "SynthConfig",
    "TopN",
    "TrainConfig",
    "average_precision",
    "omission_rate",
    "per_class_cost",
    "predict_time",
    "run_inference",
    "select",
    "synth_episode",
    "synth_episodes",
    "train",
]
