"""Gaussian-emission hidden Markov models over delay observations."""

from ._kernels_py import BACKEND
from .em import (EmConfig, TrainingReport, cross_validate_folds, em_train,
                 prediction_accuracy)
from .inference import (forward_filter, predict_belief, predict_next_state,
                        predict_next_states)
from .model import GaussianEmission, HmmModel, load_model, save_model

__all__ = [
    "BACKEND",
    "EmConfig",
    "TrainingReport",
    "GaussianEmission",
    "HmmModel",
    "cross_validate_folds",
    "em_train",
    "forward_filter",
    "load_model",
    "predict_belief",
    "predict_next_state",
    "predict_next_states",
    "prediction_accuracy",
    "save_model",
]
