"""Attention-routed capsule networks on a self-contained autodiff engine."""

from .errors import ArcapsError, ComputationError, ConfigurationError, InputDataError
from .model import ArCapsNet, ModelConfig, count_parameters
from .optim import ParameterStore, RmspropState, rmsprop_step

__version__ = "0.1.0"

__all__ = [
    "ArCapsNet",
    "ArcapsError",
    "ComputationError",
    "ConfigurationError",
    "InputDataError",
    "ModelConfig",
    "ParameterStore",
    "RmspropState",
    "count_parameters",
    "rmsprop_step",
    "__version__",
]
