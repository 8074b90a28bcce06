"""Anchor-point based 6-DOF visual relocalization, end to end.

Subpackages cover the full pipeline: world-frame geometry and anchor maps,
a differentiable three-head regressor, the confidence-weighted multi-task
loss, Adam training, a synthetic benchmark world, dataset I/O, evaluation
metrics and a command-line interface.
"""

__version__ = "0.1.0"

from .geometry import AnchorMap, Pose  # noqa: F401
from .loss import LossBreakdown, LossWeights  # noqa: F401
from .model import NetworkSpec  # noqa: F401
from .optim import TrainConfig  # noqa: F401
from .simworld import Sample, WorldSpec  # noqa: F401
