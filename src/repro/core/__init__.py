"""The paper's contribution layer: model builders, training protocol,
iterative roll-outs and the hybrid FNO–PDE scheme."""

from .config import (
    ChannelFNOConfig,
    HybridConfig,
    SpaceTimeFNOConfig,
    Spatial3DChannelsConfig,
    TrainingConfig,
)
from .costs import ComponentCosts, HybridCostModel, measure_component_costs
from .hybrid import (
    HybridFNOPDE,
    RolloutRecord,
    run_hybrid_batched,
    run_pure_fno,
    run_pure_fno_batched,
    run_pure_pde,
)
from .models import build_model, parameter_count
from .rollout import apply_channels, rollout_channels, rollout_spacetime
from .training import Trainer, TrainingHistory, make_loss
from .zoo import (
    CheckpointError,
    checkpoint_fingerprint,
    inspect_checkpoint,
    load_model,
    save_model,
)

__all__ = [
    "ChannelFNOConfig", "SpaceTimeFNOConfig", "Spatial3DChannelsConfig", "TrainingConfig", "HybridConfig",
    "build_model", "parameter_count",
    "Trainer", "TrainingHistory", "make_loss",
    "apply_channels", "rollout_channels", "rollout_spacetime",
    "HybridFNOPDE", "RolloutRecord", "run_pure_fno", "run_pure_fno_batched",
    "run_pure_pde", "run_hybrid_batched",
    "ComponentCosts", "HybridCostModel", "measure_component_costs",
    "save_model", "load_model", "inspect_checkpoint", "checkpoint_fingerprint", "CheckpointError",
]
