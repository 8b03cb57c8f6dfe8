"""Dataset generation, windowing, normalisation, storage and loading."""

from .dataset import (
    make_channel_pairs,
    make_spacetime_pairs,
    stack_fields,
    train_test_split_samples,
)
from .generation import DataGenConfig, TrajectorySample, generate_dataset, generate_sample
from .initial_conditions import (
    band_limited_vorticity,
    solenoidal_projection,
    uniform_random_velocity,
)
from .io import load_samples, save_samples
from .loader import DataLoader
from .normalization import FieldNormalizer, UnitGaussianNormalizer, normalize_by_initial

__all__ = [
    "DataGenConfig", "TrajectorySample", "generate_sample", "generate_dataset",
    "uniform_random_velocity", "band_limited_vorticity", "solenoidal_projection",
    "stack_fields", "make_channel_pairs", "make_spacetime_pairs",
    "train_test_split_samples", "DataLoader",
    "UnitGaussianNormalizer", "FieldNormalizer", "normalize_by_initial",
    "save_samples", "load_samples",
]
