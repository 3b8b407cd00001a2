"""Adversarial supervised contrastive learning at desk scale.

A small float64 autodiff engine, MLP classifiers with an exposed
penultimate latent, L-inf PGD attacks, four positive/negative selection
strategies feeding a contrastive + adversarial + KL objective, and
latent-divergence diagnostics, wired into a deterministic training CLI.
"""

__version__ = "0.1.0"

from .attacks import AttackConfig, multi_targeted_pgd, pgd_attack, project_linf, robust_accuracy
from .config import RunConfig, parse_config_file
from .data import Batch, Dataset, make_blobs, make_two_moons
from .divergence import DivergenceReport, absolute_divergences, divergence_sweep
from .losses import LossWeights, selection_stats, total_loss
from .models import MLPClassifier, ModelSpec, load_model, save_model
from .tensor import Tensor, concat
from .training import evaluate, train

__all__ = [
    "AttackConfig", "Batch", "Dataset", "DivergenceReport", "LossWeights",
    "MLPClassifier", "ModelSpec", "RunConfig", "Tensor", "absolute_divergences", "concat",
    "divergence_sweep", "evaluate", "load_model", "make_blobs", "make_two_moons",
    "multi_targeted_pgd", "parse_config_file", "pgd_attack", "project_linf",
    "robust_accuracy", "save_model", "selection_stats", "total_loss", "train",
]
