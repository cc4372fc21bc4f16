"""salign: train text classifiers whose gradients align with rationales."""

from .engine import Tensor, Graph, grad, no_grad, set_grad_enabled
from . import ops
from .gradcheck import finite_diff_check, finite_diff_check_many
from .model import ModelConfig, ModelParams, ForwardTrace, encode_batch
from .data import Example, Dataset, SynthConfig, Vocabulary, gen_synthetic, load_jsonl, save_jsonl
from .loss import SaliencyConfig, task_loss, hinge_penalty, total_cost
from .training import TrainConfig, TrainLog, adam_step, train
from .evaluation import (
    MetricsReport,
    SaliencyReport,
    VerificationReport,
    classification_metrics,
    mcnemar_one_sided,
    saliency_accuracy,
    top_k_salient,
    verify_tpr_drop,
)

__all__ = [
    "Tensor",
    "Graph",
    "grad",
    "no_grad",
    "set_grad_enabled",
    "ops",
    "finite_diff_check",
    "finite_diff_check_many",
    "ModelConfig",
    "ModelParams",
    "ForwardTrace",
    "encode_batch",
    "Example",
    "Dataset",
    "SynthConfig",
    "Vocabulary",
    "gen_synthetic",
    "load_jsonl",
    "save_jsonl",
    "SaliencyConfig",
    "task_loss",
    "hinge_penalty",
    "total_cost",
    "TrainConfig",
    "TrainLog",
    "adam_step",
    "train",
    "MetricsReport",
    "SaliencyReport",
    "VerificationReport",
    "classification_metrics",
    "mcnemar_one_sided",
    "saliency_accuracy",
    "top_k_salient",
    "verify_tpr_drop",
]
