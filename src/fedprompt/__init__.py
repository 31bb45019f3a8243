"""Federated training of a text-conditioned prompt generator on synthetic embeddings.

The package simulates the full pipeline at desk scale: a frozen embedding
world stands in for the vision/text encoders, a small prompt generator
turns each class-name embedding into context vectors (a query bank, one
value update and a gated feed-forward; see translator), and
disjoint-class clients train it jointly through federated averaging.
Everything is float64 and bitwise deterministic for a fixed seed.

The usual flow is config -> world -> partition -> run_training ->
evaluate_both_splits, or the same through the command line via `main`.
The package exports those steps; everything else is imported from its
own module.
"""

from fedprompt.cli import main
from fedprompt.config import load_config
from fedprompt.evaluation import evaluate_both_splits
from fedprompt.federation import run_training
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.translator import init_translator_params
from fedprompt.world import build_world

__all__ = [
    "build_client_dataset",
    "build_world",
    "evaluate_both_splits",
    "init_translator_params",
    "load_config",
    "main",
    "partition_classes",
    "run_training",
]

__version__ = "0.1.0"
