"""Federated training of a text-conditioned prompt generator on synthetic embeddings.

The package simulates the full pipeline at desk scale: a frozen embedding
world stands in for the vision/text encoders, a small prompt generator
turns each class-name embedding into context vectors (a query bank, one
value update and a gated feed-forward; see translator), and
disjoint-class clients train it jointly through federated averaging.
Everything is float64 and bitwise deterministic for a fixed seed.

The usual flow is config -> world -> partition -> run_training ->
evaluate_both_splits, or the same through the command line via `main`.
"""

from fedprompt.autograd import Parameter, ParameterSet, grad_check
from fedprompt.cli import main
from fedprompt.config import ExperimentConfig, canonical_text, load_config
from fedprompt.container import (
    load_checkpoint,
    load_embeddings_file,
    save_checkpoint,
    save_embeddings,
)
from fedprompt.diagnostics import composite_grad_check, run_selftest
from fedprompt.errors import ConfigError, ContractError, FormatError, SchemaError
from fedprompt.evaluation import (
    EvalResult,
    class_features,
    evaluate,
    evaluate_both_splits,
)
from fedprompt.federation import (
    ClientUpdate,
    OptimizerConfig,
    RoundLog,
    cosine_lr,
    fedavg,
    local_update,
    run_training,
)
from fedprompt.partition import FewShotSet, build_client_dataset, partition_classes
from fedprompt.reporting import (
    SummaryTable,
    compare_to_reference,
    eval_result_json,
    summarize,
)
from fedprompt.seeding import hash64, rng_for
from fedprompt.translator import (
    TranslatorConfig,
    init_translator_params,
    translator_schema,
)
from fedprompt.world import (
    SyntheticWorld,
    WorldConfig,
    build_world,
    load_embeddings,
    sample_image,
    text_feature,
    world_arrays,
)

__all__ = [
    "ClientUpdate",
    "ConfigError",
    "ContractError",
    "EvalResult",
    "ExperimentConfig",
    "FewShotSet",
    "FormatError",
    "OptimizerConfig",
    "Parameter",
    "ParameterSet",
    "RoundLog",
    "SchemaError",
    "SummaryTable",
    "SyntheticWorld",
    "TranslatorConfig",
    "WorldConfig",
    "build_client_dataset",
    "build_world",
    "canonical_text",
    "class_features",
    "compare_to_reference",
    "composite_grad_check",
    "cosine_lr",
    "eval_result_json",
    "evaluate",
    "evaluate_both_splits",
    "fedavg",
    "grad_check",
    "hash64",
    "init_translator_params",
    "load_checkpoint",
    "load_config",
    "load_embeddings",
    "load_embeddings_file",
    "local_update",
    "main",
    "partition_classes",
    "rng_for",
    "run_selftest",
    "run_training",
    "sample_image",
    "save_checkpoint",
    "save_embeddings",
    "summarize",
    "text_feature",
    "translator_schema",
    "world_arrays",
]

__version__ = "0.1.0"
