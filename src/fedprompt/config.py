"""Experiment configuration: flat key=value files with dotted sections.

One registry maps every configuration key to its type, default, and a
one-line description; the parser and the documentation are the same
table, so they cannot drift apart.  Defaults come straight from the
dataclass definitions.  A config file lists any subset of keys, later
lines override earlier ones, unknown keys are hard errors naming the
key and line, and --set overrides apply after the file.

canonical_text() serializes a config as sorted key=value lines; that
text is what checkpoints embed, and parsing it back reproduces the
config exactly.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable

from fedprompt.errors import ConfigError
from fedprompt.federation import OptimizerConfig
from fedprompt.translator import TranslatorConfig
from fedprompt.world import WorldConfig


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    translator: TranslatorConfig = field(default_factory=TranslatorConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    n_clients: int = 6
    classes_per_client: int = 10
    shots: int = 8
    rounds: int = 50
    local_epochs: int = 1
    fraction: float = 1.0
    n_test: int = 50
    report_dir: str = "reports"
    master_seed: int = 0

    def __post_init__(self):
        if self.translator.d_model != self.world.d:
            raise ConfigError(
                f"translator width {self.translator.d_model} must equal world.d {self.world.d}"
            )
        need = self.n_clients * self.classes_per_client
        if need > self.world.n_base:
            raise ConfigError(
                f"n_clients x classes_per_client = {need} exceeds "
                f"world.n_base = {self.world.n_base}"
            )
        for name in ("n_clients", "classes_per_client", "shots", "rounds",
                     "local_epochs", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction}")


def _default(cls, field_name: str):
    for f in dataclasses.fields(cls):
        if f.name == field_name:
            return f.default
    raise AttributeError(field_name)


@dataclass(frozen=True)
class Key:
    type: type
    default: object
    doc: str


# the single source of truth for configuration keys
KEYS: dict[str, Key] = {
    "master_seed": Key(int, _default(ExperimentConfig, "master_seed"),
                       "root seed every stream derives from"),
    "world.d": Key(int, _default(WorldConfig, "d"), "embedding dimension"),
    "world.n_base": Key(int, _default(WorldConfig, "n_base"),
                        "number of base (training) classes"),
    "world.n_new": Key(int, _default(WorldConfig, "n_new"),
                       "number of held-out novel classes"),
    "world.sigma_img": Key(float, _default(WorldConfig, "sigma_img"),
                           "image noise scale around class centers"),
    "world.sigma_text": Key(float, _default(WorldConfig, "sigma_text"),
                            "class-name embedding noise scale"),
    "world.interp_lo": Key(float, _default(WorldConfig, "interp_lo"),
                           "lower mixing weight for novel class centers"),
    "world.interp_hi": Key(float, _default(WorldConfig, "interp_hi"),
                           "upper mixing weight for novel class centers"),
    "translator.n_ctx": Key(int, _default(TranslatorConfig, "n_ctx"),
                            "number of generated context vectors"),
    "translator.ffn_mult": Key(int, _default(TranslatorConfig, "ffn_mult"),
                               "feed-forward expansion factor"),
    "optimizer.lr0": Key(float, _default(OptimizerConfig, "lr0"),
                         "base learning rate before cosine annealing"),
    "optimizer.momentum": Key(float, _default(OptimizerConfig, "momentum"),
                              "SGD momentum coefficient"),
    "optimizer.weight_decay": Key(float, _default(OptimizerConfig, "weight_decay"),
                                  "L2 penalty added to the gradient"),
    "optimizer.batch_size": Key(int, _default(OptimizerConfig, "batch_size"),
                                "local minibatch size"),
    "optimizer.temperature": Key(float, _default(OptimizerConfig, "temperature"),
                                 "cosine logit divisor"),
    "federation.n_clients": Key(int, _default(ExperimentConfig, "n_clients"),
                                "number of simulated clients"),
    "federation.classes_per_client": Key(int, _default(ExperimentConfig, "classes_per_client"),
                                         "disjoint classes held by each client"),
    "federation.shots": Key(int, _default(ExperimentConfig, "shots"),
                            "training samples per class per client"),
    "federation.rounds": Key(int, _default(ExperimentConfig, "rounds"),
                             "communication rounds"),
    "federation.local_epochs": Key(int, _default(ExperimentConfig, "local_epochs"),
                                   "local passes per round"),
    "federation.fraction": Key(float, _default(ExperimentConfig, "fraction"),
                               "participating fraction of clients per round"),
    "eval.n_test": Key(int, _default(ExperimentConfig, "n_test"),
                       "test samples per class"),
    "eval.report_dir": Key(str, _default(ExperimentConfig, "report_dir"),
                           "output directory for report files"),
}


def default_values() -> dict[str, object]:
    return {key: spec.default for key, spec in KEYS.items()}


def _parse_value(key: str, raw: str, where: str):
    spec = KEYS[key]
    try:
        value = spec.type(raw)
    except ValueError:
        raise ConfigError(
            f"malformed value for {key!r} ({where}): {raw!r} is not {spec.type.__name__}"
        ) from None
    if spec.type is float and not math.isfinite(value):
        raise ConfigError(f"non-finite value for {key!r} ({where}): {raw!r}")
    return value


def parse_config_text(text: str, source: str = "config") -> dict[str, object]:
    """Values dict from key=value lines; comments and blanks are skipped."""
    values = default_values()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source} line {lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r} ({source} line {lineno})")
        values[key] = _parse_value(key, raw, f"{source} line {lineno}")
    return values


def apply_overrides(values: dict[str, object], overrides: Iterable[str]) -> dict[str, object]:
    """--set key=value pairs, applied after the file."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key, raw = key.strip(), raw.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r} (--set)")
        out[key] = _parse_value(key, raw, "--set")
    return out


def build_config(values: dict[str, object]) -> ExperimentConfig:
    """Assemble and validate the full config from a values dict."""
    v = values
    world = WorldConfig(
        d=v["world.d"],
        n_base=v["world.n_base"],
        n_new=v["world.n_new"],
        sigma_img=v["world.sigma_img"],
        sigma_text=v["world.sigma_text"],
        interp_lo=v["world.interp_lo"],
        interp_hi=v["world.interp_hi"],
        seed=v["master_seed"],
    )
    translator = TranslatorConfig(
        d_model=v["world.d"],
        n_ctx=v["translator.n_ctx"],
        ffn_mult=v["translator.ffn_mult"],
    )
    optimizer = OptimizerConfig(
        lr0=v["optimizer.lr0"],
        momentum=v["optimizer.momentum"],
        weight_decay=v["optimizer.weight_decay"],
        batch_size=v["optimizer.batch_size"],
        temperature=v["optimizer.temperature"],
    )
    return ExperimentConfig(
        world=world,
        translator=translator,
        optimizer=optimizer,
        n_clients=v["federation.n_clients"],
        classes_per_client=v["federation.classes_per_client"],
        shots=v["federation.shots"],
        rounds=v["federation.rounds"],
        local_epochs=v["federation.local_epochs"],
        fraction=v["federation.fraction"],
        n_test=v["eval.n_test"],
        report_dir=v["eval.report_dir"],
        master_seed=v["master_seed"],
    )


def load_config(path=None, overrides: Iterable[str] = ()) -> ExperimentConfig:
    if path is None:
        values = default_values()
    else:
        with open(path, "r", encoding="utf-8") as f:
            values = parse_config_text(f.read(), source=str(path))
    return build_config(apply_overrides(values, overrides))


def config_values(cfg: ExperimentConfig) -> dict[str, object]:
    """Inverse of build_config: the values dict a config corresponds to."""
    return {
        "master_seed": cfg.master_seed,
        "world.d": cfg.world.d,
        "world.n_base": cfg.world.n_base,
        "world.n_new": cfg.world.n_new,
        "world.sigma_img": cfg.world.sigma_img,
        "world.sigma_text": cfg.world.sigma_text,
        "world.interp_lo": cfg.world.interp_lo,
        "world.interp_hi": cfg.world.interp_hi,
        "translator.n_ctx": cfg.translator.n_ctx,
        "translator.ffn_mult": cfg.translator.ffn_mult,
        "optimizer.lr0": cfg.optimizer.lr0,
        "optimizer.momentum": cfg.optimizer.momentum,
        "optimizer.weight_decay": cfg.optimizer.weight_decay,
        "optimizer.batch_size": cfg.optimizer.batch_size,
        "optimizer.temperature": cfg.optimizer.temperature,
        "federation.n_clients": cfg.n_clients,
        "federation.classes_per_client": cfg.classes_per_client,
        "federation.shots": cfg.shots,
        "federation.rounds": cfg.rounds,
        "federation.local_epochs": cfg.local_epochs,
        "federation.fraction": cfg.fraction,
        "eval.n_test": cfg.n_test,
        "eval.report_dir": cfg.report_dir,
    }


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Sorted key=value serialization; parsing it back is the identity."""
    values = config_values(cfg)
    return "".join(f"{key}={_format_value(values[key])}\n" for key in sorted(values))


ROUND_PREFIX = "# round="


def with_round_marker(config_text: str, round_index: int) -> str:
    """Config echo plus the round marker a checkpoint carries."""
    return f"{config_text}{ROUND_PREFIX}{round_index}\n"


def extract_round(config_text: str) -> int | None:
    for line in config_text.splitlines():
        if line.startswith(ROUND_PREFIX):
            try:
                return int(line[len(ROUND_PREFIX):])
            except ValueError:
                return None
    return None
