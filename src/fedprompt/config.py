"""Experiment configuration: flat key=value files with dotted sections.

A key is the path of the dataclass field it sets, and one table gives
each key's one-line description; its type and default are read from
that field, so the parser, the serializer and the documentation cannot
drift apart.  A config file lists any subset of keys, later lines
override earlier ones, unknown keys are hard errors naming the key and
line, and --set overrides apply after the file.  Every key is an int or
a float, so every value is one number.

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
        # seeds are hashed as 8-byte two's complement
        if not -2**63 <= self.master_seed < 2**63:
            raise ConfigError(f"master_seed must be in [-2**63, 2**63), got {self.master_seed}")


@dataclass(frozen=True)
class Key:
    type: type
    default: object
    doc: str


_SECTIONS = {"world": WorldConfig, "translator": TranslatorConfig, "optimizer": OptimizerConfig}

# section fields set from another key instead of being keys themselves
_COUPLINGS = {("world", "seed"): "master_seed", ("translator", "d_model"): "world.d"}

# every configuration key and its description; _field_path gives the
# field a key sets
_DOCS = {
    "master_seed": "root seed every stream derives from",
    "world.d": "embedding dimension",
    "world.n_base": "number of base (training) classes",
    "world.n_new": "number of held-out novel classes",
    "world.sigma_img": "image noise scale around class centers",
    "world.sigma_text": "class-name embedding noise scale",
    "world.interp_lo": "lower mixing weight for novel class centers",
    "world.interp_hi": "upper mixing weight for novel class centers",
    "translator.n_ctx": "number of generated context vectors",
    "translator.ffn_mult": "feed-forward expansion factor",
    "optimizer.lr0": "base learning rate before cosine annealing",
    "optimizer.momentum": "SGD momentum coefficient",
    "optimizer.weight_decay": "L2 penalty added to the gradient",
    "optimizer.batch_size": "local minibatch size",
    "optimizer.temperature": "cosine logit divisor",
    "federation.n_clients": "number of simulated clients",
    "federation.classes_per_client": "disjoint classes held by each client",
    "federation.shots": "training samples per class per client",
    "federation.rounds": "communication rounds",
    "federation.local_epochs": "local passes per round",
    "federation.fraction": "participating fraction of clients per round",
    "eval.n_test": "test samples per class",
}


def _field_path(key: str) -> tuple[str | None, str]:
    """(section, field name) a key sets.

    world.*, translator.* and optimizer.* are fields of that section;
    any other key is the ExperimentConfig field named by its last part,
    returned with section None.
    """
    section, _, name = key.rpartition(".")
    return (section if section in _SECTIONS else None), name


def _key(key: str, doc: str) -> Key:
    section, name = _field_path(key)
    owner = _SECTIONS[section] if section else ExperimentConfig
    f = next(f for f in dataclasses.fields(owner) if f.name == name)
    return Key(f.type, f.default, doc)


# the single source of truth for configuration keys
KEYS: dict[str, Key] = {key: _key(key, doc) for key, doc in _DOCS.items()}

# the keys a stored world depends on
WORLD_KEYS = tuple(sorted(
    [key for key in KEYS if _field_path(key)[0] == "world"]
    + [key for (section, _), key in _COUPLINGS.items() if section == "world"]
))


def default_values() -> dict[str, object]:
    return {key: spec.default for key, spec in KEYS.items()}


def _assign(values: dict[str, object], item: str, where: str) -> None:
    """Parse one key=value item into values; where names its source."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    spec = KEYS[key]
    try:
        value = spec.type(raw)
    except ValueError:
        raise ConfigError(
            f"malformed value for {key!r} ({where}): {raw!r} is not {spec.type.__name__}"
        ) from None
    if spec.type is float and not math.isfinite(value):
        raise ConfigError(f"non-finite value for {key!r} ({where}): {raw!r}")
    values[key] = value


def parse_config_text(text: str, source: str = "config") -> dict[str, object]:
    """Values dict from key=value lines; comments and blanks are skipped."""
    values = default_values()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            _assign(values, stripped, f"{source} line {lineno}")
    return values


def apply_overrides(values: dict[str, object], overrides: Iterable[str]) -> dict[str, object]:
    """--set key=value pairs, applied after the file."""
    out = dict(values)
    for item in overrides:
        _assign(out, item, "--set")
    return out


def build_config(values: dict[str, object]) -> ExperimentConfig:
    """Assemble and validate the full config from a values dict."""
    kwargs = {section: {} for section in (None, *_SECTIONS)}
    for key in KEYS:
        section, name = _field_path(key)
        kwargs[section][name] = values[key]
    for (section, name), key in _COUPLINGS.items():
        kwargs[section][name] = values[key]
    sections = {section: cls(**kwargs[section]) for section, cls in _SECTIONS.items()}
    return ExperimentConfig(**sections, **kwargs[None])


def load_config(path=None, overrides: Iterable[str] = ()) -> ExperimentConfig:
    if path is None:
        values = default_values()
    else:
        with open(path, "r", encoding="utf-8") as f:
            values = parse_config_text(f.read(), source=str(path))
    return build_config(apply_overrides(values, overrides))


def config_values(cfg: ExperimentConfig) -> dict[str, object]:
    """Inverse of build_config: the values dict a config corresponds to."""
    values = {}
    for key in KEYS:
        section, name = _field_path(key)
        values[key] = getattr(getattr(cfg, section) if section else cfg, name)
    return values


def canonical_text(cfg: ExperimentConfig) -> str:
    """Sorted key=value serialization; parsing it back is the identity."""
    values = config_values(cfg)
    return "".join(f"{key}={values[key]!r}\n" for key in sorted(values))


def check_world_echo(echo: str, cfg: ExperimentConfig, source: str) -> None:
    """Refuse a stored world whose echo disagrees with cfg on a world key.

    Only the world keys' lines are compared; other lines are ignored, so
    world files written before some other key was removed still load.
    """
    stored = dict(line.split("=", 1) for line in echo.splitlines() if "=" in line)
    values = config_values(cfg)
    for key in WORLD_KEYS:
        want = repr(values[key])
        if stored.get(key) != want:
            got = f"{key}={stored[key]}" if key in stored else f"no {key} line"
            raise ConfigError(f"{source}: world was made with {got}, but this run has {key}={want}")


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
