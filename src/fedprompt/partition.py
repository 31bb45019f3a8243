"""Disjoint class assignment and per-client few-shot datasets.

Clients see non-overlapping class subsets: a seeded shuffle of the base
class ids is cut into consecutive blocks, one block per client.  Each
client then samples a fixed number of shots per class.  Every
(client, class) pair draws from its own derived stream, so one client's
data never depends on how many other clients exist or in what order
datasets are built.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt.errors import ConfigError
from fedprompt.seeding import rng_for
from fedprompt.world import SyntheticWorld, sample_image


def partition_classes(
    n_base: int, n_clients: int, classes_per_client: int, seed: int
) -> list[list[int]]:
    """Split base class ids into disjoint per-client blocks.

    Returns n_clients sorted lists of classes_per_client ids each.  The
    shuffle is a derived stream of the master seed, so the same seed
    always yields the same assignment.
    """
    if n_clients < 1 or classes_per_client < 1:
        raise ConfigError("n_clients and classes_per_client must be positive")
    need = n_clients * classes_per_client
    if need > n_base:
        raise ConfigError(
            f"{n_clients} clients x {classes_per_client} classes need {need} "
            f"base classes, only {n_base} available"
        )
    ids = np.arange(n_base)
    rng_for(seed, "partition").shuffle(ids)
    return [
        sorted(int(c) for c in ids[i * classes_per_client : (i + 1) * classes_per_client])
        for i in range(n_clients)
    ]


@dataclass(frozen=True)
class FewShotSet:
    """One client's training data: images plus local labels.

    Local label j corresponds to global class class_ids[j]; class_ids is
    sorted ascending.
    """

    class_ids: tuple[int, ...]
    images: np.ndarray  # [n_classes * shots, d]
    labels: np.ndarray  # [n_classes * shots] ints into class_ids

    def __len__(self) -> int:
        return len(self.labels)


def build_client_dataset(
    world: SyntheticWorld, client_classes, shots: int, seed: int, client_id: int
) -> FewShotSet:
    """Sample the few-shot training set for one client.

    Shots for each class come from the stream derived from
    (seed, "data", client_id, class_id), in local label order.
    """
    if shots < 1:
        raise ConfigError(f"shots must be positive, got {shots}")
    class_ids = tuple(sorted(int(c) for c in client_classes))
    if len(set(class_ids)) != len(class_ids):
        raise ConfigError("client class list contains duplicates")
    images = [
        sample_image(world, class_id, rng_for(seed, "data", client_id, class_id), shots)
        for class_id in class_ids
    ]
    labels = np.repeat(np.arange(len(class_ids), dtype=np.int64), shots)
    return FewShotSet(class_ids, np.concatenate(images), labels)
