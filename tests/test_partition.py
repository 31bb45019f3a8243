"""Tests for class partitioning and client dataset construction."""

import numpy as np
import pytest

from fedprompt.errors import ConfigError
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(d=16, n_base=30, n_new=5, seed=9))


class TestPartition:
    def test_disjoint_cover(self):
        blocks = partition_classes(60, 6, 10, seed=1)
        assert len(blocks) == 6
        flat = [c for block in blocks for c in block]
        assert len(flat) == 60
        assert len(set(flat)) == 60
        assert set(flat) <= set(range(60))

    def test_blocks_sorted(self):
        for block in partition_classes(60, 6, 10, seed=2):
            assert block == sorted(block)

    def test_deterministic(self):
        assert partition_classes(50, 4, 5, seed=3) == partition_classes(50, 4, 5, seed=3)

    def test_seed_changes_assignment(self):
        assert partition_classes(50, 4, 5, seed=4) != partition_classes(50, 4, 5, seed=5)

    def test_partial_coverage_allowed(self):
        blocks = partition_classes(100, 3, 7, seed=6)
        assert sum(len(b) for b in blocks) == 21

    def test_capacity_exceeded(self):
        with pytest.raises(ConfigError, match="need 60 base classes"):
            partition_classes(59, 6, 10, seed=7)

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            partition_classes(10, 0, 5, seed=8)


class TestClientDataset:
    def test_shapes_and_labels(self, world):
        ds = build_client_dataset(world, [4, 2, 9], shots=3, seed=1, client_id=0)
        assert ds.class_ids == (2, 4, 9)
        assert ds.images.shape == (9, 16)
        assert list(ds.labels) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert len(ds) == 9

    def test_deterministic(self, world):
        a = build_client_dataset(world, [1, 2], shots=4, seed=2, client_id=3)
        b = build_client_dataset(world, [1, 2], shots=4, seed=2, client_id=3)
        assert np.array_equal(a.images, b.images)

    def test_stream_isolated_per_client(self, world):
        a = build_client_dataset(world, [1, 2], shots=4, seed=2, client_id=0)
        b = build_client_dataset(world, [1, 2], shots=4, seed=2, client_id=1)
        assert not np.array_equal(a.images, b.images)

    def test_class_draws_independent_of_companions(self, world):
        # class 5's shots are identical whether it shares the client
        # with class 1 or class 20
        a = build_client_dataset(world, [5, 1], shots=3, seed=4, client_id=2)
        b = build_client_dataset(world, [5, 20], shots=3, seed=4, client_id=2)
        a_rows = a.images[a.labels == a.class_ids.index(5)]
        b_rows = b.images[b.labels == b.class_ids.index(5)]
        assert np.array_equal(a_rows, b_rows)

    def test_images_unit_norm(self, world):
        ds = build_client_dataset(world, [0, 7], shots=5, seed=5, client_id=1)
        norms = np.linalg.norm(ds.images, axis=1)
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-9)

    def test_duplicate_classes_rejected(self, world):
        with pytest.raises(ConfigError):
            build_client_dataset(world, [1, 1], shots=2, seed=6, client_id=0)

    def test_zero_shots_rejected(self, world):
        with pytest.raises(ConfigError):
            build_client_dataset(world, [1], shots=0, seed=7, client_id=0)
