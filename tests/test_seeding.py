"""Tests for seed derivation: hash64, rng_for and the bulk rngs_for."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedprompt import seeding
from fedprompt.seeding import hash64, rng_for, rngs_for

INT64 = st.integers(-(2**63), 2**63 - 1)
WORD_BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


class TestHash64:
    @pytest.mark.parametrize("parts, seed", [
        ((0, "world"), 0x32B7EA11A7DE2223),
        ((0, "eval", "base", 0), 0x187970762E76593C),
        ((-1, "data", 3, 7), 0xF492E88CBB36D147),
        ((2**63 - 1, "local", 49, 5), 0xC3674A82BC677350),
    ])
    def test_pinned_values(self, parts, seed):
        assert hash64(*parts) == seed

    def test_tags_keep_parts_apart(self):
        assert len({hash64("a", 1), hash64("a1"), hash64(1, "a")}) == 3

    @pytest.mark.parametrize("part, error", [
        (True, TypeError), (1.0, TypeError), (None, TypeError), (2**63, OverflowError),
    ])
    def test_bad_part_raises_in_both_paths(self, part, error):
        with pytest.raises(error):
            rng_for(0, part)
        with pytest.raises(error):
            rngs_for(0, part, ids=[1, 2])
        with pytest.raises(error):
            rngs_for(0, "eval", ids=[1, part])


class TestBulkStreams:
    @settings(max_examples=40, deadline=None)
    @given(seed=INT64, label=st.text(max_size=8), ids=st.lists(INT64, max_size=12))
    @example(seed=0, label="eval", ids=[])
    @example(seed=-(2**63), label="", ids=[2**63 - 1, -(2**63), 0, 0])
    def test_each_stream_equals_rng_for(self, seed, label, ids):
        rngs = rngs_for(seed, label, ids=ids)
        assert len(rngs) == len(ids)
        for i, rng in zip(ids, rngs):
            assert rng.bit_generator.state == rng_for(seed, label, i).bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    @example(seeds=list(WORD_BOUNDARY_SEEDS))
    def test_seed_words_equal_seed_sequence(self, seeds):
        words = seeding._seed_words(np.array(seeds, dtype=np.uint64))
        for seed, row in zip(seeds, words):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.dtype == np.uint64 and row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64)])
    def test_seed_words_serve_only_pcg64(self, n_words, dtype):
        seed_seq = rngs_for(0, ids=[1])[0].bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed_seq.generate_state(n_words, dtype)
