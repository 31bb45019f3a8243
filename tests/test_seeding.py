"""Tests for seed derivation: hash64 and rng_for."""

import pytest

from fedprompt.seeding import hash64, rng_for


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
            hash64("eval", part)
        with pytest.raises(error):
            rng_for(0, part)
