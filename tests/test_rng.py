"""Seed streams keyed in bulk: every row ``substreams`` keys must be the
stream ``substream`` keys alone, state and draws, on the fast path and on
every fallback."""

import numpy as np
import pytest

from cellcast._rng import substream, substreams


def assert_rows_are_substreams(ids, rows):
    gens = list(substreams(ids))
    assert len(gens) == len(rows)
    for gen, row in zip(gens, rows):
        expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
        assert gen.bit_generator.seed_seq.generate_state(4, np.uint64).tobytes() == expected.tobytes()
        alone = substream(*row)
        assert gen.bit_generator.state == alone.bit_generator.state, row
        assert gen.standard_normal(7).tobytes() == alone.standard_normal(7).tobytes(), row


def test_seeded_rows_of_one_to_four_words():
    """Random rows of 1-4 words below 2**32, a third of the words zero,
    hashed together in one call per width."""
    rng = np.random.default_rng(2021)
    for k in range(1, 5):
        words = rng.integers(0, 2**32, (300, k), dtype=np.uint64)
        words[rng.random(words.shape) < 1 / 3] = 0
        words[0] = 2**32 - 1
        rows = [tuple(int(v) for v in row) for row in words]
        assert_rows_are_substreams(words, rows)
        assert_rows_are_substreams(words.astype(np.int64), rows)


@pytest.mark.parametrize(
    "rows",
    [
        [(2**32, 1), (5, 0)],  # a word past 32 bits is two SeedSequence words
        [(2**70, 3)],  # too wide for any integer dtype
        [(1, 2, 3, 4, 5), (0, 0, 0, 0, 0)],  # more words than the pool holds
    ],
)
def test_rows_off_the_fast_path_fall_back(rows):
    ids = np.array(rows, dtype=object if max(max(r) for r in rows) >= 2**63 else np.uint64)
    assert_rows_are_substreams(ids, rows)


def test_trailing_zeros_share_a_stream():
    """As with SeedSequence, (0, 1) and (0, 1, 0) key one stream."""
    (short,) = substreams(np.array([[0, 1]]))
    (padded,) = substreams(np.array([[0, 1, 0]]))
    assert short.standard_normal(5).tobytes() == padded.standard_normal(5).tobytes()
    assert substream(0, 1).standard_normal(5).tobytes() == substream(0, 1, 0).standard_normal(5).tobytes()


def test_bad_ids_fail_as_substream_fails():
    with pytest.raises(ValueError):
        list(substreams(np.array([[3, -2]])))
    with pytest.raises(TypeError):
        list(substreams(np.array([[1.0, 2.0]])))
    with pytest.raises(ValueError):
        substreams(np.array([1, 2]))
    assert list(substreams(np.empty((0, 2), dtype=np.int64))) == []
