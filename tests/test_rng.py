"""Tagged substreams: integer tags are exact or rejected."""

import numpy as np
import pytest

from airfd.rng import substream


def draws(*tags):
    return substream(0, "x", *tags).standard_normal(4)


def test_largest_integer_tag_is_its_own_stream():
    assert not np.array_equal(draws(2**64 - 1), draws(0))
    assert not np.array_equal(draws(2**32), draws(0))


@pytest.mark.parametrize("tag", [-1, 2**64, 2**64 + 5])
def test_integer_tag_outside_64_bits_rejected(tag):
    # 2**64 would otherwise share its two 32-bit words with tag 0.
    with pytest.raises(ValueError, match="2\\*\\*64"):
        substream(0, "x", tag)
