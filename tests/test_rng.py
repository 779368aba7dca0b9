import numpy as np
import pytest

from rislink.rng import substream


def test_substream_is_reproducible_per_key_and_takes_numpy_integers():
    assert substream(3, np.int64(2)).integers(2**62) == substream(3, 2).integers(2**62)
    assert substream(3, 2).integers(2**62) != substream(2, 3).integers(2**62)


# each would otherwise alias the stream of the integer it truncates to: (0,), (1, 2), (1,)
@pytest.mark.parametrize("key", [(0.5,), (1.9, 2), (True,), (0, False), (np.float64(1.0),), ("1",)])
def test_substream_rejects_a_key_entry_that_is_not_an_integer(key):
    with pytest.raises(ValueError, match="substream key entries must be integers"):
        substream(*key)


def test_substream_rejects_an_empty_key():
    with pytest.raises(ValueError, match="at least one integer"):
        substream()
