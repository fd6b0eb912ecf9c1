"""Bit-vector helpers: the vectorized row builder against int_to_bits."""

import numpy as np
import pytest

from depletion.bits import bits_to_int, int_to_bits, ints_to_bit_array


@pytest.mark.parametrize("width", [1, 3, 8, 16, 31, 32, 63, 64, 65, 256])
def test_ints_to_bit_array_matches_int_to_bits(width):
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    values = [0, top, 1, top >> 1] + [
        int.from_bytes(rng.bytes(33), "big") & top for _ in range(20)
    ]
    got = ints_to_bit_array(values, width)
    assert got.dtype == np.uint8
    assert got.shape == (len(values), width)
    assert np.array_equal(got, np.array([int_to_bits(v, width) for v in values]))
    assert [bits_to_int(row) for row in got] == values


def test_ints_to_bit_array_accepts_numpy_integers():
    got = ints_to_bit_array(np.array([5, 0, 7], dtype=np.int64), 3)
    assert got.tolist() == [[1, 0, 1], [0, 0, 0], [1, 1, 1]]
    assert ints_to_bit_array([], 5).shape == (0, 5)


@pytest.mark.parametrize("value, width", [(-1, 8), (8, 3), (256, 8), (1 << 70, 64)])
def test_ints_to_bit_array_rejects_what_int_to_bits_rejects(value, width):
    with pytest.raises(ValueError):
        int_to_bits(value, width)
    with pytest.raises(ValueError):
        ints_to_bit_array([1, value], width)
