"""Byte rows: ints to rows to bits against the reference int_to_bits,
the range check, and rows against the ints they hold."""

import numpy as np
import pytest
from reference import bits_to_int, int_to_bits

from depletion.bits import ints_to_rows, random_rows, row_items, rows_to_bits, rows_to_ints


@pytest.mark.parametrize("width", [1, 3, 8, 16, 31, 32, 63, 64, 65, 256])
def test_ints_to_bit_array_matches_int_to_bits(width):
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    values = [0, top, 1, top >> 1] + [
        int.from_bytes(rng.bytes(33), "big") & top for _ in range(20)
    ]
    got = rows_to_bits(ints_to_rows(values, width), width)
    assert got.dtype == np.uint8
    assert got.shape == (len(values), width)
    assert np.array_equal(got, np.array([int_to_bits(v, width) for v in values]))
    assert [bits_to_int(row) for row in got] == values


def test_ints_to_bit_array_accepts_numpy_integers():
    got = rows_to_bits(ints_to_rows(np.array([5, 0, 7], dtype=np.int64), 3), 3)
    assert got.tolist() == [[1, 0, 1], [0, 0, 0], [1, 1, 1]]
    assert rows_to_bits(ints_to_rows([], 5), 5).shape == (0, 5)
    with pytest.raises(ValueError):  # a signed array wraps to 2^64 - 1 unless its sign is checked
        ints_to_rows(np.array([1, -1]), 64)


@pytest.mark.parametrize("value, width", [
    (-1, 8), (8, 3), (256, 8), (1 << 70, 64), (300, 8), (4101, 12),
    (-1, 64), (1 << 64, 64), (-1, 65), (1 << 65, 65), (-1, 72), (1 << 80, 72), (1 << 71, 71),
])
def test_ints_to_bit_array_rejects_what_int_to_bits_rejects(value, width):
    """ints_to_rows raises ValueError for a value outside [0, 2^width),
    on the uint64 path (width <= 64) and the int.to_bytes path alike."""
    with pytest.raises(ValueError):
        int_to_bits(value, width)
    with pytest.raises(ValueError):
        ints_to_rows([1, value], width)


@pytest.mark.parametrize("width", [1, 3, 8, 16, 31, 32, 63, 64, 65, 256])
def test_byte_rows_round_trip_and_order_like_their_ints(width):
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    values = [0, top, 1, top >> 1] + [int.from_bytes(rng.bytes(33), "big") & top for _ in range(20)]
    rows = ints_to_rows(values, width)
    assert rows.shape == (len(values), (width + 7) // 8)
    assert rows_to_ints(rows) == values
    assert np.array_equal(rows_to_bits(rows, width), [int_to_bits(v, width) for v in values])
    assert rows_to_ints(np.sort(row_items(rows)).view(np.uint8).reshape(rows.shape)) == sorted(values)
    drawn = random_rows(rng, (5, 7), width)
    assert drawn.shape == (5, 7, rows.shape[1])
    assert all(0 <= v <= top for row in rows_to_ints(drawn) for v in row)
