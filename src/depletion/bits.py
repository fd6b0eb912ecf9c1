"""Bit-vector helpers shared across the circuit and protocol layers.

Convention: integers map to bit lists/arrays in big-endian order
(index 0 is the most significant bit).
"""

from __future__ import annotations

import numpy as np


def int_to_bits(value: int, width: int) -> list[int]:
    """Big-endian bit list of `value`, exactly `width` bits."""
    if value < 0 or value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits) -> int:
    """Inverse of int_to_bits; accepts any iterable of 0/1."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def ints_to_bit_array(values, width: int) -> np.ndarray:
    """Stack big-endian bit rows: shape (len(values), width), dtype uint8.

    Raises ValueError, as int_to_bits does, for a negative value or one
    wider than `width`.
    """
    nbytes = (width + 7) // 8
    try:
        blob = b"".join([int(v).to_bytes(nbytes, "big") for v in values])
    except OverflowError:
        raise ValueError(f"a value does not fit in {width} bits") from None
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(len(values), nbytes)
    bits = np.unpackbits(raw, axis=1)
    pad = 8 * nbytes - width
    if bits[:, :pad].any():
        raise ValueError(f"a value does not fit in {width} bits")
    return bits[:, pad:]
