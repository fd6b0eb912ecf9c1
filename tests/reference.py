"""Reference conversions and circuit fragments that tests check the
library against; no library code calls them."""

from depletion.circuit import CircuitBuilder
from depletion.waksman import build_network, switch_count


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


def build_waksman(n: int, width: int):
    """Standalone permutation fragment: party 0 supplies the control
    bits, parties 1..n the records; outputs are the permuted records.
    """
    b = CircuitBuilder()
    controls = b.input_vector(0, switch_count(n))
    items = [b.input_vector(i + 1, width) for i in range(n)]
    out = build_network(b, controls, items)
    return b.finish(out.ravel())
