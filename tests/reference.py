"""Reference conversions, plain runs of the merge and permutation
networks, circuit fragments and an identifier-file writer that tests
check the library against; no library code calls them."""

import numpy as np

from depletion.circuit import CircuitBuilder
from depletion.merge import odd_even_merge
from depletion.vulnid import canonicalize
from depletion.waksman import _network, build_network, switch_count


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


def merge_plain(run_a: list[int], run_b: list[int]) -> list[int]:
    """Batcher's merge network run on plain integers."""

    def swap(x, y):
        return (x, y) if x <= y else (y, x)

    return odd_even_merge(swap, run_a, run_b)


def apply_network(bits, items: list) -> list:
    """Route `items` through the Waksman network under a plain control setting."""
    return _network(lambda c, x, y: (y, x) if c else (x, y), bits, items)


def write_identifier_lines(idents) -> str:
    """An identifier file: each identifier's canonical JSON on a line of its own."""
    return "".join(canonicalize(i).decode("utf-8") + "\n" for i in idents)


def build_waksman(n: int, width: int):
    """Standalone permutation fragment: party 0 supplies the control
    bits, parties 1..n the records; outputs are the permuted records.
    """
    b = CircuitBuilder()
    controls = b.input_vector(0, switch_count(n))
    items = [b.input_vector(i + 1, width) for i in range(n)]
    out = build_network(b, controls, items)
    return b.finish(out.ravel())


def ripple_lt(builder, a, b):
    """Strict a < b over equal-width big-endian vectors, one bit at a time
    through `builder`'s vector leaves: the LSB-to-MSB ripple that
    `CircuitBuilder.lt` emits as one block, gate for gate.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    c = builder.xor_v(b[..., -1], builder.and_v(b[..., -1], a[..., -1]))
    for i in range(a.shape[-1] - 2, -1, -1):
        # b_i ^ c and a_i ^ c in one call
        t = builder.xor_v(np.stack([b[..., i], a[..., i]]), c)
        c = builder.xor_v(b[..., i], builder.and_v(t[0], t[1]))
    return c
