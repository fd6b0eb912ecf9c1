"""Arbitrary-size Waksman permutation networks.

The network on n inputs uses S(n) = S(floor(n/2)) + S(ceil(n/2)) + n - 1
binary switches (n*log2(n) - n + 1 at powers of two) and can realize
every permutation of its inputs. One recursion, `_network`, lays the
switches out over a `swap(c, x, y)` callback: on plain values it
applies a control setting (`apply_network`); run once on slot tokens
through `circuit.exchange_layers`, it groups the switches into columns
of independent switches, and `build_network` emits each column as one
`cond_swap` call. The router that turns target permutations into
control settings walks the same layout a level at a time over arrays,
so one call routes a whole stack of permutations.

Layout at each level: floor(n/2) input switches pair inputs (2i, 2i+1)
and feed a top subnetwork of size floor(n/2) and a bottom one of size
ceil(n/2); for odd n the last input enters the bottom directly. Output
switches mirror the input side, with the last one removed (even n: the
final output pair is fixed straight; odd n: the last output leaves the
bottom directly). Control bits are ordered input switches, top
subnetwork, bottom subnetwork, output switches.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import CircuitBuilder, exchange_layers


class RoutingError(ValueError):
    """The router was given something other than permutations of range(n)."""


@lru_cache(maxsize=None)
def switch_count(n: int) -> int:
    if n <= 1:
        return 0
    if n == 2:
        return 1
    half = n // 2
    return (n - 1) + switch_count(half) + switch_count(n - half)


def _network(swap, bits, items: list) -> list:
    """The network on `items` under control `bits` (one per switch, in
    canonical order); `swap(c, x, y)` is one switch and returns its two
    outputs, crossed when c is set."""
    n = len(items)
    if len(bits) != switch_count(n):
        raise ValueError(f"expected {switch_count(n)} control bits for n={n}")
    if n <= 1:
        return list(items)
    if n == 2:
        return list(swap(bits[0], items[0], items[1]))
    half = n // 2
    top_end = half + switch_count(half)
    bot_end = top_end + switch_count(n - half)
    top_in, bot_in = [], []
    for i in range(half):
        a, c = swap(bits[i], items[2 * i], items[2 * i + 1])
        top_in.append(a)
        bot_in.append(c)
    if n % 2:
        bot_in.append(items[n - 1])
    top_out = _network(swap, bits[half:top_end], top_in)
    bot_out = _network(swap, bits[top_end:bot_end], bot_in)
    out = []
    for j in range(half - 1 + (n % 2)):
        out.extend(swap(bits[bot_end + j], top_out[j], bot_out[j]))
    if n % 2:
        out.append(bot_out[half])
    else:
        out += [top_out[half - 1], bot_out[half - 1]]
    return out


def apply_network(bits, items: list) -> list:
    """Route `items` through the network under a plain control setting."""
    return _network(lambda c, x, y: (y, x) if c else (x, y), bits, items)


@lru_cache(maxsize=4)
def _columns(n: int, n_bits: int):
    """The switches of the n-input network grouped into columns of
    independent switches, as (control bit, x, y) rows, and the output
    slot order; `_network` rejects a wrong control-bit count."""
    return exchange_layers(lambda swap, slots: _network(swap, range(n_bits), slots), n)


def build_network(b, control_wires, items) -> np.ndarray:
    """The network as gates: `items` are n equal-width wire vectors,
    `control_wires` one wire per switch. Each column of independent
    switches is one `cond_swap` call over all its switches. Returns the
    (n, width) output vectors."""
    items = np.array(items)
    control = np.asarray(control_wires)
    columns, order = _columns(len(items), len(control))
    for c, x, y in (column.T for column in columns):
        items[x], items[y] = b.cond_swap(control[c], items[x], items[y])
    return items[order]


def _perm_stack(perm) -> tuple[np.ndarray, bool]:
    """Validated (B, n) int64 stack of permutations of range(n), and
    whether `perm` was a single permutation."""
    try:
        arr = np.asarray(perm)
    except ValueError:
        raise RoutingError("permutation rows differ in length") from None
    if arr.ndim not in (1, 2):
        raise RoutingError(f"expected one permutation or a stack, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise RoutingError(f"permutation entries must be integers, got {arr.dtype}")
    stack = np.atleast_2d(arr).astype(np.int64)
    expect = np.broadcast_to(np.arange(stack.shape[1]), stack.shape)
    if not np.array_equal(np.sort(stack, axis=1), expect):
        raise RoutingError("not a permutation")
    return stack, arr.ndim == 1


def _route_level(perms: np.ndarray):
    """Outer switches and subnetwork permutations for a (R, k) stack, k >= 3.

    Input i and its input partner i^1 use different subnets, and so do
    the inputs perm[o] and perm[o^1] of an output pair; odd k gains a
    virtual input and output k that closes the last pair. Every node then
    lies on one cycle that alternates the two partner kinds, and
    `step` (input partner, then output partner) walks each color class.
    One anchor per row (perm[k-2] for even k, the virtual node for odd k)
    goes top, as does the smallest node of every other cycle, which is
    the choice the constraint-propagation router makes. Each node's key
    is its id, the anchor's is -1; pointer jumping gives each node the
    least key in its class, and the class holding its cycle's least key
    is top.
    """
    r, k = perms.shape
    half = k // 2
    if k % 2:
        perms = np.concatenate([perms, np.full((r, 1), k, dtype=perms.dtype)], axis=1)
    m = perms.shape[1]
    # Flat ids: node j and output position o of row i are i*m + j and
    # i*m + o, so both partner maps are `^ 1` and every row's cycles stay
    # in its own id range.
    row = np.arange(0, r * m, m)[:, None]
    ids = np.arange(r * m)
    carried = (perms + row).ravel()  # flat node at each flat output position
    position = np.empty_like(carried)
    position[carried] = ids
    step = carried[position[ids ^ 1] ^ 1]
    key = ids.copy()
    key[carried[m - 2 :: m] if k % 2 == 0 else row[:, 0] + k] = -1
    for _ in range((m // 2 - 1).bit_length()):
        key = np.minimum(key, key[step])
        step = step[step]
    top = key < key[ids ^ 1]
    first, second = carried[0::2], carried[1::2]
    first_top = top[first]
    in_sw = ~top.reshape(r, m)[:, 0 : 2 * half : 2]
    out_sw = ~first_top.reshape(r, m // 2)[:, :-1]
    top_perm = (np.where(first_top, first, second).reshape(r, m // 2)[:, :half] - row) // 2
    bot_perm = (np.where(first_top, second, first).reshape(r, m // 2) - row) // 2
    return in_sw, out_sw, top_perm, bot_perm


def route_permutation(perm) -> np.ndarray:
    """Control bits realizing `perm`: output o carries input perm[o].

    `perm` is one permutation of range(n), giving a uint8 array of
    switch_count(n) bits, or a (B, n) stack of them, giving (B,
    switch_count(n)). The network is routed a level at a time: every
    subnetwork of one size, across all rows, is routed by one call of
    `_route_level`, whose subnetwork permutations make up the next
    level's stacks. Raises RoutingError (a ValueError) unless every row
    is a permutation of range(n).
    """
    stack, single = _perm_stack(perm)
    rows, n = stack.shape
    size = switch_count(n)
    bits = np.zeros((rows, size), dtype=np.uint8)
    flat = bits.reshape(-1)
    # (permutations, flat position of their first control bit) per size
    level = {n: [(stack, np.arange(rows) * size)]}
    while level:
        below: dict[int, list] = {}
        for k, parts in level.items():
            perms, base = (np.concatenate(a) for a in zip(*parts))
            if k == 2:
                flat[base] = perms[:, 0]
            if k <= 2:
                continue
            in_sw, out_sw, top_perm, bot_perm = _route_level(perms)
            half = k // 2
            top_base = base + half
            bot_base = top_base + switch_count(half)
            out_base = bot_base + switch_count(k - half)
            flat[base[:, None] + np.arange(half)] = in_sw
            flat[out_base[:, None] + np.arange(out_sw.shape[1])] = out_sw
            below.setdefault(half, []).append((top_perm, top_base))
            below.setdefault(k - half, []).append((bot_perm, bot_base))
        level = below
    return bits[0] if single else bits


def build_waksman(n: int, width: int):
    """Standalone permutation fragment: party 0 supplies the control
    bits, parties 1..n the records; outputs are the permuted records.
    """
    b = CircuitBuilder()
    controls = b.input_vector(0, switch_count(n))
    items = [b.input_vector(i + 1, width) for i in range(n)]
    out = build_network(b, controls, items)
    return b.finish(out.ravel())
