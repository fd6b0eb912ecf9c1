"""Arbitrary-size Waksman permutation networks.

The network on n inputs uses S(n) = S(floor(n/2)) + S(ceil(n/2)) + n - 1
binary switches (n*log2(n) - n + 1 at powers of two) and can realize
every permutation of its inputs. One recursion shape drives three
consumers that must stay in lockstep: plain application of a control
setting, gate-level construction, and the router that turns a target
permutation into a control setting.

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

from .circuit import CircuitBuilder

_TOP, _BOT = 0, 1


class RoutingError(ValueError):
    """The router reached a switch setting that contradicts an earlier one."""


@lru_cache(maxsize=None)
def switch_count(n: int) -> int:
    if n <= 1:
        return 0
    if n == 2:
        return 1
    half = n // 2
    return (n - 1) + switch_count(half) + switch_count(n - half)


def _split_bits(bits, n):
    half = n // 2
    s_top = switch_count(half)
    s_bot = switch_count(n - half)
    n_out = half - 1 + (n % 2)
    if len(bits) != half + s_top + s_bot + n_out:
        raise ValueError(f"expected {switch_count(n)} control bits for n={n}")
    i0 = half
    i1 = i0 + s_top
    i2 = i1 + s_bot
    return bits[:i0], bits[i0:i1], bits[i1:i2], bits[i2:]


def apply_network(bits, items: list) -> list:
    """Route `items` through the network under a plain control setting."""
    n = len(items)
    if n <= 1:
        return list(items)
    if n == 2:
        return [items[1], items[0]] if bits[0] else list(items)
    half = n // 2
    in_bits, top_bits, bot_bits, out_bits = _split_bits(bits, n)
    top_in, bot_in = [], []
    for i in range(half):
        a, c = items[2 * i], items[2 * i + 1]
        if in_bits[i]:
            a, c = c, a
        top_in.append(a)
        bot_in.append(c)
    if n % 2:
        bot_in.append(items[n - 1])
    top_out = apply_network(top_bits, top_in)
    bot_out = apply_network(bot_bits, bot_in)
    out = [None] * n
    for j in range(half - 1 + (n % 2)):
        a, c = top_out[j], bot_out[j]
        if out_bits[j]:
            a, c = c, a
        out[2 * j], out[2 * j + 1] = a, c
    if n % 2:
        out[n - 1] = bot_out[half]
    else:
        out[n - 2], out[n - 1] = top_out[half - 1], bot_out[half - 1]
    return out


def build_network(b, control_wires, items: list) -> list:
    """Gate-level twin of apply_network.

    `items` are equal-width wire vectors; `control_wires` one wire per
    switch in canonical order. Returns the output wire vectors.
    """
    n = len(items)
    if n <= 1:
        return list(items)
    if n == 2:
        lo, hi = b.cond_swap(control_wires[0], items[0], items[1])
        return [lo, hi]
    half = n // 2
    in_bits, top_bits, bot_bits, out_bits = _split_bits(control_wires, n)
    top_in, bot_in = [], []
    for i in range(half):
        a, c = b.cond_swap(in_bits[i], items[2 * i], items[2 * i + 1])
        top_in.append(a)
        bot_in.append(c)
    if n % 2:
        bot_in.append(items[n - 1])
    top_out = build_network(b, top_bits, top_in)
    bot_out = build_network(b, bot_bits, bot_in)
    out = [None] * n
    for j in range(half - 1 + (n % 2)):
        a, c = b.cond_swap(out_bits[j], top_out[j], bot_out[j])
        out[2 * j], out[2 * j + 1] = a, c
    if n % 2:
        out[n - 1] = bot_out[half]
    else:
        out[n - 2], out[n - 1] = top_out[half - 1], bot_out[half - 1]
    return out


def route_permutation(perm) -> list[bool]:
    """Control bits realizing `perm`: output o carries input perm[o].

    Constraint propagation over the switch graph: the removed output
    switch (and, for odd n, the direct bottom wires) seed subnet
    assignments which alternate between the input and output layers;
    remaining free cycles are closed with straight input switches.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    if n <= 1:
        return []
    if n == 2:
        return [perm[0] == 1]
    half = n // 2
    odd = n % 2
    n_out_sw = half - 1 + odd
    inv = [0] * n
    for o, i in enumerate(perm):
        inv[i] = o
    color: list[int | None] = [None] * n
    in_sw: list[bool | None] = [None] * half
    out_sw: list[bool | None] = [None] * n_out_sw

    def assign(i: int, col: int) -> None:
        stack = [(i, col)]
        while stack:
            idx, c = stack.pop()
            if color[idx] is not None:
                if color[idx] != c:
                    raise RoutingError("inconsistent subnet assignment")
                continue
            color[idx] = c
            if odd and idx == n - 1:
                if c != _BOT:
                    raise RoutingError("direct input must use the bottom subnet")
            else:
                s = idx // 2
                val = (idx % 2 == 0) == (c == _BOT)
                if in_sw[s] is None:
                    in_sw[s] = val
                    stack.append((idx ^ 1, _TOP + _BOT - c))
                elif in_sw[s] != val:
                    raise RoutingError("input switch conflict")
            o = inv[idx]
            if odd and o == n - 1:
                if c != _BOT:
                    raise RoutingError("direct output must use the bottom subnet")
            elif not odd and o >= n - 2:
                if c != (_TOP if o == n - 2 else _BOT):
                    raise RoutingError("fixed output pair conflict")
            else:
                t = o // 2
                val = (o % 2 == 0) == (c == _BOT)
                if out_sw[t] is None:
                    out_sw[t] = val
                    stack.append((perm[o ^ 1], _TOP + _BOT - c))
                elif out_sw[t] != val:
                    raise RoutingError("output switch conflict")

    if odd:
        assign(n - 1, _BOT)
        assign(perm[n - 1], _BOT)
    else:
        assign(perm[n - 2], _TOP)
        assign(perm[n - 1], _BOT)
    for i in range(n):
        if color[i] is None:
            assign(i, _TOP)

    def in_slot(i: int) -> int:
        return half if (odd and i == n - 1) else i // 2

    top_perm: list[int] = [0] * half
    bot_perm: list[int] = [0] * (n - half)
    for j in range(n_out_sw):
        o_top = 2 * j + (1 if out_sw[j] else 0)
        o_bot = 2 * j + (0 if out_sw[j] else 1)
        top_perm[j] = in_slot(perm[o_top])
        bot_perm[j] = in_slot(perm[o_bot])
    if odd:
        bot_perm[half] = in_slot(perm[n - 1])
    else:
        top_perm[half - 1] = in_slot(perm[n - 2])
        bot_perm[half - 1] = in_slot(perm[n - 1])
    return (
        [bool(v) for v in in_sw]
        + route_permutation(top_perm)
        + route_permutation(bot_perm)
        + [bool(v) for v in out_sw]
    )


def build_waksman(n: int, width: int):
    """Standalone permutation fragment: party 0 supplies the control
    bits, parties 1..n the records; outputs are the permuted records.
    """
    b = CircuitBuilder()
    controls = b.input_vector(0, switch_count(n))
    items = [b.input_vector(i + 1, width) for i in range(n)]
    out = build_network(b, controls, items)
    return b.finish([w for vec in out for w in vec])
