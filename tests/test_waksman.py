"""Waksman network: topology, routing, and the circuit fragment.

The array router is checked bit for bit against `reference_route`, the
recursive constraint-propagation router it replaced, kept here verbatim.
"""

import itertools
import math
import random

import numpy as np
import pytest
from reference import apply_network, bits_to_int, build_waksman

from depletion import waksman as W
from depletion.bits import ints_to_rows, rows_to_bits

_TOP, _BOT = 0, 1


def reference_route(perm) -> list[bool]:
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
                    raise W.RoutingError("inconsistent subnet assignment")
                continue
            color[idx] = c
            if odd and idx == n - 1:
                if c != _BOT:
                    raise W.RoutingError("direct input must use the bottom subnet")
            else:
                s = idx // 2
                val = (idx % 2 == 0) == (c == _BOT)
                if in_sw[s] is None:
                    in_sw[s] = val
                    stack.append((idx ^ 1, _TOP + _BOT - c))
                elif in_sw[s] != val:
                    raise W.RoutingError("input switch conflict")
            o = inv[idx]
            if odd and o == n - 1:
                if c != _BOT:
                    raise W.RoutingError("direct output must use the bottom subnet")
            elif not odd and o >= n - 2:
                if c != (_TOP if o == n - 2 else _BOT):
                    raise W.RoutingError("fixed output pair conflict")
            else:
                t = o // 2
                val = (o % 2 == 0) == (c == _BOT)
                if out_sw[t] is None:
                    out_sw[t] = val
                    stack.append((perm[o ^ 1], _TOP + _BOT - c))
                elif out_sw[t] != val:
                    raise W.RoutingError("output switch conflict")

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
        + reference_route(top_perm)
        + reference_route(bot_perm)
        + [bool(v) for v in out_sw]
    )


def reference_stack(perms) -> np.ndarray:
    return np.array(
        [reference_route(p) for p in perms.tolist()], dtype=np.uint8
    ).reshape(len(perms), W.switch_count(perms.shape[1]))


def test_router_matches_reference_on_every_small_permutation():
    for n in range(8):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        perms = perms.reshape(math.factorial(n), n)
        got = W.route_permutation(perms)
        assert got.shape == (len(perms), W.switch_count(n))
        assert np.array_equal(got, reference_stack(perms)), n


@pytest.mark.parametrize("n", [*range(8, 71), 96, 100, 128, 257])
def test_router_matches_reference_on_random_stacks(n):
    rng = np.random.default_rng(n)
    for batch in (1, 3, 512):
        perms = rng.permuted(np.tile(np.arange(n), (batch, 1)), axis=1)
        assert np.array_equal(W.route_permutation(perms), reference_stack(perms)), batch


def test_router_rows_equal_single_calls():
    rng = np.random.default_rng(5)
    for n in (3, 10, 33):
        perms = rng.permuted(np.tile(np.arange(n), (6, 1)), axis=1)
        stacked = W.route_permutation(perms)
        for row, perm in zip(stacked, perms):
            single = W.route_permutation(perm.tolist())
            assert single.shape == (W.switch_count(n),)
            assert np.array_equal(row, single)


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 1],
        [0, 1, 3],
        [-1, 0, 1],
        [[0, 1, 2], [2, 2, 0]],
        [[0, 1, 2], [0, 3, 1]],
        [[0, 1, 2], [0, 1]],
        [[[0, 1]]],
        [0.0, 1.0],
    ],
)
def test_router_rejects_non_permutations(perm):
    with pytest.raises(W.RoutingError):  # a ValueError
        W.route_permutation(perm)


def test_switch_count_power_of_two_formula():
    for k in range(1, 8):
        n = 1 << k
        assert W.switch_count(n) == n * k - n + 1


def test_switch_count_recurrence_misc():
    assert [W.switch_count(n) for n in range(1, 9)] == [0, 1, 3, 5, 8, 11, 14, 17]


def test_identity_and_single_swap():
    items = list("abcd")
    assert apply_network([False] * W.switch_count(4), items) == items
    assert apply_network([True], ["x", "y"]) == ["y", "x"]


def test_route_exhaustive_small():
    for n in range(1, 8):
        for perm in itertools.permutations(range(n)):
            bits = W.route_permutation(list(perm))
            assert len(bits) == W.switch_count(n)
            got = apply_network(bits, list(range(n)))
            assert got == [perm[o] for o in range(n)], (perm, got)


def test_route_random_large():
    rng = random.Random(23)
    for n in [9, 13, 16, 27, 40, 64]:
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            got = apply_network(W.route_permutation(perm), list(range(n)))
            assert got == perm


def test_all_n4_settings_are_permutations_and_cover_all():
    reached = set()
    for bits in itertools.product([False, True], repeat=W.switch_count(4)):
        out = apply_network(list(bits), list(range(4)))
        assert sorted(out) == [0, 1, 2, 3]
        reached.add(tuple(out))
    assert len(reached) == 24


def test_circuit_fragment_matches_plain_application():
    rng = random.Random(4)
    width = 3
    for n in [2, 3, 5, 8]:
        circ = build_waksman(n, width)
        assert len(circ.input_map[0]) == W.switch_count(n)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            bits = W.route_permutation(perm)
            values = [rng.randint(0, 7) for _ in range(n)]
            inputs = {0: [int(v) for v in bits]}
            for i, val in enumerate(values):
                inputs[i + 1] = rows_to_bits(ints_to_rows([val], width), width)[0]
            got = circ.evaluate(inputs)
            out = [bits_to_int(got[i * width : (i + 1) * width]) for i in range(n)]
            assert out == [values[perm[o]] for o in range(n)]
            assert out == apply_network(bits, values)


def test_random_controls_preserve_multiset_n8():
    rng = np.random.default_rng(9)
    n, width, runs = 8, 4, 1000
    circ = build_waksman(n, width)
    controls = rng.integers(0, 2, size=(W.switch_count(n), runs), dtype=np.uint8)
    inputs = {0: controls}
    for i in range(n):
        inputs[i + 1] = np.tile(
            rows_to_bits(ints_to_rows([i + 3], width), width).T, (1, runs)
        )
    got = circ.evaluate(inputs)
    for k in range(runs):
        out = sorted(bits_to_int(got[i * width : (i + 1) * width, k]) for i in range(n))
        assert out == [i + 3 for i in range(n)]


def test_power_of_two_control_wire_contract():
    for n in [2, 4, 8, 16]:
        circ = build_waksman(n, 1)
        assert len(circ.input_map[0]) == n * (n.bit_length() - 1) - n + 1


def test_counting_matches_materialized_gate_counts():
    from depletion.circuit import CircuitBuilder, CountingBuilder

    for n in [2, 3, 5, 6, 9]:
        width = 4
        real = CircuitBuilder()
        controls = real.input_vector(0, W.switch_count(n))
        items = [real.input_vector(1, width) for _ in range(n)]
        W.build_network(real, controls, items)

        cnt = CountingBuilder()
        controls = cnt.input_vector(0, W.switch_count(n))
        items = [cnt.input_vector(1, width) for _ in range(n)]
        W.build_network(cnt, controls, items)

        assert (real.and_count, real.xor_count) == (cnt.and_count, cnt.xor_count)
        assert real.and_count == W.switch_count(n) * width
