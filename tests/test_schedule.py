"""The vectorized schedule against the per-gate reference algorithm, and
the vectorized wire-order check of BooleanCircuit."""

import random

import numpy as np
import pytest

from depletion import circuit as C
from depletion import compiler as CP
from depletion import mpc
from depletion.circuit import AND, BooleanCircuit, CircuitBuilder


def reference_schedule(circuit):
    """Per-gate level passes: full levels over the whole circuit, AND
    depths recomputed from zero in every barrier segment."""
    kind, in_a, in_b, out = circuit.kind, circuit.in_a, circuit.in_b, circuit.out
    bounds = [0, *circuit.barriers, circuit.n_gates]
    full_level = np.zeros(circuit.n_wires, dtype=np.int32)
    for g in range(circuit.n_gates):
        full_level[out[g]] = max(full_level[in_a[g]], full_level[in_b[g]]) + 1

    def groups_of(gate_ids):
        if not len(gate_ids):
            return []
        levels = full_level[out[gate_ids]]
        order = np.argsort(levels, kind="stable")
        gate_ids = gate_ids[order]
        splits = np.flatnonzero(np.diff(levels[order])) + 1
        return [(in_a[c], in_b[c], out[c]) for c in np.split(gate_ids, splits)]

    segments = []
    for g0, g1 in zip(bounds, bounds[1:]):
        depth = np.zeros(circuit.n_wires, dtype=np.int32)
        gate_depth = np.empty(g1 - g0, dtype=np.int32)
        for g in range(g0, g1):
            d = max(depth[in_a[g]], depth[in_b[g]]) + (1 if kind[g] == AND else 0)
            depth[out[g]] = d
            gate_depth[g - g0] = d
        ids = np.arange(g0, g1)
        is_and = kind[g0:g1] == AND
        top = int(gate_depth[is_and].max()) if is_and.any() else 0
        layers = []
        for lv in range(1, top + 1):
            ands = ids[is_and & (gate_depth == lv)]
            layers.append((
                groups_of(ids[~is_and & (gate_depth == lv - 1)]),
                (in_a[ands], in_b[ands], out[ands]),
            ))
        segments.append((layers, groups_of(ids[~is_and & (gate_depth == top)])))
    return segments


def assert_same_groups(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert np.array_equal(x, y)


def assert_matches_reference(circuit):
    sched = mpc.build_schedule(circuit)
    ref = reference_schedule(circuit)
    assert len(sched.segments) == len(ref) == len(circuit.barriers) + 1
    for seg, (ref_layers, ref_trailing) in zip(sched.segments, ref):
        assert len(seg.layers) == len(ref_layers)
        for layer, (ref_pre, ref_ands) in zip(seg.layers, ref_layers):
            assert_same_groups(layer.pre_xors, ref_pre)
            assert_same_groups([layer.and_gates], [ref_ands])
        assert_same_groups(seg.trailing_xors, ref_trailing)
    assert sched.and_layers == sum(len(layers) for layers, _ in ref)
    assert sched.and_count == circuit.gate_counts().and_count
    assert circuit.gate_counts().depth_and == sched.and_layers
    assert mpc.build_schedule(circuit) is sched


def random_circuit(rng, barriers):
    b = CircuitBuilder()
    wires = [b.one]
    for party in range(3):
        wires += b.input_vector(party, rng.randint(1, 5))
    gates = rng.randint(0, 120)
    cuts = sorted(rng.randint(0, gates) for _ in range(barriers))
    for g in range(gates + 1):
        while cuts and cuts[0] == g:
            cuts.pop(0)
            b.barrier()
        if g < gates:
            op = rng.choice([b.xor_v, b.and_v, b.and_v])
            wires.append(op(rng.choice(wires), rng.choice(wires)))
    return b.finish(rng.sample(wires, k=min(6, len(wires))))


@pytest.mark.parametrize("barriers", [0, 1, 3])
def test_random_circuits_match_reference(barriers):
    rng = random.Random(100 + barriers)
    for _ in range(40):
        circ = random_circuit(rng, barriers)
        assert_matches_reference(circ)
        assert_matches_reference(C.load_circuit_text(C.save_circuit_text(circ)))


@pytest.mark.parametrize(
    "variant",
    [
        CP.VariantSpec(),
        CP.VariantSpec("at-least-m", 2),
        CP.VariantSpec("fixed-plus-m", 1, (0,)),
    ],
)
def test_compiled_circuits_match_reference(variant):
    cfg = CP.CircuitConfig(n_parties=3, inputs_per_party=3, sigma=8, variant=variant)
    comp = CP.compile_circuit(cfg)
    assert comp.circuit.barriers == (comp.stages[0].gate_range[1],)
    assert_matches_reference(comp.circuit)


def test_barrier_floors_and_depth():
    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    flag = b.and_v(b.and_v(x[0], x[1]), x[0])
    b.barrier()
    late = b.and_v(x[0], x[1])  # depth 1 on its own, 3 after the barrier
    circ = b.finish([flag, late])
    assert circ.wire_depth[late] == 3
    assert circ.gate_counts().depth_and == mpc.build_schedule(circ).and_layers == 3


def _valid_parts():
    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    circ = b.finish([b.and_v(b.xor_v(x[0], x[1]), x[1])])
    return dict(
        n_wires=circ.n_wires,
        kind=circ.kind.tolist(),
        in_a=circ.in_a.tolist(),
        in_b=circ.in_b.tolist(),
        out=circ.out.tolist(),
        input_map=circ.input_map,
        output_wires=circ.output_wires,
    )


def test_direct_construction_replays_levels():
    parts = _valid_parts()
    circ = BooleanCircuit(**parts)
    assert circ.gate_counts().depth_and == 1
    assert circ.wire_level.tolist() == [0, 0, 0, 1, 2]
    assert circ.evaluate({0: [1, 1]}).tolist() == [0]


@pytest.mark.parametrize(
    "field, value",
    [
        ("out", [3, 5]),  # breaks SSA order
        ("in_a", [0, 4]),  # forward reference to the gate's own output
        ("in_b", [-1, 1]),  # negative index
        ("kind", [0, 2]),  # unknown kind
        ("output_wires", [5]),  # undriven output
        ("input_map", {0: [1, 1]}),  # repeated input wire
    ],
)
def test_validate_rejects_broken_gate_lists(field, value):
    parts = _valid_parts()
    parts[field] = value
    with pytest.raises(C.CircuitError):
        BooleanCircuit(**parts)
