"""The vector builder emits the same circuits as the per-gate builder it
replaced: pinned counts, AND depths and schedule shapes, few leaf calls,
and level replay of a loaded circuit equal to the recorded levels."""

import hashlib

import numpy as np
import pytest

from depletion import circuit as C
from depletion import compiler as CP

# Recorded with the per-gate builder: per stage (ANDs, XORs, gate range),
# the AND depth, a SHA-256 prefix of the schedule's per-layer AND counts
# joined by commas, and the number of XOR groups in the schedule.
PINNED = [
    (
        CP.CircuitConfig(3, 16, 64),
        [(2922, 8553, (0, 11475)), (45568, 136348, (11475, 193391)),
         (9231, 18432, (193391, 221054)), (104640, 313920, (221054, 639614))],
        829, "1c8ec004b746e737", 1636,
    ),
    (
        # the `batch` benchmark round: three parties, u = 8, two servers
        CP.CircuitConfig(3, 8, 32, CP.VariantSpec("at-least-m", 2), control_parties=(3, 4)),
        [(690, 1977, (0, 2667)), (8960, 26740, (2667, 38367)),
         (1503, 3052, (38367, 42922)), (14400, 43200, (42922, 100522))],
        361, "58d08b4dc7395f33", 708,
    ),
    (
        # the `recurring` benchmark round: four parties, u = 12
        CP.CircuitConfig(4, 12, 64, CP.VariantSpec("fixed-plus-m", 1, (0,))),
        [(2856, 8364, (0, 11220)), (52171, 156108, (11220, 219499)),
         (6363, 12584, (219499, 238446)), (139520, 418560, (238446, 796526))],
        938, "6468f226e3795da3", 1859,
    ),
    (
        CP.CircuitConfig(5, 3, 8, CP.VariantSpec("fixed-plus-m", 2, (0, 1))),
        [(85, 225, (0, 310)), (1734, 5101, (310, 7145)),
         (477, 747, (7145, 8369)), (4760, 14280, (8369, 27409))],
        195, "b11abdaf1ac4468c", 378,
    ),
]


@pytest.mark.parametrize("cfg, stages, depth_and, layer_digest, xor_groups", PINNED)
def test_compiled_circuit_matches_pinned_shape(cfg, stages, depth_and, layer_digest, xor_groups):
    comp = CP.compile_circuit(cfg)
    assert [(s.and_count, s.xor_count, s.gate_range) for s in comp.stages] == stages
    assert comp.circuit.gate_counts().depth_and == depth_and
    segments = comp.circuit.schedule().segments
    per_layer = [len(layer.and_gates[2]) for seg in segments for layer in seg.layers]
    assert len(per_layer) == depth_and
    digest = hashlib.sha256(",".join(map(str, per_layer)).encode()).hexdigest()
    assert digest[:16] == layer_digest
    groups = sum(len(layer.pre_xors) for seg in segments for layer in seg.layers)
    groups += sum(len(seg.trailing_xors) for seg in segments)
    assert groups == xor_groups
    assert [(s.and_count, s.xor_count, s.gate_range) for s in CP.stage_counts(cfg)] == stages


def test_compile_emits_layers_not_gates(monkeypatch):
    calls = [0]

    def counted(leaf):
        def wrapper(self, a, b):
            calls[0] += 1
            return leaf(self, a, b)

        return wrapper

    for name in ("xor_v", "and_v"):
        monkeypatch.setattr(C.CircuitBuilder, name, counted(getattr(C.CircuitBuilder, name)))
    comp = CP.compile_circuit.__wrapped__(CP.CircuitConfig(3, 16, 64))
    assert comp.circuit.n_gates == 639614
    # one call per gate would be 639 614 calls; a layer per call is a few thousand
    assert calls[0] <= 10_000


def test_loaded_circuit_replays_recorded_levels():
    circ = CP.compile_circuit(PINNED[3][0]).circuit
    loaded = C.load_circuit_text(C.save_circuit_text(circ))
    assert np.array_equal(loaded.wire_level, circ.wire_level)
    assert np.array_equal(loaded.wire_depth, circ.wire_depth)


def test_leaves_broadcast_and_count_alike():
    real, counting = C.CircuitBuilder(), C.CountingBuilder()
    for b in (real, counting):
        x = np.array(b.input_vector(0, 6)).reshape(2, 3)
        c = np.array(b.input_vector(1, 2))
        out = b.and_v(c[:, None], b.xor_v(x, b.one))
        assert out.shape == (2, 3)
        assert b.lt(x, x[::-1]).shape == (2,)
    assert (real.and_count, real.xor_count) == (counting.and_count, counting.xor_count)
    with pytest.raises(C.CircuitError):
        real.xor_v(0, real.n_gates + 100)


def test_finish_hands_over_buffers_without_a_copy():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 4)
    for _ in range(3):
        x = b.xor_v(x, b.and_v(x, x[::-1]))
    kind, level = b._kind, b._level
    circ = b.finish(x)
    assert np.shares_memory(circ.kind, kind) and np.shares_memory(circ.wire_level, level)
    assert len(circ.kind) == circ.n_gates == 24
    assert len(circ.wire_level) == circ.n_wires
