"""The vector builder emits the same circuits as the per-gate builder it
replaced: pinned counts, AND depths and schedule shapes, and few leaf
calls. Its `lt` block equals the per-bit ripple gate for gate, and its
buffers grow in place."""

import hashlib
import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ripple_lt

from depletion import circuit as C
from depletion import compiler as CP

# Recorded with the per-gate builder: per stage (ANDs, XORs, gate range),
# and the AND depth of the schedule that opened SortCheck's flags before
# any later gate ran, so that every later AND depth started above
# SortCheck's. Recorded with the one-pass schedule: a SHA-256 prefix of
# its per-layer AND counts joined by commas, and its number of XOR groups.
# The last item is a SHA-256 prefix of the gate list and the full levels
# (kind, in_a, in_b, out and wire_level, each as little-endian int32),
# which both schedules share. Every item was re-recorded when the Shuffle
# came to permute the N*u selected keys before each was output twice;
# the gates up to the end of DupSelect stayed as recorded, apart from the
# shift of wire numbers by the fewer control inputs. Every item was
# re-recorded again when a record came to carry one key k, `v | k | tag`,
# with DupSelect XORing its select bit into every bit of k instead of a
# mux of two keys: SortCheck's gates stayed as recorded, apart from wire
# numbers, and every circuit lost one AND layer.
PINNED = [
    (
        # at-least-two; re-recorded when it became the windowed selection
        # with m = 2, which costs fewer ANDs and one more AND layer
        CP.CircuitConfig(3, 16, 64),
        [(2922, 8553, (0, 11475)), (34176, 102172, (11475, 147823)),
         (3007, 9180, (147823, 160010)), (43200, 129600, (160010, 332810))],
        823, "92a366ef96cdd53e", 1497, "bb8c8c43e0798af5",
    ),
    (
        # the `batch` benchmark round: three parties, u = 8, two servers
        CP.CircuitConfig(3, 8, 32, CP.VariantSpec("at-least-m", 2), control_parties=(3, 4)),
        [(690, 1977, (0, 2667)), (6720, 20020, (2667, 29407)),
         (735, 2284, (29407, 32426)), (5696, 17088, (32426, 55210))],
        356, "41e5e475b3c334d7", 633, "235810aabd3112e2",
    ),
    (
        # the `recurring` benchmark round: four parties, u = 12
        CP.CircuitConfig(4, 12, 64, CP.VariantSpec("fixed-plus-m", 1, (0,))),
        [(2856, 8364, (0, 11220)), (39179, 117132, (11220, 167531)),
         (3291, 9512, (167531, 180334)), (57600, 172800, (180334, 410734))],
        929, "afb03dcd111334e7", 1670, "a5a9a09e6884ca4f",
    ),
    (
        CP.CircuitConfig(5, 3, 8, CP.VariantSpec("fixed-plus-m", 2, (0, 1))),
        [(85, 225, (0, 310)), (1326, 3877, (310, 5513)),
         (357, 627, (5513, 6497)), (1800, 5400, (6497, 13697))],
        184, "6e577c462d4129a1", 333, "9483e97407e371ef",
    ),
]


@pytest.mark.parametrize(
    "cfg, stages, split_depth, layer_digest, xor_groups, gate_digest", PINNED,
    # fixed, so that a re-recorded pin keeps the test's name
    ids=["at-least-two-n3-u16", "batch-round", "recurring-round", "fixed-plus-m-n5-u3"],
)
def test_compiled_circuit_matches_pinned_shape(
    cfg, stages, split_depth, layer_digest, xor_groups, gate_digest
):
    comp = CP.compile_circuit(cfg)
    circ = comp.circuit
    assert [(s.and_count, s.xor_count, s.gate_range) for s in comp.stages] == stages
    gates = hashlib.sha256()
    # the wires the gates drive, which the circuit no longer stores, keep
    # their place in the digest
    drives = np.arange(1 + circ.n_input_wires, circ.n_wires)
    for arr in (circ.kind, circ.in_a, circ.in_b, drives, circ.wire_level):
        gates.update(np.ascontiguousarray(arr, dtype="<i4").tobytes())
    assert gates.hexdigest()[:16] == gate_digest
    # one pass saves exactly SortCheck's layers: the rest of the circuit
    # is deeper than SortCheck and does not read its flags
    sort_check_depth = int(circ.wire_depth[slice(*comp.stages[0].wire_range)].max())
    depth_and = circ.gate_counts().depth_and
    assert depth_and == split_depth - sort_check_depth
    schedule = circ.schedule()
    per_layer = [layer.and_gates[1].shape[1] for layer in schedule.layers]
    # each layer's distinct inputs, indexed by `idx`, give its ANDs' inputs
    # in the order that the layer's gates hold them
    first = 1 + circ.n_input_wires
    for inputs, idx, out in (layer.and_gates for layer in schedule.layers):
        gates = (np.arange(out.start, out.stop) if isinstance(out, slice) else out) - first
        assert np.array_equal(inputs[idx], np.stack([circ.in_a[gates], circ.in_b[gates]]))
    assert len(per_layer) == schedule.and_layers == depth_and
    assert min(per_layer) >= 1
    digest = hashlib.sha256(",".join(map(str, per_layer)).encode()).hexdigest()
    assert digest[:16] == layer_digest
    groups = sum(len(layer.pre_xors) for layer in schedule.layers) + len(schedule.trailing_xors)
    assert groups == xor_groups
    assert [(s.and_count, s.xor_count, s.gate_range) for s in CP.stage_counts(cfg)] == stages


def test_compile_emits_layers_not_gates(monkeypatch):
    calls = [0]

    def counted(leaf):
        def wrapper(self, a, b):
            calls[0] += 1
            return leaf(self, a, b)

        return wrapper

    for name in ("xor_v", "and_v", "lt"):
        monkeypatch.setattr(C.CircuitBuilder, name, counted(getattr(C.CircuitBuilder, name)))
    comp = CP.compile_circuit.__wrapped__(CP.CircuitConfig(3, 16, 64))
    assert comp.circuit.n_gates == 332810
    # one call per gate would be 332 810 calls, and a comparator emitted
    # bit by bit about 190 calls each; a layer per call is a few hundred
    assert calls[0] <= 400


@st.composite
def lt_cases(draw):
    """A builder prelude of random gates, so that operand wires sit at
    mixed levels and AND depths, and two lt operands over its wires:
    widths 1-9, 0-5 instances in up to two axes, each operand's instance
    shape broadcast from a shorter or size-1 one."""
    width = draw(st.integers(1, 9))
    shape = tuple(draw(st.lists(st.integers(0, 5), max_size=2).filter(lambda s: np.prod(s) <= 5)))
    n_inputs = draw(st.integers(1, 6))
    prelude = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99)),
                            max_size=30))
    n_wires = 1 + n_inputs + len(prelude)

    def operand():
        keep = draw(st.integers(0, len(shape)))
        own = tuple(d if draw(st.booleans()) else 1 for d in shape[len(shape) - keep:])
        size = int(np.prod(own)) * width
        picks = draw(st.lists(st.integers(0, n_wires - 1), min_size=size, max_size=size))
        return own, picks

    return width, n_inputs, prelude, operand(), operand()


def _prelude_wires(b, n_inputs, prelude):
    wires = [b.one, *b.input_vector(0, n_inputs)]
    for is_and, i, j in prelude:
        leaf = b.and_v if is_and else b.xor_v
        wires.append(int(leaf(wires[i % len(wires)], wires[j % len(wires)])))
    return np.array(wires)


@settings(max_examples=300, deadline=None)
@given(lt_cases())
def test_lt_block_matches_per_bit_reference(case):
    width, n_inputs, prelude, (shape_a, picks_a), (shape_b, picks_b) = case
    circuits = []
    for lt in (C.CircuitBuilder.lt, ripple_lt):
        b = C.CircuitBuilder()
        wires = _prelude_wires(b, n_inputs, prelude)
        a = wires[picks_a].reshape(*shape_a, width)
        c = wires[picks_b].reshape(*shape_b, width)
        out = lt(b, a, c)
        assert out.shape == np.broadcast_shapes(shape_a, shape_b)
        circuits.append((out, b.and_count, b.finish(np.ravel(out))))
    (out, ands, circ), (ref_out, ref_ands, ref) = circuits
    assert np.array_equal(out, ref_out) and ands == ref_ands
    for name in ("kind", "in_a", "in_b", "wire_level", "wire_depth"):
        assert np.array_equal(getattr(circ, name), getattr(ref, name)), name


@pytest.mark.parametrize("bad", [3, -1])
def test_lt_refuses_an_undriven_operand_before_emitting(bad):
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)  # wires 0-2 are driven, wire 3 is not
    with pytest.raises(C.CircuitError):
        b.lt([[x[0], bad], x], [x, x])
    assert b.n_gates == 0


def test_leaves_broadcast_and_count_alike():
    real, counting = C.CircuitBuilder(), C.CountingBuilder()
    for b in (real, counting):
        x = np.array(b.input_vector(0, 6)).reshape(2, 3)
        c = np.array(b.input_vector(1, 2))
        out = b.and_v(c[:, None], b.xor_v(x, b.one))
        assert out.shape == (2, 3)
        assert b.lt(x, x[::-1]).shape == (2,)
    assert (real.and_count, real.xor_count) == (counting.and_count, counting.xor_count)
    for bad in (real.n_gates + 100, -1):
        with pytest.raises(C.CircuitError):
            real.xor_v(0, bad)


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


def test_buffers_grow_in_place_and_keep_their_contents():
    b = C.CircuitBuilder()
    x = np.array(b.input_vector(0, 64))
    maps = [buf.base.obj for buf in (b._kind, b._a, b._b, b._level, b._depth)]
    for _ in range(40):  # 190 gates each, well past the first capacity
        x = b.xor_v(x, b.lt(x[:32], x[32:]))
    assert len(b._kind) > 1024
    grown = (b._kind, b._a, b._b, b._level, b._depth)
    assert all(buf.base.obj is mm for buf, mm in zip(grown, maps))
    ref = C.CircuitBuilder()
    y = np.array(ref.input_vector(0, 64))
    circ, head = b.finish(x), ref.finish([ref.lt(y[:32], y[32:])])
    for name in ("kind", "in_a", "in_b", "wire_level", "wire_depth"):
        assert np.array_equal(getattr(circ, name)[:len(getattr(head, name))], getattr(head, name))


def test_grown_copies_where_the_map_cannot_resize():
    class Fixed(mmap.mmap):
        def resize(self, newsize):
            raise SystemError("no mremap")

    old = Fixed(-1, 4 * 3, flags=C._MAP_FLAGS)
    np.frombuffer(memoryview(old), dtype=np.int32)[:] = [7, 8, 9]
    grown = C._grown(old, np.int32, 5)
    assert grown.tolist() == [7, 8, 9, 0, 0]
    assert grown.base.obj is not old
