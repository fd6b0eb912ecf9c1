"""Boolean circuit IR over {XOR, AND} with batched evaluation.

Wire 0 is the constant-one wire; NOT is expressed as XOR with it.
Input wires follow the constant, gate outputs follow the inputs, so a
circuit is a static single-assignment gate list in topological order.

Two builders share every construction routine through two vector
leaves, `xor_v` and `and_v`, which emit one gate per element of their
broadcast operand arrays. The blocks (comparators, equality tests,
muxes, conditional swaps, balanced folds) work on arrays whose leading
axes are instances, so one call emits a whole layer of them, and
`exchange_layers` groups the exchanges of a comparator or switch
network into such layers. `CircuitBuilder` materializes the gates;
`CountingBuilder` only adds up the sizes of its leaf calls, so
benchmark-scale circuits (10^8 gates) are counted by the same code
without being built.

`CircuitBuilder` records each wire's full topological level and AND
depth as it emits the gates, and `barrier()` marks where a reactive
opening splits evaluation (later gates get AND depths above every
earlier one). From those facts `BooleanCircuit.schedule()` derives, with
one sort per segment, the layered plan that both the plaintext evaluator
and the MPC engine run; `gate_counts().depth_and` is its number of AND
layers.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

XOR = 0
AND = 1


class CircuitError(Exception):
    """Base class for circuit construction/evaluation failures."""


class MissingInput(CircuitError):
    """An input party or input wire was left unassigned."""


class WidthMismatch(CircuitError):
    """An input bit vector does not match its declared wire count."""


@dataclass(frozen=True)
class GateCounts:
    and_count: int
    xor_count: int
    depth_and: int

    @property
    def total(self) -> int:
        return self.and_count + self.xor_count


@dataclass
class Layer:
    """XOR groups computable before one AND round, then that round's ANDs.

    Each group is (in_a, in_b, out) index arrays of mutually independent
    gates.
    """

    pre_xors: list
    and_gates: tuple


@dataclass
class Segment:
    """AND layers between two reactive openings, then the XORs after them."""

    layers: list
    trailing_xors: list


@dataclass
class Schedule:
    segments: list
    and_layers: int
    and_count: int


def _wire_indices(values) -> np.ndarray:
    """Wire indices as int32; an int32 buffer is adopted without a copy."""
    arr = np.asarray(values)
    if arr.dtype == np.int32:
        return arr
    arr = np.asarray(values, dtype=np.int64)
    limit = np.iinfo(np.int32)
    if arr.size and (arr.min() < limit.min or arr.max() > limit.max):
        raise CircuitError("wire index does not fit in 32 bits")
    return arr.astype(np.int32)


class BooleanCircuit:
    """Immutable gate list with per-party input map and output wires.

    `wire_level` (full topological level) and `wire_depth` (AND depth)
    hold one entry per wire, as `CircuitBuilder` recorded them while it
    emitted the gates; `barriers` are the gate indices where evaluation
    must stop for a reactive opening. A circuit made without levels (a
    loaded text file, a hand-built gate list) gets them by replaying its
    gates through a `CircuitBuilder`.
    """

    def __init__(self, n_wires, kind, in_a, in_b, out, input_map, output_wires,
                 *, wire_level=None, wire_depth=None, barriers=()):
        self.n_wires = int(n_wires)
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.in_a = _wire_indices(in_a)
        self.in_b = _wire_indices(in_b)
        self.out = _wire_indices(out)
        self.input_map = {int(p): list(map(int, ws)) for p, ws in input_map.items()}
        self.output_wires = list(map(int, output_wires))
        self.barriers = tuple(map(int, barriers))
        self.const_one = 0
        self._validate()
        if wire_level is None or wire_depth is None:
            wire_level, wire_depth = _replay_levels(self)
        self.wire_level = np.asarray(wire_level, dtype=np.int32)
        self.wire_depth = np.asarray(wire_depth, dtype=np.int32)
        self._schedule = None

    # -- structure ---------------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.kind)

    @property
    def n_input_wires(self) -> int:
        return sum(len(ws) for ws in self.input_map.values())

    def _validate(self) -> None:
        n_in, n_gates = self.n_input_wires, self.n_gates
        if not len(self.in_a) == len(self.in_b) == len(self.out) == n_gates:
            raise CircuitError("gate arrays differ in length")
        if self.n_wires != 1 + n_in + n_gates:
            raise CircuitError("wire count does not match inputs + gates")
        inputs = np.sort(np.fromiter(
            (w for ws in self.input_map.values() for w in ws), dtype=np.int64, count=n_in
        ))
        if not np.array_equal(inputs, np.arange(1, 1 + n_in)):
            raise CircuitError("input wires must be 1..n_inputs, each listed once")
        bad = np.flatnonzero(self.out != np.arange(1 + n_in, self.n_wires, dtype=np.int32))
        if bad.size:
            g = int(bad[0])
            raise CircuitError(f"gate {g} output {self.out[g]} breaks SSA ordering")
        # with outputs in SSA order, a gate may read only wires below its own
        bad = np.flatnonzero(
            (self.in_a < 0) | (self.in_a >= self.out) | (self.in_b < 0) | (self.in_b >= self.out)
        )
        if bad.size:
            raise CircuitError(f"gate {int(bad[0])} reads a wire not yet driven")
        bad = np.flatnonzero(self.kind > AND)
        if bad.size:
            raise CircuitError(f"gate {int(bad[0])} has unknown kind {self.kind[bad[0]]}")
        outs = np.asarray(self.output_wires, dtype=np.int64)
        bad = np.flatnonzero((outs < 0) | (outs >= self.n_wires))
        if bad.size:
            raise CircuitError(f"output wire {outs[bad[0]]} is not driven")
        if list(self.barriers) != sorted(self.barriers) or any(
            not 0 <= g <= n_gates for g in self.barriers
        ):
            raise CircuitError("barriers must be ascending gate indices")

    def gate_counts(self) -> GateCounts:
        """Exact counts; `depth_and` is the number of AND layers the
        schedule executes (with barriers, the segments' depths summed)."""
        and_count = int(np.count_nonzero(self.kind == AND))
        return GateCounts(
            and_count=and_count,
            xor_count=self.n_gates - and_count,
            depth_and=int(self.wire_depth.max(initial=0)),
        )

    # -- schedule ----------------------------------------------------------

    def schedule(self) -> Schedule:
        """Layered evaluation plan shared by the plaintext and MPC paths,
        built once from the recorded levels and kept on the circuit.
        """
        if self._schedule is None:
            first = 1 + self.n_input_wires
            bounds = [0, *self.barriers, self.n_gates]
            segments, base = [], 0
            for g0, g1 in zip(bounds, bounds[1:]):
                segment, depth = self._segment(g0, g1, first, base)
                segments.append(segment)
                base += depth
            self._schedule = Schedule(
                segments, base, int(np.count_nonzero(self.kind == AND))
            )
        return self._schedule

    def _segment(self, g0, g1, first, base):
        """Schedule gates g0..g1, whose AND depths start above `base`.

        One stable sort over a packed key (depth, AND before XOR, full
        level) lines the gates up as XORs at depth 0, ANDs at depth 1,
        XORs at depth 1, ...; XORs of one depth are split further by
        full level, ANDs keep gate order. Layer d is then the XORs of
        depth d-1 plus the ANDs of depth d; the XORs of the top depth
        trail the segment.
        """
        if g0 == g1:
            return Segment([], []), 0
        is_xor = self.kind[g0:g1] != AND
        key = self.wire_depth[first + g0 : first + g1].astype(np.int64)
        key -= base
        top = int(key.max())
        key <<= 1
        key += is_xor
        key <<= 32
        key |= np.where(is_xor, self.wire_level[first + g0 : first + g1], 0)
        del is_xor
        order = np.argsort(key, kind="stable")
        key = key[order]
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        group_key = (key[np.concatenate(([0], cuts))] >> 32).tolist()
        del key
        order += g0
        gate_a = self.in_a[order].astype(np.intp)
        gate_b = self.in_b[order].astype(np.intp)
        gate_out = order
        gate_out += first  # gate g drives wire first + g
        empty = np.zeros(0, dtype=np.intp)
        layers = [Layer([], (empty, empty, empty)) for _ in range(top)]
        trailing = []
        bounds = [0, *cuts.tolist(), len(gate_out)]
        for k, s, e in zip(group_key, bounds, bounds[1:]):
            group = (gate_a[s:e], gate_b[s:e], gate_out[s:e])
            depth, xor = divmod(k, 2)
            if not xor:
                layers[depth - 1].and_gates = group
            elif depth < top:
                layers[depth].pre_xors.append(group)
            else:
                trailing.append(group)
        return Segment(layers, trailing), top

    # -- evaluation --------------------------------------------------------

    def evaluate(self, inputs: dict[int, np.ndarray], extra_wires=None) -> np.ndarray:
        """Evaluate on plaintext bits.

        `inputs` maps party id to a 0/1 array of shape (n,) or (n, B);
        returns the output bits with the matching shape. With
        `extra_wires`, returns (outputs, extra wire values) instead.
        """
        values, batched = self._assign_inputs(inputs)

        def xors(groups):
            for a, b, o in groups:
                values[o] = values[a] ^ values[b]

        for segment in self.schedule().segments:
            for layer in segment.layers:
                xors(layer.pre_xors)
                a, b, o = layer.and_gates
                values[o] = values[a] & values[b]
            xors(segment.trailing_xors)
        out = values[self.output_wires]
        if extra_wires is None:
            return out if batched else out[:, 0]
        extra = values[list(extra_wires)]
        if not batched:
            return out[:, 0], extra[:, 0]
        return out, extra

    def _assign_inputs(self, inputs):
        if set(inputs) != set(self.input_map):
            missing = set(self.input_map) - set(inputs)
            extra = set(inputs) - set(self.input_map)
            raise MissingInput(f"input parties missing={sorted(missing)} unknown={sorted(extra)}")
        arrays = {}
        batched = False
        width = 1
        for party, bits in inputs.items():
            arr = np.asarray(bits, dtype=np.uint8)
            if arr.ndim == 1:
                arr = arr[:, None]
            else:
                batched = True
                width = arr.shape[1]
            arrays[party] = arr
        values = np.zeros((self.n_wires, width), dtype=np.uint8)
        values[self.const_one] = 1
        for party, arr in arrays.items():
            wires = self.input_map[party]
            if arr.shape[0] != len(wires):
                raise WidthMismatch(
                    f"party {party}: got {arr.shape[0]} bits for {len(wires)} wires"
                )
            if arr.shape[1] != width:
                raise WidthMismatch("inconsistent batch widths across parties")
            values[wires] = arr
        return values, batched


# -- builders ----------------------------------------------------------------


def pairwise(op, items):
    """Balanced reduction along the first axis of `items` (an array, or a
    list): each level combines the neighbours (0, 1), (2, 3), ... with one
    call `op(evens, odds)`, and an odd last item moves up unchanged.
    Drives the AND and OR trees, the merge tree and the maximum circuit,
    so each emits its gates in this one tree shape."""
    while len(items) > 1:
        n = len(items) // 2 * 2
        head, rest = op(items[0:n:2], items[1:n:2]), items[n:]
        items = np.concatenate([head, rest]) if isinstance(items, np.ndarray) else [*head, *rest]
    return items[0]


def exchange_layers(network, n: int):
    """Record a data-independent network of two-input exchanges on the
    slot tokens 0..n-1 and group its exchanges into layers.

    `network(swap, slots)` runs the network; it calls `swap(*extra, x,
    y)` once per exchange and gets (x, y) back, so an exchange leaves its
    two outputs in its input slots. An exchange's layer is one above the
    latest layer that wrote either of its slots: the exchanges of one
    layer touch disjoint slots and read only what earlier layers wrote, so
    a builder can emit a whole layer in place over an (n, width) array of
    wires with one set of block calls. Returns the layers, each an int
    array of rows (*extra, x, y), and the slot order `network` returned.
    """
    ready = [0] * n
    layers: list[list] = []

    def swap(*args):
        x, y = args[-2], args[-1]
        k = max(ready[x], ready[y])
        if k == len(layers):
            layers.append([])
        layers[k].append(args)
        ready[x] = ready[y] = k + 1
        return x, y

    out = network(swap, list(range(n)))
    return [np.array(rows, dtype=np.intp) for rows in layers], out


def _wires(x) -> np.ndarray:
    arr = np.asarray(x)
    return arr if arr.dtype.kind in "iu" else arr.astype(np.intp)


def _bits(value, width: int) -> np.ndarray:
    """Big-endian bits of an int, or of each int in an array, on a new
    last axis of length `width`."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(value, dtype=object)[..., None] >> shifts) & 1).astype(bool)


def _grown(buf, used: int, size: int) -> np.ndarray:
    """A zeroed buffer of `size` items that starts with buf[:used].

    One of 256 KiB or more gets its own anonymous memory map instead of
    a heap block: its pages take memory only once written, so the unused
    tail of a finished circuit's buffers costs nothing, and they go back
    to the system when the array dies. Heap blocks of this size, grown
    and freed round after round, fragmented the heap: a process compiling
    a new circuit every round kept 10-15 % more peak RSS.
    """
    if size * buf.itemsize < 1 << 18:
        out = np.zeros(size, dtype=buf.dtype)
    else:
        out = np.frombuffer(mmap.mmap(-1, size * buf.itemsize), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


class BuilderBase:
    """Oblivious building blocks over two vector leaves.

    `xor_v(A, B)` and `and_v(A, B)` take broadcastable arrays of wires
    and emit one gate per element of the broadcast shape, returning the
    output wires in that shape. Every block works over arrays whose last
    axis holds the bits of a big-endian vector and whose leading axes
    are independent instances, so one call emits a whole layer of
    comparators, muxes or swaps; a 1-D vector is the single-instance
    case. Subclasses provide the leaves, `input_vector` and `barrier`.
    """

    one = 0
    _zero = None

    def zero(self):
        if self._zero is None:
            self._zero = self.xor_v(self.one, self.one)
        return self._zero

    def not_(self, a):
        return self.xor_v(a, self.one)

    def or_(self, a, b):
        return self.xor_v(self.xor_v(a, b), self.and_v(a, b))

    def _and_tree(self, bits):
        """AND over the last axis, as a balanced tree."""
        return pairwise(self.and_v, np.moveaxis(_wires(bits), -1, 0))

    def const_bits(self, value, width: int):
        """Constant wires for an int, or for each int of an array."""
        z = self.zero()
        return np.where(_bits(value, width), self.one, z).astype(np.int32)

    @staticmethod
    def _operands(name, a, b):
        a, b = _wires(a), _wires(b)
        if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1] or not a.shape[-1]:
            raise WidthMismatch(f"{name} operands must share a positive width")
        return a, b

    def lt(self, a, b):
        """Strict a < b over equal-width unsigned big-endian vectors.

        LSB-to-MSB ripple: carry c_(i+1) = b_i XOR ((b_i XOR c_i) AND
        (a_i XOR c_i)); exactly width AND gates per instance.
        """
        a, b = self._operands("lt", a, b)
        c = self.xor_v(b[..., -1], self.and_v(b[..., -1], a[..., -1]))
        for i in range(a.shape[-1] - 2, -1, -1):
            # b_i ^ c and a_i ^ c in one call
            t = self.xor_v(np.stack([b[..., i], a[..., i]]), np.stack([c, c]))
            c = self.xor_v(b[..., i], self.and_v(t[0], t[1]))
        return c

    def eq(self, a, b):
        """a == b; width-1 AND gates via an AND-tree over XNORs."""
        a, b = self._operands("eq", a, b)
        return self._and_tree(self.not_(self.xor_v(a, b)))

    def eq_zero(self, a):
        """a == 0...0; the boundary-sentinel comparison."""
        return self._and_tree(self.not_(a))

    def eq_const(self, a, value):
        """a == constant; NOT only where the constant bit is zero."""
        bits = _wires(a).copy()
        clear = ~np.broadcast_to(_bits(value, bits.shape[-1]), bits.shape)
        bits[clear] = self.not_(bits[clear])
        return self._and_tree(bits)

    def mux(self, sel, x0, x1):
        """Vector select: x0 when sel=0, x1 when sel=1; width AND gates."""
        d = self.and_v(_wires(sel)[..., None], self.xor_v(x0, x1))
        return self.xor_v(x0, d)

    def cond_swap(self, c, a, b):
        """Swap the two equal-width vectors iff c=1; width AND gates."""
        d = self.and_v(_wires(c)[..., None], self.xor_v(a, b))
        return self.xor_v(a, d), self.xor_v(b, d)


class CircuitBuilder(BuilderBase):
    """Materializing builder; finish() freezes a BooleanCircuit.

    Gates and per-wire levels live in numpy buffers that grow by half
    their size when full; `finish()` hands views of their used lengths
    to the circuit. Each leaf call records
    its gates' full topological levels and AND depths with one pass over
    its operand arrays; after `barrier()`, AND depths start above every
    gate emitted so far.
    """

    def __init__(self):
        self._n_wires = 1
        self._n_gates = 0
        self._kind = np.zeros(0, dtype=np.uint8)
        self._a = np.zeros(0, dtype=np.int32)
        self._b = np.zeros(0, dtype=np.int32)
        self._level = np.zeros(1, dtype=np.int32)  # per wire; wire 0 is the constant
        self._depth = np.zeros(1, dtype=np.int32)
        self._floor = 0  # AND depth of the last barrier
        self._barriers: list[int] = []
        self._input_map: dict[int, list[int]] = {}
        self.and_count = 0

    def input_vector(self, party: int, n: int) -> list[int]:
        if self._n_gates:
            raise CircuitError("all inputs must be declared before the first gate")
        wires = list(range(self._n_wires, self._n_wires + n))
        self._level = _grown(self._level, self._n_wires, self._n_wires + n)  # new wires: level 0
        self._depth = _grown(self._depth, self._n_wires, self._n_wires + n)
        self._n_wires += n
        self._input_map.setdefault(party, []).extend(wires)
        return wires

    def _emit(self, kind, a, b):
        """One `kind` gate per element of the broadcast shape of a and b."""
        a, b = _wires(a), _wires(b)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape, n = a.shape, a.size
        if not n:
            return np.zeros(shape, dtype=np.int32)
        a = a.astype(np.intp).ravel()
        b = b.astype(np.intp).ravel()
        first, g0 = self._n_wires, self._n_gates
        # as unsigned, a negative index is out of range too
        if max(a.view(np.uintp).max(), b.view(np.uintp).max()) >= first:
            raise CircuitError("gate input references an undriven wire")
        if g0 + n > len(self._kind):
            cap = max(g0 + n, len(self._kind) * 3 // 2, 1024)
            self._kind = _grown(self._kind, g0, cap)
            self._a = _grown(self._a, g0, cap)
            self._b = _grown(self._b, g0, cap)
            self._level = _grown(self._level, first, first - g0 + cap)
            self._depth = _grown(self._depth, first, first - g0 + cap)
        g1, w1 = g0 + n, first + n
        self._kind[g0:g1] = kind
        self._a[g0:g1] = a
        self._b[g0:g1] = b
        level, depth = self._level, self._depth
        np.maximum(level[a], level[b], out=level[first:w1])
        level[first:w1] += 1
        d = np.maximum(depth[a], depth[b])
        if self._floor:
            np.maximum(d, self._floor, out=d)
        if kind == AND:
            d += 1
            self.and_count += n
        depth[first:w1] = d
        self._n_gates, self._n_wires = g1, w1
        return np.arange(first, w1, dtype=np.int32).reshape(shape)

    def xor_v(self, a, b):
        return self._emit(XOR, a, b)

    def and_v(self, a, b):
        return self._emit(AND, a, b)

    def barrier(self):
        """End an evaluation segment here, so that a reactive opening can
        run between the gates so far and the gates after."""
        self._barriers.append(self._n_gates)
        self._floor = int(self._depth[: self._n_wires].max())

    @property
    def n_gates(self) -> int:
        return self._n_gates

    @property
    def xor_count(self) -> int:
        return self._n_gates - self.and_count

    def _trim(self):
        """Hand the buffers over as views of their used lengths, without
        a copy; the builder emits nothing after this."""
        g, w = self._n_gates, self._n_wires
        bufs = (self._kind[:g], self._a[:g], self._b[:g], self._level[:w], self._depth[:w])
        self._kind = self._a = self._b = self._level = self._depth = None
        return bufs

    def finish(self, output_wires) -> BooleanCircuit:
        n_in = sum(len(w) for w in self._input_map.values())
        out = np.arange(1 + n_in, self._n_wires, dtype=np.int32)
        kind, a, b, level, depth = self._trim()
        return BooleanCircuit(
            self._n_wires, kind, a, b, out,
            self._input_map, np.ravel(output_wires),
            wire_level=level, wire_depth=depth, barriers=self._barriers,
        )


def _replay_levels(circuit: BooleanCircuit):
    """Per-wire levels of a validated gate list, re-emitted through a
    CircuitBuilder one run of independent gates of one kind at a time."""
    b = CircuitBuilder()
    b.input_vector(0, circuit.n_input_wires)
    first = 1 + circuit.n_input_wires
    # the gate that drives each gate's later operand (negative: an input)
    src = np.maximum(circuit.in_a, circuit.in_b).astype(np.int64) - first
    bounds = [0, *circuit.barriers, circuit.n_gates]
    for i, (g0, g1) in enumerate(zip(bounds, bounds[1:])):
        if i:
            b.barrier()
        s = g0
        while s < g1:
            # the run ends at the first gate of another kind or that reads
            # a gate of the run
            kind, e, step = circuit.kind[s], s + 1, 64
            while e < g1:
                end = min(e + step, g1)
                hit = np.flatnonzero((src[e:end] >= s) | (circuit.kind[e:end] != kind))
                if hit.size:
                    e += int(hit[0])
                    break
                e, step = end, 2 * step
            b._emit(int(kind), circuit.in_a[s:e], circuit.in_b[s:e])
            s = e
    _, _, _, level, depth = b._trim()
    return level, depth


class CountingBuilder(BuilderBase):
    """Count-only builder: each leaf counts the gates of its broadcast
    shape and returns zero tokens of that shape, so the same blocks size
    benchmark-scale circuits without materializing them."""

    def __init__(self):
        self.and_count = 0
        self.xor_count = 0
        self.input_bits = 0

    def input_vector(self, party: int, n: int) -> list[int]:
        self.input_bits += n
        return [0] * n

    def _tokens(self, a, b):
        return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int32)

    def xor_v(self, a, b):
        out = self._tokens(a, b)
        self.xor_count += out.size
        return out

    def and_v(self, a, b):
        out = self._tokens(a, b)
        self.and_count += out.size
        return out

    def barrier(self):
        """Segment boundaries change no gate count."""


# -- text format -------------------------------------------------------------

_KIND_NAMES = {XOR: "XOR", AND: "AND"}
_KIND_VALUES = {v: k for k, v in _KIND_NAMES.items()}


def save_circuit_text(circuit: BooleanCircuit) -> str:
    """Serialize to the line format: header `W G I O`, one gate per
    line, then CONST1/INPUTS/OUTPUTS trailer (and BARRIERS, if any).
    Round-trips bit-exactly.
    """
    lines = [
        f"{circuit.n_wires} {circuit.n_gates} "
        f"{circuit.n_input_wires} {len(circuit.output_wires)}"
    ]
    for g in range(circuit.n_gates):
        lines.append(
            f"{_KIND_NAMES[int(circuit.kind[g])]} "
            f"{circuit.in_a[g]} {circuit.in_b[g]} {circuit.out[g]}"
        )
    lines.append(f"CONST1 {circuit.const_one}")
    for party in sorted(circuit.input_map):
        wires = " ".join(str(w) for w in circuit.input_map[party])
        lines.append(f"INPUTS {party} {wires}".rstrip())
    lines.append("OUTPUTS " + " ".join(str(w) for w in circuit.output_wires))
    if circuit.barriers:
        lines.append("BARRIERS " + " ".join(map(str, circuit.barriers)))
    return "\n".join(lines) + "\n"


def load_circuit_text(text: str) -> BooleanCircuit:
    """Parse the line format; levels are recomputed by replaying the
    gates through a CircuitBuilder."""
    lines = text.splitlines()
    if not lines:
        raise CircuitError("empty circuit file")
    try:
        n_wires, n_gates, n_in, n_out = map(int, lines[0].split())
    except ValueError as exc:
        raise CircuitError(f"bad header line: {lines[0]!r}") from exc
    kind, a, b, out = [], [], [], []
    for ln in lines[1 : 1 + n_gates]:
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in _KIND_VALUES:
            raise CircuitError(f"bad gate line: {ln!r}")
        kind.append(_KIND_VALUES[parts[0]])
        a.append(int(parts[1]))
        b.append(int(parts[2]))
        out.append(int(parts[3]))
    input_map: dict[int, list[int]] = {}
    output_wires: list[int] = []
    barriers: list[int] = []
    for ln in lines[1 + n_gates :]:
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "CONST1":
            if int(parts[1]) != 0:
                raise CircuitError("constant-one wire must be wire 0")
        elif parts[0] == "INPUTS":
            input_map[int(parts[1])] = [int(w) for w in parts[2:]]
        elif parts[0] == "OUTPUTS":
            output_wires = [int(w) for w in parts[1:]]
        elif parts[0] == "BARRIERS":
            barriers = [int(g) for g in parts[1:]]
        else:
            raise CircuitError(f"unknown trailer line: {ln!r}")
    circ = BooleanCircuit(
        n_wires, kind, a, b, out, input_map, output_wires, barriers=barriers
    )
    if circ.n_input_wires != n_in or len(output_wires) != n_out:
        raise CircuitError("header input/output counts disagree with trailer")
    return circ
