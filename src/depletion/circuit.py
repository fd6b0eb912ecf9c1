"""Boolean circuit IR over {XOR, AND} with batched evaluation.

Wire 0 is the constant-one wire; NOT is expressed as XOR with it.
Input wires follow the constant, gate outputs follow the inputs, so a
circuit is a static single-assignment gate list in topological order.

Two builders share every construction routine: `CircuitBuilder`
materializes gates, `CountingBuilder` only accumulates gate counts so
benchmark-scale circuits (10^8 gates) can be sized without being built.

`CircuitBuilder` records each wire's full topological level and AND
depth as it emits the gate, and `barrier()` marks where a reactive
opening splits evaluation (later gates get AND depths above every
earlier one). From those facts `BooleanCircuit.schedule()` derives, with
one sort per segment, the layered plan that both the plaintext evaluator
and the MPC engine run; `gate_counts().depth_and` is its number of AND
layers.
"""

from __future__ import annotations

from array import array
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


class BuilderBase:
    """Shared oblivious building blocks expressed over xor/and_ leafs.

    Bit vectors are big-endian wire lists. Subclasses provide the leaf
    gate emitters; CountingBuilder overrides the composite blocks with
    closed-form gate counts so the same construction code can size
    circuits without materializing them.
    """

    one: int
    _zero: int | None

    def zero(self):
        if self._zero is None:
            self._zero = self.xor(self.one, self.one)
        return self._zero

    def not_(self, a):
        return self.xor(a, self.one)

    def or_(self, a, b):
        return self.xor(self.xor(a, b), self.and_(a, b))

    def or_fold(self, bits):
        """Balanced OR over one or more wires."""
        bits = list(bits)
        while len(bits) > 1:
            nxt = [self.or_(bits[i], bits[i + 1]) for i in range(0, len(bits) - 1, 2)]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    def and_fold(self, bits):
        bits = list(bits)
        while len(bits) > 1:
            nxt = [self.and_(bits[i], bits[i + 1]) for i in range(0, len(bits) - 1, 2)]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    def xor_vec(self, a, b):
        return [self.xor(x, y) for x, y in zip(a, b, strict=True)]

    def const_bits(self, value: int, width: int):
        z = self.zero()
        return [self.one if (value >> (width - 1 - i)) & 1 else z for i in range(width)]

    def lt(self, a, b):
        """Strict a < b over equal-width unsigned big-endian vectors.

        LSB-to-MSB ripple: carry c_(i+1) = b_i XOR ((b_i XOR c_i) AND
        (a_i XOR c_i)); exactly len(a) AND gates.
        """
        if len(a) != len(b) or not a:
            raise WidthMismatch("lt operands must share a positive width")
        ar, br = a[::-1], b[::-1]
        c = self.xor(br[0], self.and_(br[0], ar[0]))
        for ai, bi in zip(ar[1:], br[1:]):
            c = self.xor(bi, self.and_(self.xor(bi, c), self.xor(ai, c)))
        return c

    def eq(self, a, b):
        """a == b; len(a)-1 AND gates via an AND-tree over XNORs."""
        if len(a) != len(b) or not a:
            raise WidthMismatch("eq operands must share a positive width")
        return self.and_fold([self.not_(self.xor(x, y)) for x, y in zip(a, b)])

    def eq_zero(self, a):
        """a == 0...0; the boundary-sentinel comparison."""
        return self.and_fold([self.not_(x) for x in a])

    def eq_const(self, a, value: int):
        """a == constant; NOT only where the constant bit is zero."""
        width = len(a)
        bits = []
        for i, wire in enumerate(a):
            if (value >> (width - 1 - i)) & 1:
                bits.append(wire)
            else:
                bits.append(self.not_(wire))
        return self.and_fold(bits)

    def mux(self, sel, x0, x1):
        """Vector select: x0 when sel=0, x1 when sel=1; width AND gates."""
        return [
            self.xor(a, self.and_(sel, self.xor(a, b)))
            for a, b in zip(x0, x1, strict=True)
        ]

    def cond_swap(self, c, a, b):
        """Swap the two equal-width vectors iff c=1; width AND gates."""
        d = [self.and_(c, self.xor(x, y)) for x, y in zip(a, b, strict=True)]
        return self.xor_vec(a, d), self.xor_vec(b, d)


class CircuitBuilder(BuilderBase):
    """Materializing builder; finish() freezes a BooleanCircuit.

    Gates and per-wire levels live in typed arrays, which the finished
    circuit adopts without a copy. Each gate's full topological level
    and AND depth are recorded as it is emitted; after `barrier()`, AND
    depths start above every gate emitted so far.
    """

    def __init__(self):
        self.one = 0
        self._zero = None
        self._n_wires = 1
        self._kind = array("B")
        self._a = array("i")
        self._b = array("i")
        self._level = array("i", [0])  # per wire; wire 0 is the constant
        self._depth = array("i", [0])
        self._floor = 0  # AND depth of the last barrier
        self._barriers: list[int] = []
        self._input_map: dict[int, list[int]] = {}
        self.and_count = 0

    def input_vector(self, party: int, n: int) -> list[int]:
        if self._kind:
            raise CircuitError("all inputs must be declared before the first gate")
        wires = list(range(self._n_wires, self._n_wires + n))
        self._n_wires += n
        self._level.extend(array("i", [0]) * n)
        self._depth.extend(array("i", [0]) * n)
        self._input_map.setdefault(party, []).extend(wires)
        return wires

    def _gate(self, kind, a, b):
        out = self._n_wires
        if not (0 <= a < out and 0 <= b < out):
            raise CircuitError("gate input references an undriven wire")
        self._kind.append(kind)
        self._a.append(a)
        self._b.append(b)
        level, depth = self._level, self._depth
        la, lb = level[a], level[b]
        level.append(la + 1 if la > lb else lb + 1)
        d, db = depth[a], depth[b]
        if db > d:
            d = db
        if d < self._floor:
            d = self._floor
        if kind == AND:
            d += 1
            self.and_count += 1
        depth.append(d)
        self._n_wires = out + 1
        return out

    def xor(self, a, b):
        return self._gate(XOR, a, b)

    def and_(self, a, b):
        return self._gate(AND, a, b)

    def barrier(self):
        """End an evaluation segment here, so that a reactive opening can
        run between the gates so far and the gates after."""
        self._barriers.append(self.n_gates)
        self._floor = max(self._depth)

    @property
    def n_gates(self) -> int:
        return len(self._kind)

    @property
    def xor_count(self) -> int:
        return len(self._kind) - self.and_count

    @property
    def next_wire(self) -> int:
        return self._n_wires

    def finish(self, output_wires) -> BooleanCircuit:
        n_in = sum(len(w) for w in self._input_map.values())
        out = np.arange(1 + n_in, self._n_wires, dtype=np.int32)
        return BooleanCircuit(
            self._n_wires, self._kind, self._a, self._b, out,
            self._input_map, output_wires,
            wire_level=self._level, wire_depth=self._depth, barriers=self._barriers,
        )


def _replay_levels(circuit: BooleanCircuit):
    """Per-wire levels of a validated gate list, re-emitted gate by gate."""
    b = CircuitBuilder()
    b.input_vector(0, circuit.n_input_wires)
    bounds = [0, *circuit.barriers, circuit.n_gates]
    for i, (g0, g1) in enumerate(zip(bounds, bounds[1:])):
        if i:
            b.barrier()
        for kind, x, y in zip(
            circuit.kind[g0:g1].tolist(),
            circuit.in_a[g0:g1].tolist(),
            circuit.in_b[g0:g1].tolist(),
        ):
            b._gate(kind, x, y)
    return b._level, b._depth


class CountingBuilder(BuilderBase):
    """Count-only builder; wires are opaque zero tokens."""

    def __init__(self):
        self.one = 0
        self._zero = None
        self.and_count = 0
        self.xor_count = 0
        self.input_bits = 0

    def input_vector(self, party: int, n: int):
        self.input_bits += n
        return [0] * n

    def xor(self, a, b):
        self.xor_count += 1
        return 0

    def and_(self, a, b):
        self.and_count += 1
        return 0

    def barrier(self):
        """Segment boundaries change no gate count."""

    # Closed forms for the composite blocks (validated against the
    # materializing builder in the test suite).

    def or_(self, a, b):
        self.and_count += 1
        self.xor_count += 2
        return 0

    def lt(self, a, b):
        w = len(a)
        self.and_count += w
        self.xor_count += 1 + 3 * (w - 1)
        return 0

    def eq(self, a, b):
        w = len(a)
        self.and_count += w - 1
        self.xor_count += 2 * w
        return 0

    def eq_zero(self, a):
        w = len(a)
        self.and_count += w - 1
        self.xor_count += w
        return 0

    def eq_const(self, a, value):
        w = len(a)
        self.and_count += w - 1
        self.xor_count += w - int(value).bit_count()
        return 0

    def mux(self, sel, x0, x1):
        w = len(x0)
        self.and_count += w
        self.xor_count += 2 * w
        return [0] * w

    def cond_swap(self, c, a, b):
        w = len(a)
        self.and_count += w
        self.xor_count += 3 * w
        return [0] * w, [0] * w


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
