"""Boolean circuit IR over {XOR, AND} with batched evaluation.

Wire 0 is the constant-one wire; NOT is expressed as XOR with it.
Input wires follow the constant, gate outputs follow the inputs, so a
circuit is a static single-assignment gate list in topological order.

Two builders share every construction routine through three leaves:
the vector leaves `xor_v` and `and_v`, which emit one gate per element
of their broadcast operand arrays, and `lt`, which emits the ripple
comparators of all its instances as one block. The blocks (comparators,
equality tests, muxes, conditional swaps, balanced folds) work on arrays
whose leading axes are instances, so one call emits a whole layer of
them, and `exchange_layers` groups the exchanges of a comparator or
switch network into such layers. `CircuitBuilder` materializes the
gates; `CountingBuilder` only adds up the sizes of its leaf calls, so
benchmark-scale circuits (10^8 gates) are counted by the same code
without being built.

`CircuitBuilder` is the only producer of circuits. It refuses a bad
circuit while building it, so `BooleanCircuit` stores what `finish()`
passes and checks nothing again; its docstring names the builder check
behind each invariant. The builder records each wire's full topological
level and AND depth as it emits the gates. From those facts
`BooleanCircuit.schedule()` derives, with one sort, the layered plan
that both the plaintext evaluator and the MPC engine run;
`gate_counts().depth_and` is its number of AND layers. The plan names
each AND layer's distinct input wires once, so the engine opens each
of them once per layer, however many of the layer's ANDs read it.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from itertools import accumulate

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


@dataclass
class Layer:
    """XOR groups computable before one AND round, then that round's ANDs.

    Each XOR group is (in_a, in_b, out) for mutually independent gates:
    in_a and in_b are int32 wire arrays, and out, the ascending wires
    the gates drive, is a `slice` when they form one run and an int32
    array otherwise. The ANDs are one group (inputs, idx, out): `inputs`
    holds the layer's distinct input wires, ascending, and the (2, k)
    int32 array `idx` holds, for k ANDs, the first inputs' positions in
    `inputs` in row 0 and the second inputs' in row 1, so AND g computes
    `inputs[idx[0, g]] & inputs[idx[1, g]]` into the g-th wire of `out`.
    """

    pre_xors: list
    and_gates: tuple


@dataclass
class Schedule:
    """One `Layer` per AND depth, then the XOR groups after the last one.

    Its groups index the wire axis directly (`values[out] = values[a] ^
    values[b]`): int32 inputs, and outputs as a slice wherever they are
    contiguous, so most writes need no index array. `and_index` is the
    (2, ANDs) int32 array of every AND's two input positions, layer after
    layer, and each layer's `idx` is the view of its columns; `opened`
    and `ands` hold each layer's count of distinct inputs and of ANDs.
    """

    layers: list
    trailing_xors: list
    and_index: np.ndarray
    opened: np.ndarray
    ands: np.ndarray

    @property
    def and_count(self) -> int:
        return int(self.ands.sum())

    @property
    def and_layers(self) -> int:
        return len(self.layers)

    @property
    def and_inputs_opened(self) -> int:
        """Distinct AND inputs summed over the layers: the wires that the
        AND layers open, each once per layer that reads it."""
        return int(self.opened.sum())

    @property
    def widest_layer(self) -> int:
        """The most inputs plus ANDs of one layer."""
        return int((self.opened + self.ands).max(initial=0))


class BooleanCircuit:
    """Immutable gate list with per-party input map and output wires.

    Gate g drives wire 1 + (input wires) + g, so the circuit stores only
    each gate's kind and input wires. `wire_level` (full topological
    level) and `wire_depth` (AND depth) hold one entry per wire, and
    `and_count` counts the AND gates, as `CircuitBuilder` recorded them
    while it emitted the gates. The builder is the only producer of
    circuits, and it refuses a bad circuit while building it, so the
    circuit stores what `finish()` passes and checks nothing again:

    - the gate arrays share one length, and each kind is XOR or AND: each
      leaf writes one entry of all three per gate, of a kind it names;
    - the input wires are 1..n, each listed once: `input_vector` refuses
      a negative count and any input after the first gate;
    - a gate reads only wires below the one it drives, and no negative
      one: `_check_driven` in every leaf, before it emits;
    - every output wire is driven: `finish` refuses any other;
    - the buffers the circuit views never change again: a finished
      builder refuses every leaf that emits (in `_reserve`), every input
      and a second `finish`.
    """

    def __init__(self, kind, in_a, in_b, input_map, output_wires,
                 *, wire_level, wire_depth, and_count):
        self.kind = kind
        self.in_a = in_a
        self.in_b = in_b
        self.input_map = input_map
        self.output_wires = output_wires
        self.wire_level = wire_level
        self.wire_depth = wire_depth
        self.and_count = and_count
        self.const_one = 0
        self.n_input_wires = sum(len(ws) for ws in input_map.values())
        self.n_wires = 1 + self.n_input_wires + len(kind)
        self._schedule = None

    # -- structure ---------------------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.kind)

    def gate_counts(self) -> GateCounts:
        """Exact counts; `depth_and` is the number of AND layers the
        schedule executes."""
        return GateCounts(
            and_count=self.and_count,
            xor_count=self.n_gates - self.and_count,
            depth_and=int(self.wire_depth.max(initial=0)),
        )

    # -- schedule ----------------------------------------------------------

    def schedule(self) -> Schedule:
        """Layered evaluation plan shared by the plaintext and MPC paths,
        built once from the recorded levels and kept on the circuit.

        One stable sort over a packed key (AND depth, AND before XOR, full
        level) lines the gates up as XORs at depth 0, ANDs at depth 1,
        XORs at depth 1, ...; XORs of one depth are split further by
        full level, ANDs keep gate order. Layer d is then the XORs of
        depth d-1 plus the ANDs of depth d, and the XORs of the top depth
        trail the last layer. A wire's AND depth rises only at an AND
        gate, so every layer holds at least one AND. The AND layers' plan
        (`_and_plan`) is then built from the ANDs' inputs in that order.
        """
        if self._schedule is None:
            self._schedule = self._layered()
        return self._schedule

    def _layered(self) -> Schedule:
        if not self.n_gates:
            none = np.zeros(0, dtype=np.int64)
            return Schedule([], [], np.zeros((2, 0), dtype=np.int32), none, none)
        first = 1 + self.n_input_wires
        is_xor = self.kind != AND
        key = self.wire_depth[first:].astype(np.int64)
        top = int(key.max())
        key <<= 1
        key += is_xor
        key <<= 32
        key |= np.where(is_xor, self.wire_level[first:], 0)
        del is_xor
        order = np.argsort(key, kind="stable")
        key.sort()  # equals key[order]: equal keys are equal values
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        group_key = key[starts] >> 32
        del key
        sizes = np.diff(starts, append=len(order))
        # a group's gates, and so the wires they drive, ascend: they form
        # one run exactly when the last is as far from the first as the
        # group is long
        head = order[starts]
        runs = (order[starts + sizes - 1] - head == sizes - 1).tolist()
        low = (head + first).tolist()  # gate g drives wire first + g
        # the XOR groups' gates and the AND layers' gates apart, each in
        # sorted order, and `order` freed before what the schedule keeps is
        # made, so that it takes the place `order` held
        is_and = group_key % 2 == 0
        gate_is_and = np.repeat(is_and, sizes)
        and_order, xor_order = order[gate_is_and], order[~gate_is_and]
        del order, gate_is_and
        gate_a = self.in_a[xor_order]
        gate_b = self.in_b[xor_order]
        # each group's start among the gates of its kind
        at = np.where(is_and, np.cumsum(sizes * is_and), np.cumsum(sizes * ~is_and)) - sizes
        layers = [Layer([], None) for _ in range(top)]
        trailing = []
        for k, run, lo, s, n in zip(group_key.tolist(), runs, low, at.tolist(), sizes.tolist()):
            depth, xor = divmod(k, 2)
            out = slice(lo, lo + n) if run else ((xor_order if xor else and_order)[s:s + n] + first).astype(np.int32)
            if not xor:
                layers[depth - 1].and_gates = out
            elif depth < top:
                layers[depth].pre_xors.append((gate_a[s:s + n], gate_b[s:s + n], out))
            else:
                trailing.append((gate_a[s:s + n], gate_b[s:s + n], out))
        del xor_order
        ands = sizes[is_and]
        operands = np.empty((2, len(and_order)), dtype=np.int32)
        np.take(self.in_a, and_order, out=operands[0])
        np.take(self.in_b, and_order, out=operands[1])
        del and_order
        inputs, index, opened = _and_plan(operands, ands, self.n_wires)
        g0 = 0
        for layer, layer_inputs, k in zip(layers, inputs, ands.tolist()):
            layer.and_gates = (layer_inputs, index[:, g0:g0 + k], layer.and_gates)
            g0 += k
        return Schedule(layers, trailing, index, opened, ands)

    # -- evaluation --------------------------------------------------------

    def input_bits(self, inputs: dict[int, np.ndarray]) -> tuple[dict[int, np.ndarray], bool]:
        """The one check of a round's inputs, made by `evaluate` and the
        MPC engine alike. `inputs` must map every party of `input_map`,
        and no other, to 0/1 bits of shape (wires,) or (wires, batch),
        one batch for all; (wires,) is a batch of one. Returns each
        party's bits as a (wires, batch) uint8 array, in `input_map`
        order, and whether any input has a batch axis. Raises
        `MissingInput` for a missing or unknown party, `WidthMismatch`
        for a wrong wire count or batch, and `CircuitError` for bits that
        are not bool or integer 0 and 1."""
        if inputs.keys() != self.input_map.keys():
            raise MissingInput(f"input parties {sorted(inputs)}, expected {sorted(self.input_map)}")
        bits, batched = {}, False
        for party, wires in self.input_map.items():
            arr = np.asarray(inputs[party])
            batched |= arr.ndim > 1
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[0] != len(wires):
                raise WidthMismatch(f"party {party}: got bits of shape {arr.shape} for {len(wires)} wires")
            if arr.dtype.kind not in "biu" or arr.min(initial=0) < 0 or arr.max(initial=0) > 1:
                raise CircuitError(f"party {party}: input bits must be integers 0 or 1")
            bits[party] = arr.astype(np.uint8, copy=False)
        if len({arr.shape[1] for arr in bits.values()}) > 1:
            raise WidthMismatch("inconsistent batch widths across parties")
        return bits, batched

    def evaluate(self, inputs: dict[int, np.ndarray], extra_wires=None) -> np.ndarray:
        """Evaluate on plaintext bits.

        `inputs` maps party id to a 0/1 array of shape (n,) or (n, B), as
        `input_bits` checks them; returns the output bits with the
        matching shape. With `extra_wires`, returns (outputs, extra wire
        values) instead.
        """
        bits, batched = self.input_bits(inputs)
        values = np.zeros((self.n_wires, next(iter(bits.values())).shape[1] if bits else 1), dtype=np.uint8)
        values[self.const_one] = 1
        for party, arr in bits.items():
            values[self.input_map[party]] = arr

        def xors(groups):
            for a, b, o in groups:
                values[o] = values[a] ^ values[b]

        schedule = self.schedule()
        for layer in schedule.layers:
            xors(layer.pre_xors)
            inputs, idx, o = layer.and_gates
            a, b = values[inputs][idx]
            values[o] = a & b
        xors(schedule.trailing_xors)
        if not batched:
            values = values[:, 0]
        out = values[self.output_wires]
        return out if extra_wires is None else (out, values[list(extra_wires)])


# ANDs, two operands each, per run of whole AND layers while `_and_plan`
# builds the plan, so its temporaries stay a few hundred KiB whatever the
# circuit.
_PLAN_RUN = 1 << 13


def _and_plan(operands, ands, n_wires: int):
    """The AND layers' plan. `operands` is the (2, ANDs) array of the
    ANDs' first inputs (row 0) and second inputs (row 1), layer after
    layer, and `ands` each layer's number of ANDs. Returns each layer's
    distinct input wires (int32, ascending); each operand's position
    among its layer's (int32, shaped as `operands`); and each layer's
    count of distinct inputs.

    It runs over whole layers, about `_PLAN_RUN` ANDs at a time: a
    stable sort of the run's operands by (layer, wire) marks the first
    of each distinct pair, and each operand is ranked among its layer's
    marks. Only the results outlive a run.
    """
    n_layers = len(ands)
    starts = np.zeros(n_layers + 1, dtype=np.int64)
    np.cumsum(ands, out=starts[1:])
    index = np.empty_like(operands)
    opened = np.empty(n_layers, dtype=np.int64)
    inputs = []
    l0 = 0
    while l0 < n_layers:
        l1 = max(l0 + 1, int(np.searchsorted(starts, starts[l0] + _PLAN_RUN, "right")) - 1)
        g0, g1 = int(starts[l0]), int(starts[l1])
        ops = operands[:, g0:g1]
        key = np.repeat(np.arange(l1 - l0, dtype=np.int64) * n_wires, ands[l0:l1]) + ops
        # each row comes nearly sorted, in runs, which a stable sort
        # merges several times faster than an unstable one sorts them
        order = np.argsort(key, axis=None, kind="stable")
        key = key.take(order)
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        rank = np.cumsum(new, dtype=np.int32)  # an int32 sum runs twice as fast as a bool one
        rank -= 1
        # sorted, each layer's operands follow the run's earlier layers'
        firsts = rank[2 * (starts[l0:l1] - g0)]
        count = np.diff(firsts, append=rank[-1] + 1)
        rank -= np.repeat(firsts, 2 * ands[l0:l1])
        wires = ops.take(order[new])
        # each operand's place in the flattened `index`, whose rows are all
        # ANDs long: a scatter through the run's view's `flat` is three
        # times slower, and a run-sized buffer would raise the peak
        np.add(order, index.shape[1] - (g1 - g0), out=order, where=order >= g1 - g0)
        order += g0
        index.reshape(-1)[order] = rank
        bounds = [0, *accumulate(count.tolist())]
        inputs += [wires[s:e] for s, e in zip(bounds, bounds[1:])]
        opened[l0:l1] = count
        l0 = l1
    return inputs, index, opened


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


_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS


def _on_map(mm: mmap.mmap, dtype) -> np.ndarray:
    """The whole map as an array. The memoryview holds the map's buffer
    export while the array or any view of it lives, so a resize fails
    then instead of moving the pages from under it."""
    return np.frombuffer(memoryview(mm), dtype=dtype)


def _mapped(dtype, size: int) -> np.ndarray:
    """A zeroed array of `size` items on its own anonymous memory map."""
    return _on_map(mmap.mmap(-1, size * np.dtype(dtype).itemsize, flags=_MAP_FLAGS), dtype)


def _grown(mm: mmap.mmap, dtype, size: int) -> np.ndarray:
    """`mm` grown in place to `size` items, its contents kept and the new
    tail zero; no array may view `mm` when this is called.

    The builder's buffers are private anonymous maps, which `resize`
    grows with mremap: no byte is copied and no page is faulted twice.
    Copying each growth into a fresh map faulted every page about three
    times over a compile. Pages take memory only once written, so the
    unused tail of a finished circuit's buffers costs nothing, and they
    go back to the system when the circuit dies; heap blocks grown and
    freed round after round fragmented the heap instead. The map must be
    private: a shared anonymous map resized this way dies with SIGBUS on
    the first write past its old size. Without mremap `resize` raises
    `SystemError`, and the contents are copied into a fresh map.
    """
    nbytes = size * np.dtype(dtype).itemsize
    try:
        mm.resize(nbytes)
    except SystemError:
        old, mm = mm, mmap.mmap(-1, nbytes, flags=_MAP_FLAGS)
        mm[:len(old)] = old
    return _on_map(mm, dtype)


class BuilderBase:
    """Oblivious building blocks over three leaves.

    `xor_v(A, B)` and `and_v(A, B)` take broadcastable arrays of wires
    and emit one gate per element of the broadcast shape, returning the
    output wires in that shape; `lt(A, B)` emits a ripple comparator per
    instance of its broadcast operands. Every block works over arrays
    whose last axis holds the bits of a big-endian vector and whose
    leading axes are independent instances, so one call emits a whole
    layer of comparators, muxes or swaps; a 1-D vector is the
    single-instance case. Subclasses provide the leaves and
    `input_vector`.
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

    def eq(self, a, b):
        """a == b; width-1 AND gates via an AND-tree over XNORs."""
        a, b = self._operands("eq", a, b)
        return self._and_tree(self.not_(self.xor_v(a, b)))

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

    Gates and per-wire levels live in buffers on private anonymous maps
    that grow in place by half their size when full (`_grown`);
    `finish()` hands views of their used lengths to the circuit. Each
    leaf call records its gates' full topological levels and AND depths:
    `xor_v` and `and_v` with one pass over their operand arrays, `lt`
    from closed forms over its operands' levels and depths.
    """

    def __init__(self):
        self._n_wires = 1
        self._n_gates = 0
        self._kind = _mapped(np.uint8, 1024)
        self._a = _mapped(np.int32, 1024)
        self._b = _mapped(np.int32, 1024)
        # per wire; wire 0 is the constant, and every wire starts at level 0
        self._level = _mapped(np.int32, 1024)
        self._depth = _mapped(np.int32, 1024)
        self._input_map: dict[int, list[int]] = {}
        self.and_count = 0

    def _check_open(self) -> None:
        if self._kind is None:
            raise CircuitError("the builder has finished; it takes no more inputs or gates")

    def _reserve(self, gates: int, wires: int) -> None:
        """Room for `gates` gates and `wires` wires; a buffer too short
        grows by half, or to what is asked if that is more. Every leaf
        that emits and every input declaration comes here, so this is
        where a finished builder refuses them, and where a buffer that
        cannot grow is a `CircuitError` that leaves the builder as it
        was."""
        self._check_open()
        for name, need in (("_kind", gates), ("_a", gates), ("_b", gates),
                           ("_level", wires), ("_depth", wires)):
            buf = getattr(self, name)
            if need > len(buf):
                size, dtype, mm = max(need, len(buf) * 3 // 2), buf.dtype, buf.base.obj
                del buf
                setattr(self, name, None)  # resize refuses while an array views the map
                try:
                    grown = _grown(mm, dtype, size)
                except (OSError, MemoryError) as exc:
                    setattr(self, name, _on_map(mm, dtype))
                    raise CircuitError(
                        f"cannot grow the builder's {name} buffer to "
                        f"{size * dtype.itemsize} bytes: {exc!r}"
                    ) from exc
                setattr(self, name, grown)

    def input_vector(self, party: int, n: int) -> list[int]:
        if self._n_gates:
            raise CircuitError("all inputs must be declared before the first gate")
        if n < 0:
            raise CircuitError(f"party {party} declares {n} input wires")
        wires = list(range(self._n_wires, self._n_wires + n))
        self._reserve(0, self._n_wires + n)  # unwritten entries are 0: the new wires' levels
        self._n_wires += n
        self._input_map.setdefault(party, []).extend(wires)
        return wires

    def _check_driven(self, a, b):
        """Refuse intp operand wires that are not driven yet."""
        # as unsigned, a negative index is out of range too
        if max(a.view(np.uintp).max(), b.view(np.uintp).max()) >= self._n_wires:
            raise CircuitError("gate input references an undriven wire")

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
        self._check_driven(a, b)
        first, g0 = self._n_wires, self._n_gates
        self._reserve(g0 + n, first + n)
        g1, w1 = g0 + n, first + n
        self._kind[g0:g1] = kind
        self._a[g0:g1] = a
        self._b[g0:g1] = b
        level, depth = self._level, self._depth
        np.maximum(level[a], level[b], out=level[first:w1])
        level[first:w1] += 1
        d = np.maximum(depth[a], depth[b])
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

    def lt(self, a, b):
        """Strict a < b over equal-width unsigned big-endian vectors, one
        comparator per instance of the broadcast operands, as one block.

        LSB-to-MSB ripple: carry c_0 = b_0 XOR (b_0 AND a_0), then c_i =
        b_i XOR ((b_i XOR c_(i-1)) AND (a_i XOR c_(i-1))); width ANDs and
        4 width - 2 gates per instance. With k instances the gates are
        the LSB's k ANDs and k XORs, then per bit k of b XOR c, k of a
        XOR c, k ANDs and k XORs: the order of a bit-by-bit loop over the
        vector leaves. Levels and AND depths follow in closed form from
        the operand bits, LSB first. With M_s and Dm_s the higher level
        and AND depth of bit s's two operand wires, carry i sits at level
        3i + max_(s<=i) E_s, where E_0 = M_0 + 2 and E_s = M_s + 3 - 3s,
        and at AND depth i + 1 + max_(s<=i) (Dm_s - s); each AND is one
        level below its carry, at its AND depth.
        """
        a, b = self._operands("lt", a, b)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape, sigma = a.shape[:-1], a.shape[-1]
        k = a.size // sigma
        if not k:
            return np.zeros(shape, dtype=np.int32)
        # the operand bits as (sigma, k), LSB first
        a, b = (np.ascontiguousarray(x.reshape(k, sigma)[:, ::-1].T, dtype=np.intp) for x in (a, b))
        self._check_driven(a, b)
        first, g0 = self._n_wires, self._n_gates
        n = (4 * sigma - 2) * k
        self._reserve(g0 + n, first + n)
        level, depth = self._level, self._depth
        la, lb, da, db = level[a], level[b], depth[a], depth[b]
        s = np.arange(sigma)[:, None]
        e = np.maximum(la, lb) - 3 * s + 3
        e[0] -= 1
        lc = np.maximum.accumulate(e) + 3 * s
        dc = np.maximum.accumulate(np.maximum(da, db) - s) + s + 1
        # (sigma, 4, k) blocks over the slots b^c, a^c, AND and carry of
        # each bit; the LSB has no b^c or a^c, so its first 2k entries,
        # whose carry-in wraps round to the MSB's, are dropped
        wire = np.arange(first - 2 * k, first + n, dtype=np.int32).reshape(sigma, 4, k)
        carry, c_in = wire[:, 3], np.roll(wire[:, 3], 1, axis=0)
        in_a = np.stack([b, a, wire[:, 0], b], axis=1)
        in_b = np.stack([c_in, c_in, wire[:, 1], wire[:, 2]], axis=1)
        in_a[0, 2], in_b[0, 2] = b[0], a[0]
        lc_in, dc_in = np.roll(lc, 1, axis=0), np.roll(dc, 1, axis=0)
        lev = np.stack([np.maximum(lb, lc_in) + 1, np.maximum(la, lc_in) + 1, lc - 1, lc], axis=1)
        dep = np.stack([np.maximum(db, dc_in), np.maximum(da, dc_in), dc, dc], axis=1)
        kind = np.zeros((sigma, 4, k), dtype=np.uint8)
        kind[:, 2] = AND
        for buf, lo, block in ((self._kind, g0, kind), (self._a, g0, in_a), (self._b, g0, in_b),
                               (level, first, lev), (depth, first, dep)):
            buf[lo:lo + n] = block.reshape(-1)[2 * k:]
        self.and_count += sigma * k
        self._n_gates, self._n_wires = g0 + n, first + n
        return carry[-1].reshape(shape)

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
        """Freeze the gates emitted so far into a circuit whose outputs
        are `output_wires`, each of them driven already."""
        self._check_open()
        outs = _wires(output_wires).astype(np.intp).ravel()
        if outs.size and outs.view(np.uintp).max() >= self._n_wires:  # negatives too
            raise CircuitError("an output wire is not driven")
        kind, a, b, level, depth = self._trim()
        return BooleanCircuit(
            kind, a, b, self._input_map, outs.tolist(),
            wire_level=level, wire_depth=depth, and_count=self.and_count,
        )


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

    def lt(self, a, b):
        a, b = self._operands("lt", a, b)
        out = self._tokens(a[..., 0], b[..., 0])
        sigma = a.shape[-1]
        self.and_count += sigma * out.size
        self.xor_count += (3 * sigma - 2) * out.size
        return out


# -- text format -------------------------------------------------------------

_KIND_NAMES = {XOR: "XOR", AND: "AND"}
_TEXT_CHUNK = 1 << 16  # gate lines per write


def save_circuit_text(circuit: BooleanCircuit, out) -> None:
    """Write the circuit to the open text file `out` in the line format:
    header `W G I O`, one gate per line (kind, input wires, the wire it
    drives), then CONST1/INPUTS/OUTPUTS trailer. The gate lines are
    formatted and written `_TEXT_CHUNK` gates at a time, so one chunk of
    the text is alive at once, never the whole file.
    """
    first = 1 + circuit.n_input_wires
    out.write(
        f"{circuit.n_wires} {circuit.n_gates} "
        f"{circuit.n_input_wires} {len(circuit.output_wires)}\n"
    )
    gate_line = "{} {} {} {}\n".format
    for s in range(0, circuit.n_gates, _TEXT_CHUNK):
        e = min(s + _TEXT_CHUNK, circuit.n_gates)
        kinds = map(_KIND_NAMES.__getitem__, circuit.kind[s:e].tolist())
        out.write("".join(map(gate_line, kinds, circuit.in_a[s:e].tolist(),
                              circuit.in_b[s:e].tolist(), range(first + s, first + e))))
    out.write(f"CONST1 {circuit.const_one}\n")
    for party in sorted(circuit.input_map):
        wires = " ".join(str(w) for w in circuit.input_map[party])
        out.write(f"INPUTS {party} {wires}".rstrip() + "\n")
    out.write("OUTPUTS " + " ".join(str(w) for w in circuit.output_wires) + "\n")
