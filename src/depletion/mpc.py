"""XOR-sharing protocol evaluator with dealer-made per-layer input masks.

Parties hold XOR shares of every wire; XOR gates are local, and each AND
layer costs one communication round. In it each distinct input wire w
of the layer is opened once, masked: d_w = w ⊕ r_w, with r_w a fresh
dealer mask of that layer. Each AND x·y of the layer consumes one dealt
share of r_x·r_y: every party adds d_x·[r_y] ⊕ d_y·[r_x] ⊕ [r_x·r_y],
and party 0 also d_x·d_y. This is Beaver's masked-opening AND (CRYPTO
1991) with one mask per input wire, as in ABY2.0 (Patra et al., USENIX
Security 2021), but drawn afresh for every layer, so a layer opens each
input once however many of its ANDs read it. No mask serves two
openings, so every opening is uniform and independent of all other
messages, and reveals nothing about any wire. After the last AND layer,
designated wires are opened (reactive opening) before the outputs, and
a validator may abort the run there: the sortedness flags are the first
opening, so an unsorted input stops the round before any output key is
revealed. Shares stay valid after an opening, which carries cross-epoch
reuse of input shares.

The computing parties are simulated together, in the SIMD layout that
ABY and MOTION use for GMW: all their shares live in one party-first
`uint8` tensor of shape (parties, wires, ceil(batch / 8)), with the
batch axis packed eight sessions to a byte, most significant bit first
(`np.packbits` order; the padding bits of a ragged last byte are zero).
Row i of it and of the pool's arrays, packed the same way, belongs to
the i-th computing party. Random share bytes are drawn one way:
`random_packed` reads a bit generator's next raw words as packed share
bytes and clears the padding bits. The dealer's masks and products are
one such block per chunk, and an owner's random input shares another.
The pool holds one chunk at a time, the masks and products of a run of
whole AND layers, at most `_CHUNK_BYTES` with the dealer's scratch
unless one layer alone needs more: when the next layer is past the
chunk, it drops the chunk and deals the next run from the dealer's
seeded generator, so the masks are fixed by the seed and the chunk
sizes. The gate kernels are bitwise, so an XOR group is one numpy
operation for every party over one eighth of the bytes, and an AND
layer is one masking, one reconstruction and one product for all of
them; only party 0 adds d_x·d_y. No party's row is computed from another
party's row except through the messages the round carries.

A packed row is `bits.row_bytes(batch)` bytes wide wherever the width
is needed. Two pairs of functions and `random_packed`, and no other
code, lay bits out in packed rows: `pack_batch`/`unpack_batch` convert
between 0/1 bits and packed rows, `_frame_payloads`/`_packed_rows`
between packed rows and frame payloads, and `random_packed` draws packed
rows. Inputs and openings speak one `uint8` per bit and convert through
the first pair; share blobs and restores are packed rows. Every frame
payload, a share blob's too, goes through the second.

The engine reads a round's inputs through `BooleanCircuit.input_bits`,
the check the plaintext evaluator makes, so both refuse the same
inputs: a missing or unknown party is `MissingInput`, a wrong wire
count or a ragged batch `WidthMismatch`. The engine adds only that the
batch is its own, and refuses before it sends a frame.

Messages and share blobs are sealed by one rule. A frame is a header,
a version byte and little-endian (epoch, round, sender, wire-range id,
bit count); the payload, the bits of its (rows, batch) block packed
row-major and MSB-first (at a batch that is a multiple of 8, the
block's packed rows byte for byte); and a CRC32 of header and payload.
A message between parties leaves the header off, since its recipient
knows every field from the fixed schedule: `encode_frame` seals
payload ‖ CRC32(header ‖ payload), and `decode_frame` rebuilds the
header the recipient expects and accepts a message whose length fits
the bit count and whose CRC32 checks over that header and the message,
so a message sealed under any other header is refused like a corrupted
one. A share blob keeps the header in front, so that `read_frame` can
tell a blob of another party, epoch or owner (`EpochMismatch`) from a
damaged one (`CorruptBlob`). Input shares travel in round 0, each with
a fresh range id; a protocol round's messages share one. In a protocol
round each sender's payload is sealed once and sent to every peer;
each recipient checks every message it received and XORs the payloads
onto its own, so its reconstruction is made only from what it
received. An opening sends each distinct wire once and insists that
all recipients agree. A share blob is sealed in round 0 by the
computing party holding it, its range id naming the input owner (slot
+ 1). A message still unread when its round ends aborts the run: a
corrupted, dropped, duplicated or reordered message ends in
`TransportFailure`, naming the recipient that caught it and the kind
of round, never in an output.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .bits import row_bytes
from .circuit import BooleanCircuit, Schedule, WidthMismatch

FRAME_VERSION = 1
_HEAD = struct.Struct("<BIIHII")
_CRC = struct.Struct("<I")
# The CRC32 of a header followed by a message, trailer included, is this
# constant exactly when the trailer is the CRC32 of everything before it:
# `zlib.crc32(message, zlib.crc32(header))` checks a message under a header
# that does not travel.
_CRC_RESIDUE = 0x2144DF1C


class MpcError(Exception):
    """Base class for protocol-layer failures."""


class AbortUnsorted(MpcError):
    """Reactive sortedness flags named one or more cheating parties."""

    def __init__(self, parties):
        self.parties = sorted(parties)
        super().__init__(f"unsorted inputs from parties {self.parties}")


class TriplePoolExhausted(MpcError):
    """More AND layers evaluated than the dealer dealt for."""


class AccountingMismatch(MpcError):
    """A transcript broke a communication-accounting identity."""


class TransportFailure(MpcError):
    """Missing, malformed, or corrupted protocol message."""


class EpochMismatch(MpcError):
    """Share blob belongs to a different epoch or party."""


class CorruptBlob(MpcError):
    """Share blob failed its checksum or length validation."""


# -- framing -----------------------------------------------------------------


def frame_header(epoch: int, round_no: int, sender: int, range_id: int, nbits: int) -> bytes:
    """The header of a frame: the version byte and little-endian (epoch,
    round, sender, wire-range id, bit count)."""
    return _HEAD.pack(FRAME_VERSION, epoch, round_no, sender, range_id, nbits)


def encode_frame(epoch: int, round_no: int, sender: int, range_id: int, nbits: int, payload) -> bytes:
    """The message that carries `nbits` bits packed in the C-contiguous
    bytes-like `payload`: the payload and the CRC32 of this frame's
    header and the payload. The header itself is not sent; the inverse
    of `decode_frame`."""
    head = frame_header(epoch, round_no, sender, range_id, nbits)
    body = bytes(payload)
    return body + _CRC.pack(zlib.crc32(body, zlib.crc32(head)))


def decode_frame(data: bytes, epoch: int, round_no: int, sender: int, range_id: int, nbits: int) -> bytes:
    """The packed payload of a message sealed under exactly this header:
    the recipient rebuilds the header it expects, and the message is
    accepted when its length is what `nbits` implies and its CRC32 checks
    over that header and the message; the inverse of `encode_frame`."""
    size = row_bytes(nbits)
    if len(data) != size + _CRC.size:
        raise TransportFailure(f"message of {len(data)} bytes, expected {size + _CRC.size} for {nbits} bits")
    head = frame_header(epoch, round_no, sender, range_id, nbits)
    if zlib.crc32(data, zlib.crc32(head)) != _CRC_RESIDUE:
        raise TransportFailure(
            f"message fails its checksum under the expected (epoch, round, sender, range) "
            f"{(epoch, round_no, sender, range_id)} with {nbits} bits"
        )
    return data[:size]


def read_frame(data: bytes, epoch: int, round_no: int, sender: int, range_id: int,
               nbits: int, mismatch=TransportFailure) -> bytes:
    """The packed payload of a frame that carries its header in front of
    its message, as a share blob does, and must carry exactly this header
    and `nbits` bits: `TransportFailure` unless the message checks under
    the header in front of it, as `decode_frame` checks it (a frame of
    another version never does), and `mismatch` when that header names
    another epoch, round, sender, range or bit count."""
    if len(data) < _HEAD.size:
        raise TransportFailure("frame shorter than header")
    _, *head, got = _HEAD.unpack_from(data)
    payload = decode_frame(data[_HEAD.size :], *head, got)
    want = [epoch, round_no, sender, range_id]
    if head != want or got != nbits:
        raise mismatch(
            f"frame (epoch, round, sender, range) {tuple(head)} with {got} bits, "
            f"expected {tuple(want)} with {nbits}"
        )
    return payload


def decode_share_blob(data: bytes, party: int, epoch: int, range_id: int, rows: int, batch: int) -> np.ndarray:
    """A blob's `rows` shares as packed (rows, ceil(batch / 8)) rows:
    `CorruptBlob` if it fails its checksum or length, `EpochMismatch` if
    it belongs to another party, epoch or owner or holds another count."""
    try:
        payload = read_frame(data, epoch, 0, party, range_id, rows * batch, mismatch=EpochMismatch)
    except TransportFailure as exc:
        raise CorruptBlob(str(exc)) from exc
    return _packed_rows(np.frombuffer(payload, dtype=np.uint8)[None], rows, batch)[0]


# -- batch layout ----------------------------------------------------------------


# A batch-1 byte is its bit moved to the top. numpy vectorizes the uint8
# multiply and not the uint8 left shift, so the shift is written as a
# product.
_MSB = np.uint8(0x80)


def pack_batch(bits) -> np.ndarray:
    """Pack the last (batch) axis of a 0/1 array eight to a byte, MSB
    first, as `np.packbits` does; a ragged last byte is zero-padded."""
    bits = np.asarray(bits, dtype=np.uint8)
    *lead, batch = bits.shape
    if batch == 1:
        return bits * _MSB
    width = row_bytes(batch)
    if batch % 8:
        # pad each row to whole bytes, then pack flat: one pass, where
        # packing along a short last axis loops per row
        padded = np.zeros((*lead, 8 * width), dtype=np.uint8)
        padded[..., :batch] = bits
        bits = padded
    return np.packbits(bits.reshape(-1)).reshape(*lead, width)


def unpack_batch(packed: np.ndarray, batch: int) -> np.ndarray:
    """The 0/1 array of `batch` bits per row that `pack_batch` packed."""
    if batch == 1:
        return packed >> 7
    *lead, width = packed.shape
    bits = np.unpackbits(packed.reshape(-1)).reshape(*lead, 8 * width)
    return bits[..., :batch] if batch % 8 else bits


def _frame_payloads(packed: np.ndarray, batch: int) -> np.ndarray:
    """Frame payloads of (parties, rows, width) packed rows, one row of
    packed (rows, batch) bits per party; at a batch that is a multiple
    of 8, a view of `packed`."""
    n, rows, width = packed.shape
    if batch % 8 == 0:
        return packed.reshape(n, rows * width)
    return np.packbits(unpack_batch(packed, batch).reshape(n, rows * batch), axis=1)


def _packed_rows(payloads: np.ndarray, rows: int, batch: int) -> np.ndarray:
    """The inverse of `_frame_payloads`: (parties, rows, width)."""
    n = payloads.shape[0]
    if batch % 8 == 0:
        return payloads.reshape(n, rows, batch // 8)
    bits = np.unpackbits(payloads, axis=1, count=rows * batch).reshape(n, rows, batch)
    if batch == 1:
        # the unpacked bits are ours, so move each to the top in place
        return np.multiply(bits, _MSB, out=bits)
    return pack_batch(bits)


# -- correlated randomness -----------------------------------------------------


def random_packed(gen, shape: tuple, batch: int) -> np.ndarray:
    """The bit generator's next `random_raw` words as uniform packed share
    bytes, (*shape, ceil(batch / 8)) in the share tensor's layout, with
    the padding bits of a ragged last byte cleared."""
    width = row_bytes(batch)
    size = math.prod(shape) * width
    words = gen.random_raw(-(-size // 8)).astype("<u8", copy=False)
    out = words.view(np.uint8)[:size].reshape(*shape, width)
    if batch % 8:
        # keep the top batch % 8 bits: the sessions, MSB first
        out[..., -1] &= np.uint8((0xFF00 >> batch % 8) & 0xFF)
    return out


# Bytes of one chunk of the engine's pool, with the dealer's scratch for
# it: the pool holds one chunk at a time, not all its masks and products.
_CHUNK_BYTES = 768 << 10


def _dealt_row_bytes(n_parties: int, batch: int) -> int:
    """Bytes counted per row (mask or product) of a chunk while the
    dealer deals it: every party's share, four rows of scratch and 16
    bytes. Its scratch is less: a row per mask for the reconstructed
    masks, two rows per product for the product and its other factor,
    and per product an int64 mask offset and one operand's int64 mask
    row. The formula is kept so that the chunks, and with them every
    dealt mask and product, stay as they were."""
    return (n_parties + 4) * row_bytes(batch) + 16


def _chunk_rows(n_parties: int, batch: int) -> int:
    """Rows, masks plus products, in one chunk of the engine's pool; at
    least one."""
    return max(1, _CHUNK_BYTES // _dealt_row_bytes(n_parties, batch))


def deal_triples(gen, n_parties: int, index, opened, ands, batch: int):
    """Dealer-made XOR shares for a run of whole AND layers of a schedule:
    per layer, a fresh mask r of each of its `opened` distinct inputs,
    and per each of its `ands` ANDs, a share of r_a & r_b for the ANDs'
    inputs at `index`, the run's (2, ANDs) columns of
    `Schedule.and_index`. Returns (r, c), (parties, masks, ceil(batch /
    8)) and (parties, ANDs, ceil(batch / 8)) arrays packed like the share
    tensor: the next words of `gen`, as one `random_packed` block of
    both, with the last party's `c` fixed up."""
    m = int(opened.sum())
    block = random_packed(gen, (n_parties, m + int(ands.sum())), batch)
    r, c = block[:, :m], block[:, m:]
    masks = np.bitwise_xor.reduce(r, axis=0)
    # an operand's row in r is its position among its layer's inputs plus
    # the layer's first row
    at = np.repeat(np.cumsum(opened) - opened, ands)
    prod = masks.take(index[0] + at, axis=0)
    prod &= masks.take(index[1] + at, axis=0)
    del masks, at
    prod ^= np.bitwise_xor.reduce(c, axis=0)
    c[-1] ^= prod
    return r, c


class TriplePool:
    """The dealer's masks and product shares for every AND layer of
    `schedule` and every computing party, served a layer at a time by
    `take` and deterministic under `seed`.

    The pool holds one chunk at a time, `r` and `c` as `deal_triples`
    returns them for a run of whole layers; `cursor` counts the products
    served, one per AND. When the next layer is past the chunk, the pool
    drops it and deals the layers from there whose masks and products
    add up to at most `_chunk_rows` rows, or that one layer if it alone
    has more. So the first chunk is dealt by the first `take`.
    """

    def __init__(self, n_parties: int, schedule: Schedule, seed, batch: int):
        self.n_parties, self.batch = n_parties, batch
        self.index, self.opened, self.ands = schedule.and_index, schedule.opened, schedule.ands
        self.gen = np.random.default_rng(seed).bit_generator
        self.r = self.c = np.empty((n_parties, 0, row_bytes(batch)), dtype=np.uint8)
        self.cursor = 0
        self.layer = 0  # the next layer to serve
        self._end = 0  # the layer after the held chunk's last
        self._at = (0, 0)  # the next layer's first mask and product in the chunk

    def take(self):
        """The next layer's masks (parties, inputs, ceil(batch / 8)) and
        product shares (parties, ANDs, ceil(batch / 8))."""
        i = self.layer
        if i == self._end:
            if i == len(self.ands):
                raise TriplePoolExhausted(f"all {i} AND layers were served")
            self.r = self.c = None  # never hold two chunks
            most = _chunk_rows(self.n_parties, self.batch)
            # a layer has at least two rows, one AND and one input
            ahead = slice(i, i + most // 2 + 1)
            rows = np.cumsum(self.opened[ahead] + self.ands[ahead])
            j = i + max(1, int(np.searchsorted(rows, most, "right")))
            g0 = self.cursor  # the products before layer i
            g1 = g0 + int(self.ands[i:j].sum())
            # through the module attribute, so that a wrapper sees every chunk
            self.r, self.c = deal_triples(self.gen, self.n_parties, self.index[:, g0:g1],
                                          self.opened[i:j], self.ands[i:j], self.batch)
            self._end, self._at = j, (0, 0)
        m, k = int(self.opened[i]), int(self.ands[i])
        m0, g0 = self._at
        self._at = (m0 + m, g0 + k)
        self.layer += 1
        self.cursor += k
        return self.r[:, m0:m0 + m], self.c[:, g0:g0 + k]


def share_input(packed: np.ndarray, n_shares: int, gen, batch: int) -> np.ndarray:
    """Split packed (rows, ceil(batch / 8)) bits into `n_shares` XOR
    shares, (n_shares, rows, ceil(batch / 8)), the random ones drawn by
    `random_packed`; the correction share is last."""
    shares = np.empty((n_shares, *packed.shape), dtype=np.uint8)
    shares[:-1] = random_packed(gen, (n_shares - 1, len(packed)), batch)
    shares[-1] = packed
    shares[-1] ^= np.bitwise_xor.reduce(shares[:-1], axis=0)
    return shares


# -- evaluation schedule -------------------------------------------------------


def build_schedule(circuit: BooleanCircuit) -> Schedule:
    """Layered plan: per AND depth, XOR groups then one AND round over
    the layer's distinct inputs, and the XOR groups after the last AND
    round. Built from the levels the builder recorded; memoized on the
    circuit.
    """
    return circuit.schedule()


# -- parties -------------------------------------------------------------------


class Party:
    """Local gate logic of every computing party at once.

    Row i of `shares`, a (parties, wires, ceil(batch / 8)) tensor with
    the batch axis packed (`pack_batch`), and of the pool belongs to the
    i-th computing party. Each kernel is one bitwise numpy
    operation over all rows, and each row is computed only from that
    party's own rows and, in `and_recv`, its own reconstruction.
    """

    def __init__(self, n_parties: int, n_wires: int, batch: int, pool: TriplePool):
        self.shares = np.zeros((n_parties, n_wires, row_bytes(batch)), dtype=np.uint8)
        # constant-one wire reconstructs to 1 in every session
        self.shares[0, 0] = pack_batch(np.ones(batch, dtype=np.uint8))
        self.pool = pool
        self._pending = None

    def apply_xors(self, groups):
        sh = self.shares
        for a, b, o in groups:
            x = sh.take(a, axis=1)
            x ^= sh.take(b, axis=1)
            sh[:, o] = x

    def and_send(self, gates) -> np.ndarray:
        """Every party's shares of the layer's distinct inputs, masked
        with its shares of the layer's masks, as packed (parties, inputs,
        width) rows."""
        r, c = self.pool.take()
        payload = self.shares.take(gates[0], axis=1)
        payload ^= r
        self._pending = (r, c)
        return payload

    def and_recv(self, gates, opened: np.ndarray):
        """`opened` holds each party's reconstruction d = w ⊕ r_w of the
        layer's inputs, as packed (parties, inputs, width) rows. Each
        AND's share is d_a·[r_b] ⊕ d_b·[r_a] ⊕ [r_a·r_b], plus d_a·d_b
        at party 0."""
        r, c = self._pending
        self._pending = None
        _, idx, out = gates
        d = opened.take(idx, axis=1)
        m = r.take(idx, axis=1)
        z = d[:, 0] & m[:, 1]
        z ^= c
        m[:, 0] &= d[:, 1]
        z ^= m[:, 0]
        z[0] ^= d[0, 0] & d[0, 1]
        self.shares[:, out] = z


# -- transport -----------------------------------------------------------------


class InProcessTransport:
    """Ordered reliable queues per directed party pair."""

    def __init__(self):
        self._queues: dict[tuple[int, int], deque] = defaultdict(deque)

    def send(self, sender: int, recipient: int, data: bytes):
        self._queues[sender, recipient].append(data)

    def recv(self, recipient: int, sender: int) -> bytes:
        q = self._queues.get((sender, recipient))
        if not q:
            raise TransportFailure(f"no message from {sender} to {recipient}")
        return q.popleft()

    def pending(self) -> dict[tuple[int, int], int]:
        """Frames sent and not yet received, per (sender, recipient) queue
        that holds any."""
        return {pair: len(q) for pair, q in self._queues.items() if q}


# -- transcript ------------------------------------------------------------------


@dataclass
class Transcript:
    """The counts of one engine's run.

    Input shares are counted per sender in `input_sent`. In every later
    round each computing party frames one payload of the same size and
    sends it to each of its peers, so those rounds are counted once for
    all computing parties: `round_sent` holds what each of them sent in
    them, and `and_bits` the payload bits of its AND layers alone.
    `triples_consumed` counts each computing party's dealt mask
    products, one per AND.
    """

    computing_ids: list
    batch: int
    and_count: int
    and_layers: int
    and_inputs_opened: int
    reactive_opens: int = 0
    rounds: int = 0
    input_sent: dict = field(default_factory=dict)  # sender -> [messages, payload bits, bytes]
    round_sent: list = field(default_factory=lambda: [0, 0, 0])
    and_bits: int = 0
    triples_consumed: dict = field(default_factory=dict)

    @property
    def n_parties(self) -> int:
        return len(self.computing_ids)

    def _sent(self, i: int) -> dict:
        """Item i of (messages, payload bits, bytes) per party that sent."""
        senders = [*self.input_sent, *(p for p in self.computing_ids if p not in self.input_sent)]
        computing = set(self.computing_ids)
        return {p: self.input_sent.get(p, (0, 0, 0))[i] + (self.round_sent[i] if p in computing else 0)
                for p in senders}

    @property
    def messages_sent(self) -> dict:
        return self._sent(0)

    @property
    def payload_bits_sent(self) -> dict:
        return self._sent(1)

    @property
    def bytes_sent(self) -> dict:
        return self._sent(2)

    def _bump_input(self, sender, nbits, frame_bytes):
        """One frame of input shares from `sender`."""
        sent = self.input_sent.setdefault(sender, [0, 0, 0])
        sent[0] += 1
        sent[1] += nbits
        sent[2] += frame_bytes

    def _bump_round(self, nbits, frame_bytes, and_layer: bool):
        """One broadcast round: each computing party sent one frame of
        `nbits` payload bits and `frame_bytes` bytes to each peer."""
        peers = self.n_parties - 1
        sent = self.round_sent
        sent[0] += peers
        sent[1] += nbits * peers
        sent[2] += frame_bytes * peers
        if and_layer:
            self.and_bits += nbits * peers

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def verify(self):
        """Communication-accounting identities; raises on violation."""
        if self.rounds != self.and_layers + self.reactive_opens + 1:
            raise AccountingMismatch(
                f"rounds {self.rounds} != AND layers {self.and_layers} "
                f"+ opens {self.reactive_opens} + 1"
            )
        for pid, used in self.triples_consumed.items():
            if used != self.and_count:
                raise AccountingMismatch(
                    f"party {pid} consumed {used} triples for {self.and_count} ANDs"
                )
        opened = self.and_inputs_opened * self.batch * (self.n_parties - 1)
        if self.and_bits != opened:
            raise AccountingMismatch(
                f"each computing party sent {self.and_bits} AND-layer payload bits for "
                f"{self.and_inputs_opened} inputs opened at batch {self.batch} to {self.n_parties - 1} peers"
            )


# -- engine ----------------------------------------------------------------------


def _first_occurrences(values: np.ndarray):
    """The distinct items of `values` in the order of their first
    occurrence, and the index of each item of `values` among them. Not
    np.unique, for the reason `Engine.restore_shares` gives; a stable
    sort, as the schedule's builder makes, puts each item's first
    occurrence first among its equals."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    new = np.empty(ranked.size, dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    firsts = order[new]  # each distinct item's first position, by value
    by_position = np.argsort(firsts, kind="stable")
    rank = np.empty_like(by_position)
    rank[by_position] = np.arange(by_position.size)
    where = np.empty_like(order)
    where[order] = rank[np.cumsum(new) - 1]
    return values[firsts[by_position]], where


@dataclass
class ReactiveOpen:
    """Open `wires` after the last AND layer, before the outputs;
    validator(bits) may raise to abort the run."""

    wires: list
    validator: object


def _physical_memory() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 1 << 62  # unknown: refuse nothing


# Most bytes an engine may hold while it is built: the machine's physical
# memory. An engine over it cannot finish, so `Engine` refuses it before
# allocating instead of failing or swapping part-way through dealing; any
# engine under it is allowed.
MAX_ENGINE_BYTES = _physical_memory()


# The engine's own Python objects and the dealer's generator: under 8 KiB
# in tracemalloc, whatever the circuit, rounded up.
_ENGINE_OBJECT_BYTES = 64 << 10


class EngineTooLarge(MpcError):
    """An engine would need more than `MAX_ENGINE_BYTES` while it is built."""


def engine_bytes(n_parties: int, n_wires: int, and_count: int, batch: int, widest: int = 0) -> int:
    """An upper bound on the bytes an engine holds at once while it is
    built and deals its first chunk: the share tensor, ceil(batch / 8)
    bytes per wire and party, and the pool's first chunk with the
    dealer's scratch, `_dealt_row_bytes` per row. A chunk has at most
    `_chunk_rows` rows (masks and products), or one layer's if that
    layer alone has more; `widest`, the most rows of one layer, is known
    once the schedule is, and the whole circuit has at most 3 × ANDs
    rows. Each later chunk is dealt after the one before it is dropped,
    and is no larger. On top comes `_ENGINE_OBJECT_BYTES`, for what does
    not scale with the circuit."""
    rows = min(3 * and_count, max(_chunk_rows(n_parties, batch), widest))
    return (n_parties * n_wires * row_bytes(batch) + rows * _dealt_row_bytes(n_parties, batch)
            + _ENGINE_OBJECT_BYTES)


_AND_LAYER = "AND layer"  # the kind of round whose payload bits `Transcript.and_bits` counts


def _check_size(need: int) -> None:
    if need > MAX_ENGINE_BYTES:
        raise EngineTooLarge(f"shares and masks need {need} bytes, over the limit of {MAX_ENGINE_BYTES}")


class Engine:
    """Drive the computing parties through one protocol execution.

    `parties` holds every computing party's shares and dealt masks; row i
    belongs to `computing_ids[i]`.
    """

    def __init__(
        self,
        circuit: BooleanCircuit,
        computing_ids: list[int],
        *,
        reactive: list[ReactiveOpen] = (),
        dealer_seed=0,
        batch: int = 1,
        epoch: int = 0,
        transport=None,
    ):
        if batch < 1:
            raise MpcError(f"batch {batch} must be at least 1")
        # what the frame header can carry: a 32-bit epoch and 16-bit senders
        if not 0 <= epoch < 1 << 32:
            raise MpcError(f"epoch {epoch} is not in 0..{(1 << 32) - 1}")
        self.computing_ids = list(computing_ids)
        if not self.computing_ids or len(set(self.computing_ids)) < len(self.computing_ids):
            raise MpcError(f"computing parties {self.computing_ids} must be one or more distinct ids")
        if not all(0 <= pid < 1 << 16 for pid in self.computing_ids):
            raise MpcError(f"computing parties {self.computing_ids} are not all in 0..{(1 << 16) - 1}")
        n = len(self.computing_ids)
        # before the schedule, which is itself as large as the circuit, and
        # again once the schedule tells how wide its widest layer is
        _check_size(engine_bytes(n, circuit.n_wires, circuit.and_count, batch))
        self.circuit = circuit
        self.schedule = build_schedule(circuit)
        _check_size(engine_bytes(n, circuit.n_wires, circuit.and_count, batch, self.schedule.widest_layer))
        self.reactive = list(reactive)
        self.batch = batch
        self.epoch = epoch
        self.transport = transport or InProcessTransport()
        pool = TriplePool(n, self.schedule, dealer_seed, batch)
        self.parties = Party(n, circuit.n_wires, batch, pool)
        self._row = {pid: i for i, pid in enumerate(self.computing_ids)}
        self._peers = {pid: [o for o in self.computing_ids if o != pid] for pid in self.computing_ids}
        self.transcript = Transcript(
            computing_ids=self.computing_ids,
            batch=batch,
            and_count=self.schedule.and_count,
            and_layers=self.schedule.and_layers,
            and_inputs_opened=self.schedule.and_inputs_opened,
            reactive_opens=len(self.reactive),
        )
        self._round = 0
        self._range_id = 0
        self._restored = np.zeros(0, dtype=np.intp)  # sorted: the wires `restore_shares` filled

    # input distribution ----------------------------------------------------

    def share_inputs(self, inputs: dict[int, np.ndarray], rng_of):
        """Split each owner's bits toward the computing parties, leaving
        out the wires that `restore_shares` filled.

        `inputs` maps every input owner to its full input bits, as
        `BooleanCircuit.input_bits` checks them, for this engine's batch.
        """
        bits, _ = self.circuit.input_bits(inputs)
        for owner, own in bits.items():
            if own.shape[1] != self.batch:
                raise WidthMismatch(f"party {owner}: {own.shape[1]} sessions for a batch of {self.batch}")
            wires = np.asarray(self.circuit.input_map[owner], dtype=np.intp)
            keep = ~np.isin(wires, self._restored) if self._restored.size else slice(None)
            todo = wires[keep]
            shares = share_input(pack_batch(own[keep]), len(self.computing_ids),
                                 rng_of(owner).bit_generator, self.batch)
            # The owner keeps the correction share, which comes last; an
            # owner that computes nothing sends every share.
            others = [pid for pid in self.computing_ids if pid != owner]
            nbits = todo.size * self.batch
            for pid, payload in zip(others, _frame_payloads(shares[:len(others)], self.batch)):
                rid = self._next_range()
                self.transcript._bump_input(owner, nbits, self._post(owner, [pid], rid, nbits, payload))
                got = np.frombuffer(self._take(pid, owner, rid, nbits, "input share"), dtype=np.uint8)
                self.parties.shares[self._row[pid], todo] = _packed_rows(got[None], todo.size, self.batch)[0]
            if owner in self._row:
                self.parties.shares[self._row[owner], todo] = shares[-1]
        self._end_round("input share")

    def restore_shares(self, wires, packed):
        """Load every computing party's stored shares of `wires`, packed
        (parties, wires, ceil(batch / 8)) rows with row i the i-th
        computing party's, as `decode_share_blob` returns them."""
        wires = np.asarray(wires, dtype=np.intp)
        self.parties.shares[:, wires] = packed
        # not np.union1d: it goes through np.unique, whose first call imports
        # numpy.ma, 0.7 MB of resident memory a round never needed before
        self._restored = np.sort(np.concatenate((self._restored, wires)))

    # protocol rounds ---------------------------------------------------------

    def _next_range(self):
        self._range_id += 1
        return self._range_id

    def _post(self, sender: int, recipients: list[int], range_id: int, nbits: int, payload) -> int:
        """Seal `nbits` bits packed in `payload` once in the current round
        and send the message to each recipient; returns its length."""
        message = encode_frame(self.epoch, self._round, sender, range_id, nbits, payload)
        for other in recipients:
            self.transport.send(sender, other, message)
        return len(message)

    def _abort(self, recipient: int, kind: str, reason) -> TransportFailure:
        return TransportFailure(f"recipient {recipient}, {kind} round {self._round}: {reason}")

    def _take(self, recipient: int, sender: int, range_id: int, nbits: int, kind: str) -> bytes:
        """The packed payload of the next message from `sender`, checked
        to be sealed under this round's `range_id` and `nbits` bits."""
        try:
            data = self.transport.recv(recipient, sender)
            return decode_frame(data, self.epoch, self._round, sender, range_id, nbits)
        except TransportFailure as exc:
            raise self._abort(recipient, kind, exc) from exc

    def _end_round(self, kind: str):
        """Close the current round; a message still unread aborts the run."""
        left = self.transport.pending()
        if left:
            sender, recipient = min(left)
            raise self._abort(
                recipient, kind,
                f"{sum(left.values())} unread messages at the end of the round, the first from party {sender}",
            )
        self.transcript.rounds = self._round

    def _broadcast_round(self, packed: np.ndarray, kind: str) -> np.ndarray:
        """One communication round. Row i of `packed`, (parties, rows,
        width), is the i-th computing party's, sealed once and sent to
        every peer. Returns each recipient's XOR of its own row and the
        rows it received, packed the same way.
        """
        self._round += 1
        rid = self._next_range()
        rows = packed.shape[1]
        nbits = rows * self.batch
        own = _frame_payloads(packed, self.batch)
        n, size = own.shape
        for pid, payload in zip(self.computing_ids, own):
            self._post(pid, self._peers[pid], rid, nbits, payload)
        length = size + _CRC.size
        self.transcript._bump_round(nbits, length, kind == _AND_LAYER)
        # `decode_frame`'s check, with each sender's expected header folded
        # into a CRC seed once per round; a message that fails it goes
        # through `decode_frame` only for the reason, and is refused.
        seeds = {
            pid: zlib.crc32(frame_header(self.epoch, self._round, pid, rid, nbits))
            for pid in self.computing_ids
        }
        recv, crc32 = self.transport.recv, zlib.crc32
        received = []  # per recipient, the messages of its peers
        try:
            for recipient in self.computing_ids:
                for sender in self._peers[recipient]:
                    data = recv(recipient, sender)
                    if len(data) != length or crc32(data, seeds[sender]) != _CRC_RESIDUE:
                        decode_frame(data, self.epoch, self._round, sender, rid, nbits)
                        raise TransportFailure("message failed its check")
                    received.append(data)
        except TransportFailure as exc:
            raise self._abort(recipient, kind, exc) from exc
        self._end_round(kind)
        messages = np.frombuffer(b"".join(received), dtype=np.uint8).reshape(n, n - 1, length)
        opened = np.bitwise_xor.reduce(messages[:, :, :size], axis=1)
        opened ^= own
        return _packed_rows(opened, rows, self.batch)

    def open_wires(self, wires, kind: str) -> np.ndarray:
        """Broadcast-open the distinct wires of `wires`, each once, in the
        order of their first occurrence; all parties must reconstruct
        equally. Returns the bits of `wires`, repeats included, as (wires,
        batch)."""
        distinct, where = _first_occurrences(np.asarray(wires, dtype=np.intp))
        views = self._broadcast_round(self.parties.shares[:, distinct], kind)
        differ = np.flatnonzero((views != views[0]).any(axis=(1, 2)))
        if differ.size:
            raise self._abort(
                self.computing_ids[differ[0]], kind,
                f"reconstructed another opening than party {self.computing_ids[0]}",
            )
        return unpack_batch(views[0][where], self.batch)

    def run(self, inputs: dict[int, np.ndarray], rng_of) -> np.ndarray:
        """Share inputs, evaluate, open and return outputs."""
        self.share_inputs(inputs, rng_of)
        return self.run_shared()

    def run_shared(self) -> np.ndarray:
        parties = self.parties
        for layer in self.schedule.layers:
            parties.apply_xors(layer.pre_xors)
            payload = parties.and_send(layer.and_gates)
            parties.and_recv(layer.and_gates, self._broadcast_round(payload, _AND_LAYER))
        parties.apply_xors(self.schedule.trailing_xors)
        for point in self.reactive:
            point.validator(self.open_wires(point.wires, "reactive opening"))
        outputs = self.open_wires(self.circuit.output_wires, "final opening")
        self.transcript.triples_consumed = dict.fromkeys(self.computing_ids, parties.pool.cursor)
        self.transcript.verify()
        return outputs

    # persistence ----------------------------------------------------------------

    def persist_shares(self, pid: int, wires, range_id: int = 1) -> bytes:
        """`pid`'s share blob of `wires`: its packed rows of them sealed
        in round 0, with `range_id` naming the input owner, behind the
        header they were sealed under."""
        rows = self.parties.shares[self._row[pid], np.asarray(wires, dtype=np.intp)]
        payload = _frame_payloads(rows[None], self.batch)[0]
        head = (self.epoch, 0, pid, range_id, len(rows) * self.batch)
        return frame_header(*head) + encode_frame(*head, payload)
