"""XOR-sharing protocol evaluator with dealer triples.

Parties hold XOR shares of every wire; XOR gates are local, each AND
layer costs one communication round of masked openings backed by one
Beaver triple per gate per batch element. Designated wires can be
opened mid-run (reactive opening) and the remaining shares stay valid,
which carries both the sortedness-abort path and cross-epoch reuse of
input shares.

All messages and share blobs use one framed wire format: a version
byte, little-endian (epoch, round, sender, wire-range id, bit count),
the packed payload, and a trailing CRC32 over everything before it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .circuit import BooleanCircuit, MissingInput, Schedule

FRAME_VERSION = 1
_HEAD = struct.Struct("<BIIHII")


class MpcError(Exception):
    """Base class for protocol-layer failures."""


class AbortUnsorted(MpcError):
    """Reactive sortedness flags named one or more cheating parties."""

    def __init__(self, parties):
        self.parties = sorted(parties)
        super().__init__(f"unsorted inputs from parties {self.parties}")


class TriplePoolExhausted(MpcError):
    """More AND gates evaluated than triples dealt."""


class AccountingMismatch(MpcError):
    """A transcript broke a communication-accounting identity."""


class TransportFailure(MpcError):
    """Missing, malformed, or corrupted protocol message."""


class EpochMismatch(MpcError):
    """Share blob belongs to a different epoch or party."""


class CorruptBlob(MpcError):
    """Share blob failed its checksum or length validation."""


# -- framing -----------------------------------------------------------------


def encode_frame(epoch: int, round_no: int, sender: int, range_id: int, bits: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(bits, dtype=np.uint8).reshape(-1)
    head = _HEAD.pack(FRAME_VERSION, epoch, round_no, sender, range_id, flat.size)
    payload = np.packbits(flat).tobytes()
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body))


def decode_frame(data: bytes):
    if len(data) < _HEAD.size + 4:
        raise TransportFailure("frame shorter than header")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise TransportFailure("frame checksum mismatch")
    version, epoch, round_no, sender, range_id, nbits = _HEAD.unpack(body[: _HEAD.size])
    if version != FRAME_VERSION:
        raise TransportFailure(f"unsupported frame version {version}")
    payload = body[_HEAD.size :]
    if len(payload) != (nbits + 7) // 8:
        raise TransportFailure("payload length disagrees with bit count")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)
    return epoch, round_no, sender, range_id, bits


def encode_share_blob(party: int, epoch: int, range_id: int, bits: np.ndarray) -> bytes:
    return encode_frame(epoch, 0, party, range_id, bits)


def decode_share_blob(data: bytes, party: int, epoch: int) -> np.ndarray:
    try:
        blob_epoch, _, blob_party, _, bits = decode_frame(data)
    except TransportFailure as exc:
        raise CorruptBlob(str(exc)) from exc
    if blob_epoch != epoch or blob_party != party:
        raise EpochMismatch(
            f"blob is for party {blob_party} epoch {blob_epoch}, "
            f"expected party {party} epoch {epoch}"
        )
    return bits


# -- correlated randomness -----------------------------------------------------


@dataclass
class TriplePool:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cursor: int = 0

    def take(self, k: int):
        if self.cursor + k > self.a.shape[0]:
            raise TriplePoolExhausted(
                f"need {k} triples, {self.a.shape[0] - self.cursor} left"
            )
        s = slice(self.cursor, self.cursor + k)
        self.cursor += k
        return self.a[s], self.b[s], self.c[s]


def deal_triples(n_parties: int, count: int, seed, batch: int = 1) -> list[TriplePool]:
    """Dealer-made XOR shares of (a, b, c=a&b); deterministic under seed.

    The share bits are unpacked from packed random words.
    """
    rng = np.random.default_rng(seed)
    shape = (n_parties, count, batch)
    size = n_parties * count * batch

    def share_bits():
        # One array per kind, unpacked from raw 64-bit draws with no other
        # copy: a single array for all three kinds, or `rng.bytes` (which
        # copies its buffer), raised the process's peak RSS.
        words = rng.bit_generator.random_raw((size + 63) // 64)
        packed = words.astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(packed, count=size).reshape(shape)

    a_sh, b_sh, c_sh = share_bits(), share_bits(), share_bits()
    a = np.bitwise_xor.reduce(a_sh, axis=0)
    b = np.bitwise_xor.reduce(b_sh, axis=0)
    c_sh[-1] ^= np.bitwise_xor.reduce(c_sh, axis=0) ^ (a & b)
    return [TriplePool(a_sh[p], b_sh[p], c_sh[p]) for p in range(n_parties)]


def share_input(bits: np.ndarray, n_shares: int, rng) -> list[np.ndarray]:
    """Split bits into n XOR shares; the correction share is last."""
    bits = np.asarray(bits, dtype=np.uint8)
    shares = [
        rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
        for _ in range(n_shares - 1)
    ]
    correction = bits.copy()
    for s in shares:
        correction ^= s
    return shares + [correction]


# -- evaluation schedule -------------------------------------------------------


def build_schedule(circuit: BooleanCircuit) -> Schedule:
    """Layered plan: XOR groups, then one AND round per depth, with the
    circuit's barriers closing a segment before each reactive opening.
    Built from the levels the builder recorded; memoized on the circuit.
    """
    return circuit.schedule()


# -- parties -------------------------------------------------------------------


class Party:
    """One computing party: share vector, triple pool, local gate logic."""

    def __init__(self, pid: int, index: int, n_wires: int, batch: int, pool: TriplePool):
        self.pid = pid
        self.index = index
        self.shares = np.zeros((n_wires, batch), dtype=np.uint8)
        if index == 0:
            self.shares[0] = 1  # constant-one wire reconstructs to 1
        self.pool = pool
        self.triples_used = 0
        self._pending = None

    def set_shares(self, wires, bits):
        self.shares[wires] = bits

    def apply_xors(self, groups):
        for a, b, o in groups:
            self.shares[o] = self.shares[a] ^ self.shares[b]

    def and_send(self, gates) -> np.ndarray:
        a_idx, b_idx, _ = gates
        ta, tb, tc = self.pool.take(len(a_idx))
        self.triples_used += len(a_idx)
        d = self.shares[a_idx] ^ ta
        e = self.shares[b_idx] ^ tb
        payload = np.concatenate([d, e], axis=0)
        self._pending = (ta, tb, tc, payload)
        return payload

    def and_recv(self, gates, received: list[np.ndarray]):
        _, _, o_idx = gates
        ta, tb, tc, own = self._pending
        self._pending = None
        total = own.copy()
        for other in received:
            total ^= other
        k = len(o_idx)
        d, e = total[:k], total[k:]
        z = tc ^ (d & tb) ^ (e & ta)
        if self.index == 0:
            z ^= d & e
        self.shares[o_idx] = z

    def open_payload(self, wires) -> np.ndarray:
        return self.shares[wires]


# -- transport -----------------------------------------------------------------


class InProcessTransport:
    """Ordered reliable queues per directed party pair."""

    def __init__(self):
        from collections import deque

        self._queues: dict[tuple[int, int], object] = {}
        self._deque = deque

    def send(self, sender: int, recipient: int, data: bytes):
        self._queues.setdefault((sender, recipient), self._deque()).append(data)

    def recv(self, recipient: int, sender: int) -> bytes:
        q = self._queues.get((sender, recipient))
        if not q:
            raise TransportFailure(f"no message from {sender} to {recipient}")
        return q.popleft()


# -- transcript ------------------------------------------------------------------


@dataclass
class Transcript:
    n_parties: int
    batch: int
    and_count: int
    and_layers: int
    reactive_opens: int = 0
    rounds: int = 0
    messages_sent: dict = field(default_factory=dict)
    payload_bits_sent: dict = field(default_factory=dict)
    bytes_sent: dict = field(default_factory=dict)
    triples_consumed: dict = field(default_factory=dict)

    def _bump(self, pid, messages, payload_bits, nbytes):
        self.messages_sent[pid] = self.messages_sent.get(pid, 0) + messages
        self.payload_bits_sent[pid] = self.payload_bits_sent.get(pid, 0) + payload_bits
        self.bytes_sent[pid] = self.bytes_sent.get(pid, 0) + nbytes

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


# -- engine ----------------------------------------------------------------------


@dataclass
class ReactiveOpen:
    """Open `wires` after `segment` finishes; validator(bits) may raise."""

    segment: int
    wires: list
    validator: object


class Engine:
    """Drive the computing parties through one protocol execution."""

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
        self.circuit = circuit
        self.computing_ids = list(computing_ids)
        self.schedule = build_schedule(circuit)
        self.reactive = list(reactive)
        self.batch = batch
        self.epoch = epoch
        self.transport = transport or InProcessTransport()
        pools = deal_triples(
            len(computing_ids), self.schedule.and_count, dealer_seed, batch
        )
        self.parties = {
            pid: Party(pid, i, circuit.n_wires, batch, pools[i])
            for i, pid in enumerate(self.computing_ids)
        }
        self.transcript = Transcript(
            n_parties=len(computing_ids),
            batch=batch,
            and_count=self.schedule.and_count,
            and_layers=self.schedule.and_layers,
            reactive_opens=len(self.reactive),
        )
        self._round = 0
        self._range_id = 0

    # input distribution ----------------------------------------------------

    def share_inputs(self, inputs: dict[int, np.ndarray], rng_of, preset=None):
        """Split each owner's bits toward the computing parties.

        `inputs` maps owner id to its full input bit vector (or batch);
        `preset` maps owner id to {wire offset ranges already restored}.
        """
        covered = dict(preset or {})
        for owner, wires in self.circuit.input_map.items():
            skip = covered.get(owner, ())
            todo = [i for i in range(len(wires)) if i not in skip]
            if owner not in inputs:
                if todo:
                    raise MissingInput(f"no input bits for party {owner}")
                continue
            bits = np.asarray(inputs[owner], dtype=np.uint8)
            if bits.ndim == 1:
                bits = bits[:, None]
            if bits.shape != (len(wires), self.batch):
                raise MissingInput(
                    f"party {owner}: expected {(len(wires), self.batch)} bits, "
                    f"got {bits.shape}"
                )
            sub_wires = [wires[i] for i in todo]
            sub_bits = bits[todo]
            shares = share_input(sub_bits, len(self.computing_ids), rng_of(owner))
            ordered = self._assign_shares(owner, shares)
            for pid, share in ordered.items():
                if pid == owner:
                    self.parties[pid].set_shares(sub_wires, share)
                else:
                    frame = encode_frame(
                        self.epoch, 0, owner, self._next_range(), share
                    )
                    self.transport.send(owner, pid, frame)
                    self.transcript._bump(owner, 1, share.size, len(frame))
                    got = decode_frame(self.transport.recv(pid, owner))[4]
                    self.parties[pid].set_shares(
                        sub_wires, got.reshape(share.shape)
                    )

    def _assign_shares(self, owner, shares):
        ids = self.computing_ids
        if owner in ids:
            others = [p for p in ids if p != owner]
            out = dict(zip(others, shares[:-1]))
            out[owner] = shares[-1]
        else:
            out = dict(zip(ids, shares))
        return out

    def restore_shares(self, pid: int, wires, bits):
        self.parties[pid].set_shares(wires, bits)

    # protocol rounds ---------------------------------------------------------

    def _next_range(self):
        self._range_id += 1
        return self._range_id

    def _broadcast_round(self, payload_of) -> dict[int, list[np.ndarray]]:
        """One communication round: every party sends the same payload to
        every other party; returns what each party received.
        """
        self._round += 1
        rid = self._next_range()
        shapes = {}
        for pid in self.computing_ids:
            payload = payload_of(pid)
            shapes[pid] = payload.shape
            frame = encode_frame(self.epoch, self._round, pid, rid, payload)
            sent = 0
            for other in self.computing_ids:
                if other != pid:
                    self.transport.send(pid, other, frame)
                    sent += 1
            assert sent == len(self.computing_ids) - 1
            self.transcript._bump(pid, sent, payload.size * sent, len(frame) * sent)
        received = {pid: [] for pid in self.computing_ids}
        for pid in self.computing_ids:
            for other in self.computing_ids:
                if other == pid:
                    continue
                epoch, rnd, sender, range_id, bits = decode_frame(
                    self.transport.recv(pid, other)
                )
                if (epoch, rnd, sender, range_id) != (self.epoch, self._round, other, rid):
                    raise TransportFailure("out-of-order protocol message")
                received[pid].append(bits.reshape(shapes[sender]))
        self.transcript.rounds = self._round
        return received

    def open_wires(self, wires) -> np.ndarray:
        """Broadcast-open a wire range; all parties reconstruct equally."""
        wires = list(wires)
        received = self._broadcast_round(
            lambda pid: self.parties[pid].open_payload(wires)
        )
        views = []
        for pid in self.computing_ids:
            total = self.parties[pid].open_payload(wires).copy()
            for other in received[pid]:
                total ^= other
            views.append(total)
        for v in views[1:]:
            if not np.array_equal(v, views[0]):
                raise TransportFailure("parties reconstructed different openings")
        return views[0]

    def run(self, inputs: dict[int, np.ndarray], rng_of, preset=None) -> np.ndarray:
        """Share inputs, evaluate all segments, open and return outputs."""
        self.share_inputs(inputs, rng_of, preset=preset)
        return self.run_shared()

    def run_shared(self) -> np.ndarray:
        reactive_by_segment: dict[int, list[ReactiveOpen]] = {}
        for r in self.reactive:
            reactive_by_segment.setdefault(r.segment, []).append(r)
        for seg_idx, segment in enumerate(self.schedule.segments):
            for layer in segment.layers:
                for pid in self.computing_ids:
                    self.parties[pid].apply_xors(layer.pre_xors)
                if len(layer.and_gates[2]):
                    received = self._broadcast_round(
                        lambda pid: self.parties[pid].and_send(layer.and_gates)
                    )
                    for pid in self.computing_ids:
                        self.parties[pid].and_recv(layer.and_gates, received[pid])
            for pid in self.computing_ids:
                self.parties[pid].apply_xors(segment.trailing_xors)
            for point in reactive_by_segment.get(seg_idx, ()):
                opened = self.open_wires(point.wires)
                point.validator(opened)
        outputs = self.open_wires(self.circuit.output_wires)
        for pid in self.computing_ids:
            self.transcript.triples_consumed[pid] = self.parties[pid].triples_used
        self.transcript.verify()
        return outputs

    # persistence ----------------------------------------------------------------

    def persist_shares(self, pid: int, wires, range_id: int = 1) -> bytes:
        bits = self.parties[pid].shares[list(wires)]
        return encode_share_blob(pid, self.epoch, range_id, bits)

    def load_shares(self, pid: int, wires, blob: bytes):
        wires = list(wires)
        bits = decode_share_blob(blob, pid, self.epoch)
        self.parties[pid].set_shares(
            wires, bits.reshape(len(wires), self.batch)
        )
