"""Protocol layer: framing, triples, sharing, layered evaluation, persistence."""

import random
import struct
import zlib

import numpy as np
import pytest

from depletion import mpc
from depletion import compiler as CP
from depletion.bits import int_to_bits
from depletion.circuit import CircuitBuilder


def tiny_and_circuit():
    b = CircuitBuilder()
    x = b.input_vector(0, 1)
    y = b.input_vector(1, 1)
    return b.finish([b.and_v(x[0], y[0])])


def random_circuit(rng, n_parties=3, gates=60):
    b = CircuitBuilder()
    wires = [b.one]
    for p in range(n_parties):
        wires += b.input_vector(p, rng.randint(1, 5))
    for _ in range(gates):
        op = rng.choice([b.xor_v, b.and_v])
        wires.append(op(rng.choice(wires), rng.choice(wires)))
    outs = rng.sample(wires[1:], k=min(6, len(wires) - 1))
    return b.finish(outs)


def run_engine(circ, inputs, seed=0, batch=1, **kw):
    ids = sorted(circ.input_map)
    engine = mpc.Engine(circ, ids, dealer_seed=seed, batch=batch, **kw)
    rngs = {p: np.random.default_rng(100 + p) for p in ids}
    out = engine.run(inputs, lambda p: rngs[p])
    return out, engine


# -- framing -------------------------------------------------------------------


def test_frame_round_trip():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    frame = mpc.encode_frame(3, 17, 2, 9, bits)
    epoch, rnd, sender, range_id, got = mpc.decode_frame(frame)
    assert (epoch, rnd, sender, range_id) == (3, 17, 2, 9)
    assert got.tolist() == bits.tolist()


def test_frame_corruption_detected():
    frame = bytearray(mpc.encode_frame(1, 1, 0, 0, np.ones(16, dtype=np.uint8)))
    frame[7] ^= 0x40
    with pytest.raises(mpc.TransportFailure):
        mpc.decode_frame(bytes(frame))
    with pytest.raises(mpc.TransportFailure):
        mpc.decode_frame(b"\x01\x02")


def test_read_frame_checks_every_header_field_and_the_bit_count():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    frame = mpc.encode_frame(3, 17, 2, 9, bits)
    assert mpc.read_frame(frame, 3, 17, 2, 9, (2, 3)).tolist() == bits.tolist()
    for header, shape in [
        ((4, 17, 2, 9), (2, 3)),
        ((3, 18, 2, 9), (2, 3)),
        ((3, 17, 1, 9), (2, 3)),
        ((3, 17, 2, 8), (2, 3)),
        ((3, 17, 2, 9), (7,)),
        ((3, 17, 2, 9), (5,)),
    ]:
        with pytest.raises(mpc.TransportFailure):
            mpc.read_frame(frame, *header, shape)


def test_share_blob_round_trip_and_authorization():
    bits = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    blob = mpc.encode_share_blob(party=4, epoch=2, range_id=1, bits=bits)
    got = mpc.decode_share_blob(blob, party=4, epoch=2, range_id=1, shape=(3, 2))
    assert got.tolist() == bits.tolist()
    for party, epoch, range_id, shape in [
        (1, 2, 1, (3, 2)),  # another computing party
        (4, 3, 1, (3, 2)),  # another epoch
        (4, 2, 2, (3, 2)),  # another input owner
        (4, 2, 1, (2, 2)),  # another size
    ]:
        with pytest.raises(mpc.EpochMismatch):
            mpc.decode_share_blob(blob, party, epoch, range_id, shape)
    with pytest.raises(mpc.CorruptBlob):
        mpc.decode_share_blob(blob[:-1] + bytes([blob[-1] ^ 1]), 4, 2, 1, (3, 2))
    short = blob[:-5]  # one payload byte gone, checksum recomputed
    with pytest.raises(mpc.CorruptBlob):
        mpc.decode_share_blob(short + struct.pack("<I", zlib.crc32(short)), 4, 2, 1, (3, 2))


# -- correlated randomness -------------------------------------------------------


def test_triples_reconstruct():
    pools = mpc.deal_triples(4, 10000, seed=5)
    a = np.bitwise_xor.reduce([p.a for p in pools], axis=0)
    b = np.bitwise_xor.reduce([p.b for p in pools], axis=0)
    c = np.bitwise_xor.reduce([p.c for p in pools], axis=0)
    assert np.array_equal(c, a & b)


def test_triples_seed_determinism():
    one = mpc.deal_triples(3, 64, seed=1)
    two = mpc.deal_triples(3, 64, seed=1)
    other = mpc.deal_triples(3, 64, seed=2)
    assert np.array_equal(one[0].a, two[0].a)
    assert not np.array_equal(one[0].a, other[0].a)


def test_triples_batched_with_ragged_bit_count():
    n_parties, count, batch = 3, 7, 3  # 189 share bits per kind, not a multiple of 8
    pools = mpc.deal_triples(n_parties, count, seed=11, batch=batch)
    assert len(pools) == n_parties
    for pool in pools:
        assert pool.a.shape == pool.b.shape == pool.c.shape == (count, batch)
    a, b, c = (
        np.bitwise_xor.reduce([getattr(p, name) for p in pools], axis=0)
        for name in "abc"
    )
    assert np.array_equal(c, a & b)
    again = mpc.deal_triples(n_parties, count, seed=11, batch=batch)
    other = mpc.deal_triples(n_parties, count, seed=12, batch=batch)
    for name in "abc":
        assert all(
            np.array_equal(getattr(p, name), getattr(q, name)) for p, q in zip(pools, again)
        )
    assert any(
        not np.array_equal(getattr(p, name), getattr(q, name))
        for p, q in zip(pools, other)
        for name in "abc"
    )


def test_triple_pool_exhaustion():
    pool = mpc.deal_triples(2, 4, seed=0)[0]
    pool.take(3)
    with pytest.raises(mpc.TriplePoolExhausted):
        pool.take(2)


def test_share_input_reconstruction():
    rng = np.random.default_rng(0)
    one = np.array([1], dtype=np.uint8)
    shares = mpc.share_input(one, 2, rng)
    assert (shares[0] ^ shares[1]).tolist() == [1]
    zeros = np.zeros(8, dtype=np.uint8)
    shares = mpc.share_input(zeros, 3, rng)
    assert np.bitwise_xor.reduce(shares, axis=0).tolist() == zeros.tolist()
    for _ in range(20):
        bits = rng.integers(0, 2, size=17, dtype=np.uint8)
        shares = mpc.share_input(bits, 5, rng)
        assert np.array_equal(np.bitwise_xor.reduce(shares, axis=0), bits)


# -- engine correctness -----------------------------------------------------------


def test_and_of_shared_ones():
    out, _ = run_engine(tiny_and_circuit(), {0: [1], 1: [1]})
    assert out.tolist() == [[1]]
    out, _ = run_engine(tiny_and_circuit(), {0: [1], 1: [0]})
    assert out.tolist() == [[0]]


def test_random_circuits_match_plaintext():
    rng = random.Random(21)
    for trial in range(20):
        circ = random_circuit(rng)
        inputs = {
            p: [rng.randint(0, 1) for _ in ws] for p, ws in circ.input_map.items()
        }
        want = circ.evaluate(inputs).tolist()
        out, engine = run_engine(circ, inputs, seed=trial)
        assert out[:, 0].tolist() == want
        engine.transcript.verify()


def test_batched_engine_matches_plaintext():
    rng = random.Random(8)
    circ = random_circuit(rng, n_parties=2, gates=40)
    batch = 7
    inputs = {
        p: np.random.default_rng(p).integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
        for p, ws in circ.input_map.items()
    }
    want = circ.evaluate(inputs)
    out, engine = run_engine(circ, inputs, batch=batch)
    assert np.array_equal(out, want)
    assert engine.transcript.triples_consumed[0] == engine.schedule.and_count


def test_accounting_identities():
    rng = random.Random(4)
    circ = random_circuit(rng, n_parties=3, gates=80)
    inputs = {p: [0] * len(ws) for p, ws in circ.input_map.items()}
    out, engine = run_engine(circ, inputs)
    t = engine.transcript
    depth = circ.gate_counts().depth_and
    assert t.and_layers == depth
    assert t.rounds == depth + 0 + 1
    assert t.and_count == circ.gate_counts().and_count
    for pid in engine.computing_ids:
        assert t.triples_consumed[pid] == t.and_count
        # N-1 recipients per AND layer plus the output opening, plus the
        # input distribution messages counted against the owners
        assert t.messages_sent[pid] >= (t.rounds) * (t.n_parties - 1)


def test_tampered_transcript_raises_accounting_mismatch():
    _, engine = run_engine(tiny_and_circuit(), {0: [1], 1: [1]})
    t = engine.transcript
    t.verify()
    t.rounds += 1
    with pytest.raises(mpc.AccountingMismatch):
        t.verify()
    t.rounds -= 1
    t.triples_consumed[0] -= 1
    with pytest.raises(mpc.AccountingMismatch):
        t.verify()


def test_open_wires_consistent():
    b = CircuitBuilder()
    x = b.input_vector(0, 4)
    y = b.input_vector(1, 4)
    circ = b.finish([b.xor_v(x[i], y[i]) for i in range(4)])
    ids = [0, 1]
    engine = mpc.Engine(circ, ids, dealer_seed=0)
    rngs = {p: np.random.default_rng(p) for p in ids}
    engine.share_inputs({0: [1, 0, 1, 0], 1: [1, 1, 0, 0]}, lambda p: rngs[p])
    opened = engine.open_wires(circ.input_map[0])
    assert opened[:, 0].tolist() == [1, 0, 1, 0]
    again = engine.open_wires(circ.input_map[0])
    assert np.array_equal(opened, again)


def test_reactive_open_aborts_and_preserves_shares():
    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    y = b.input_vector(1, 2)
    flag = b.and_v(x[0], y[0])
    b.barrier()
    out = b.xor_v(b.and_v(x[1], y[1]), flag)
    circ = b.finish([out])

    seen = {}

    def validator(bits):
        seen["flag"] = int(bits[0, 0])
        if bits.any():
            raise mpc.AbortUnsorted([1])

    def run(x0):
        engine = mpc.Engine(
            circ,
            [0, 1],
            reactive=[mpc.ReactiveOpen(0, [flag], validator)],
            dealer_seed=3,
        )
        rngs = {p: np.random.default_rng(p) for p in (0, 1)}
        return engine, engine.run({0: [x0, 1], 1: [1, 1]}, lambda p: rngs[p])

    with pytest.raises(mpc.AbortUnsorted) as exc:
        run(1)
    assert exc.value.parties == [1]
    engine, out_bits = run(0)
    assert seen["flag"] == 0
    assert out_bits[0, 0] == 1
    t = engine.transcript
    assert t.rounds == t.and_layers + 1 + 1
    assert t.reactive_opens == 1


def test_full_compiled_circuit_mpc_equals_plaintext():
    cfg = CP.CircuitConfig(n_parties=3, inputs_per_party=4, sigma=16)
    comp = CP.compile_circuit(cfg)
    rng = random.Random(17)
    inputs = {}
    for p in range(3):
        vals = sorted(rng.sample(range(1, 60000), 4))
        bits = []
        for v in vals:
            bits += int_to_bits(v, 16)
            bits += int_to_bits(rng.randrange(1 << 16), 16)
            bits += int_to_bits(rng.randrange(1 << 16), 16)
        inputs[p] = bits
    for p in range(3):
        inputs[p] = inputs[p] + [0] * cfg.control_bits_per_layer

    want, flags = comp.circuit.evaluate(inputs, extra_wires=comp.flag_wires)
    assert not flags.any()
    ids = [0, 1, 2]
    engine = mpc.Engine(
        comp.circuit, ids,
        reactive=[mpc.ReactiveOpen(0, list(comp.flag_wires), lambda bits: None)],
        dealer_seed=11,
    )
    rngs = {p: np.random.default_rng(40 + p) for p in ids}
    out = engine.run(inputs, lambda p: rngs[p])
    assert out[:, 0].tolist() == want.tolist()
    engine.transcript.verify()


def test_persist_and_load_round_trip():
    circ = tiny_and_circuit()
    ids = [0, 1]
    engine = mpc.Engine(circ, ids, dealer_seed=0, epoch=5)
    rngs = {p: np.random.default_rng(p) for p in ids}
    engine.share_inputs({0: [1], 1: [1]}, lambda p: rngs[p])
    wires = circ.input_map[0] + circ.input_map[1]
    blob = engine.persist_shares(0, wires)
    fresh = mpc.Engine(circ, ids, dealer_seed=1, epoch=5)
    bits = mpc.decode_share_blob(blob, 0, 5, 1, (len(wires), 1))
    fresh.restore_shares(0, wires, bits)
    assert np.array_equal(
        fresh.parties[0].shares[wires], engine.parties[0].shares[wires]
    )
    with pytest.raises(mpc.EpochMismatch):
        mpc.decode_share_blob(blob, 1, 5, 1, (len(wires), 1))


def test_transport_failure_on_missing_message():
    tr = mpc.InProcessTransport()
    with pytest.raises(mpc.TransportFailure):
        tr.recv(0, 1)


class RecordingTransport(mpc.InProcessTransport):
    def __init__(self):
        super().__init__()
        self.log = []

    def send(self, sender, recipient, data):
        self.log.append((sender, recipient, data))
        super().send(sender, recipient, data)


def test_masked_messages_look_uniform():
    """Received AND-layer payloads are one-time-pad masked: bit frequency
    stays near 1/2 no matter what the counterpart holds."""
    circ = tiny_and_circuit()

    def observe(x1, runs=400):
        ones = total = 0
        for r in range(runs):
            tr = RecordingTransport()
            engine = mpc.Engine(circ, [0, 1], dealer_seed=r, transport=tr)
            rngs = {p: np.random.default_rng(1000 * r + p) for p in (0, 1)}
            engine.run({0: [1], 1: [x1]}, lambda p: rngs[p])
            for sender, recipient, data in tr.log:
                if recipient == 0 and sender == 1:
                    bits = mpc.decode_frame(data)[4]
                    ones += int(bits.sum())
                    total += bits.size
        return ones / total

    f0, f1 = observe(0), observe(1)
    assert abs(f0 - 0.5) < 0.05
    assert abs(f1 - 0.5) < 0.05
    assert abs(f0 - f1) < 0.07
