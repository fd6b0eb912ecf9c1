"""Protocol layer: framing, triples, sharing, layered evaluation, persistence."""

import hashlib
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from reference import int_to_bits

from depletion import mpc
from depletion import compiler as CP
from depletion import session as S
from depletion import circuit as C
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


def frame_bits(data):
    """A frame's header fields and its payload unpacked to bits."""
    *head, nbits, payload = mpc.decode_frame(data)
    return head, np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)


# -- framing -------------------------------------------------------------------


def test_frame_round_trip():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    frame = mpc.encode_frame(3, 17, 2, 9, bits.size, np.packbits(bits))
    *head, nbits, payload = mpc.decode_frame(frame)
    assert head == [3, 17, 2, 9] and nbits == bits.size
    assert payload == np.packbits(bits).tobytes()
    assert mpc.encode_frame(*head, nbits, payload) == frame


def test_frame_corruption_detected():
    frame = bytearray(mpc.encode_frame(1, 1, 0, 0, 16, b"\xff\xff"))
    frame[7] ^= 0x40
    with pytest.raises(mpc.TransportFailure):
        mpc.decode_frame(bytes(frame))
    with pytest.raises(mpc.TransportFailure):
        mpc.decode_frame(b"\x01\x02")


def test_read_frame_checks_every_header_field_and_the_bit_count():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    frame = mpc.encode_frame(3, 17, 2, 9, bits.size, np.packbits(bits))
    assert mpc.read_frame(frame, 3, 17, 2, 9, 6) == np.packbits(bits).tobytes()
    for header, nbits in [
        ((4, 17, 2, 9), 6),
        ((3, 18, 2, 9), 6),
        ((3, 17, 1, 9), 6),
        ((3, 17, 2, 8), 6),
        ((3, 17, 2, 9), 7),
        ((3, 17, 2, 9), 5),
    ]:
        with pytest.raises(mpc.TransportFailure):
            mpc.read_frame(frame, *header, nbits)


# -- batch layout --------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 8, 9, 64, 256])
def test_pack_batch_round_trip_with_zero_padding(batch):
    bits = np.random.default_rng(batch).integers(0, 2, size=(3, 5, batch), dtype=np.uint8)
    packed = mpc.pack_batch(bits)
    assert packed.dtype == np.uint8 and packed.shape == (3, 5, -(-batch // 8))
    assert np.array_equal(mpc.unpack_batch(packed, batch), bits)
    # np.packbits order: session j is bit 7 - j % 8 of byte j // 8, and
    # the bits past the batch in a ragged last byte are zero
    assert np.array_equal(packed, np.packbits(bits, axis=-1))
    assert not np.unpackbits(packed, axis=-1)[..., batch:].any()
    assert np.array_equal(mpc.unpack_batch(mpc.pack_batch(bits[0, 0]), batch), bits[0, 0])


# -- correlated randomness -------------------------------------------------------


def gen(seed):
    return np.random.default_rng(seed).bit_generator


def test_triples_reconstruct():
    a, b, c = (np.bitwise_xor.reduce(kind, axis=0) for kind in mpc.deal_triples(gen(5), 4, 10000, 1))
    assert np.array_equal(c, a & b)


def test_triples_seed_determinism():
    one, two, other = (mpc.deal_triples(gen(seed), 3, 64, 1) for seed in (1, 1, 2))
    assert all(np.array_equal(p, q) for p, q in zip(one, two))
    assert not np.array_equal(one[0], other[0])

    def served(seed):  # a pool's triples, in two takes
        pool = mpc.TriplePool(3, 64, seed, batch=9)
        return [np.concatenate(kind, axis=1) for kind in zip(pool.take(30), pool.take(34))]

    first, again, other = served(1), served(1), served(2)
    assert all(np.array_equal(p, q) for p, q in zip(first, again))
    assert not np.array_equal(first[0], other[0])


def test_triples_batched_with_ragged_bit_count():
    n_parties, count, batch = 3, 7, 3  # 189 share bits per kind, not a multiple of 8
    dealt = mpc.deal_triples(gen(11), n_parties, count, batch)
    assert all(kind.shape == (n_parties, count, 1) for kind in dealt)
    a, b, c = (mpc.unpack_batch(np.bitwise_xor.reduce(kind, axis=0), batch) for kind in dealt)
    assert np.array_equal(c, a & b)
    assert not any((kind & 0b00011111).any() for kind in dealt)  # padding bits stay zero
    again = mpc.deal_triples(gen(11), n_parties, count, batch)
    other = mpc.deal_triples(gen(12), n_parties, count, batch)
    assert all(np.array_equal(p, q) for p, q in zip(dealt, again))
    assert any(not np.array_equal(p, q) for p, q in zip(dealt, other))


def test_triple_pool_exhaustion():
    for batch, width in [(1, 1), (9, 2), (16, 2)]:
        pool = mpc.TriplePool(2, 4, seed=0, batch=batch)
        ta, tb, tc = pool.take(3)
        assert ta.shape == tb.shape == tc.shape == (2, 3, width)
        with pytest.raises(mpc.TriplePoolExhausted):
            pool.take(2)


@pytest.mark.parametrize("batch, count", [
    pytest.param(batch, 5, id=str(batch)) for batch in (1, 3, 9, 16)
] + [pytest.param(batch, 0, id=f"{batch}-no-ands") for batch in (1, 9, 16)])
def test_packed_triples_are_the_bit_stream_of_the_dealer(batch, count):
    """The three kinds are the generator's next raw 64-bit words, read
    little-endian as (3, parties, count, ceil(batch / 8)) packed bytes
    with the padding bits of a ragged last byte cleared."""
    n_parties, width = 3, -(-batch // 8)
    dealt = mpc.deal_triples(gen(4), n_parties, count, batch)
    size = 3 * n_parties * count * width
    words = gen(4).random_raw(-(-size // 8)).astype("<u8").view(np.uint8)[:size]
    want = mpc.pack_batch(mpc.unpack_batch(words.reshape(3, n_parties, count, width), batch))
    for kind, got in zip(want[:2], dealt[:2]):
        assert got.shape == (n_parties, count, width)
        assert np.array_equal(got, kind)
    assert np.array_equal(dealt[2][:-1], want[2][:-1])  # only the last party's c is fixed up


@pytest.mark.parametrize("batch", [1, 3, 9, 16, 256])
def test_a_dealt_range_is_that_slice_of_the_whole_pool(batch):
    """A pool whose first chunk holds all its triples serves each take as
    the next slice of the whole pool dealt at once."""
    n_parties, count = 3, 37
    assert mpc._chunk_triples(n_parties, batch) >= count
    whole = mpc.deal_triples(gen(6), n_parties, count, batch)
    pool = mpc.TriplePool(n_parties, count, 6, batch)
    at = 0
    for k in (5, 0, 1, 24, 7):
        got = pool.take(k)
        assert all(np.array_equal(g, w[:, at:at + k]) for g, w in zip(got, whole))
        at += k
    with pytest.raises(mpc.TriplePoolExhausted, match="need 1 triples, 0 left"):
        pool.take(1)


@pytest.mark.parametrize("batch", [1, 9, 16])
def test_the_chunked_pool_serves_the_stream_one_chunk_at_a_time(batch, monkeypatch):
    n_parties, count, seed = 3, 50, 2
    width = -(-batch // 8)
    monkeypatch.setattr(mpc, "_CHUNK_BYTES", 7 * n_parties * width)  # 7 triples
    dealt = []  # per chunk, its size and the triples left to serve when dealt
    deal = mpc.deal_triples

    def counting(gen, n, k, b):
        dealt.append((k, count - pool.cursor))
        return deal(gen, n, k, b)

    monkeypatch.setattr(mpc, "deal_triples", counting)
    pool = mpc.TriplePool(n_parties, count, seed, batch)
    assert dealt == [] and pool.a.shape == (n_parties, 0, width)  # dealt by the first take
    served = []
    for k in [3, 4, 0, 5, 12, 1, 7, 18]:  # 12 and 18 are wider than a chunk
        served.append(pool.take(k))
        # the pool holds one chunk: 7 triples, or a wider take's own
        assert pool.a.shape[1] <= max(7, k)
    assert pool.cursor == count
    # a take the chunk cannot serve drops the chunk with its unserved rest
    # (2 triples at the take of 12, 6 at the take of 18) and deals the next
    # max(k, 7) triples, never more than are left to serve
    assert [k for k, _ in dealt] == [7, 7, 12, 7, 7, 18]
    assert all(k <= left for k, left in dealt)
    # so the served triples are those slices of the seeded chunks
    g = np.random.default_rng(seed).bit_generator
    chunks = [deal(g, n_parties, k, batch) for k, _ in dealt]
    starts = [(0, 0), (0, 3), (0, 7), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]
    for (i, at), got in zip(starts, served):
        k = got[0].shape[1]
        assert all(np.array_equal(g_, w[:, at:at + k]) for g_, w in zip(got, chunks[i]))
    with pytest.raises(mpc.TriplePoolExhausted, match="need 1 triples, 0 left"):
        pool.take(1)
    pool = mpc.TriplePool(n_parties, count, seed, batch)
    with pytest.raises(mpc.TriplePoolExhausted, match="need 51 triples, 50 left"):
        pool.take(51)


def test_share_input_reconstruction():
    g = gen(0)
    one = mpc.pack_batch(np.ones((1, 1), dtype=np.uint8))
    shares = mpc.share_input(one, 2, g, 1)
    assert mpc.unpack_batch(shares[0] ^ shares[1], 1).tolist() == [[1]]
    zeros = np.zeros((8, 2), dtype=np.uint8)
    shares = mpc.share_input(zeros, 3, g, 16)
    assert not np.bitwise_xor.reduce(shares, axis=0).any()
    rng = np.random.default_rng(1)
    for batch in (1, 3, 9, 256):
        bits = rng.integers(0, 2, size=(17, batch), dtype=np.uint8)
        shares = mpc.share_input(mpc.pack_batch(bits), 5, g, batch)
        assert shares.shape == (5, 17, -(-batch // 8))
        assert np.array_equal(mpc.unpack_batch(np.bitwise_xor.reduce(shares, axis=0), batch), bits)


@pytest.mark.parametrize("batch", [1, 3, 9, 256])
def test_random_share_bytes_are_uniform_in_every_session_and_zero_in_padding(batch):
    """The padding mask of `random_packed` keeps exactly the session bits:
    a mask on the wrong end would zero session bits of the dealt a and b,
    and so unmask AND inputs, or of input shares. Every session bit of
    every share is 1 with frequency near 1/2 over many rows; every
    padding bit is 0."""
    rows, width = 4096, -(-batch // 8)
    bound = 6 * 0.5 / rows ** 0.5  # six standard deviations of a fair bit's mean

    def check(packed):
        """`packed` is (..., rows, width): session frequencies, padding."""
        bits = np.unpackbits(packed, axis=-1)
        freq = bits[..., :batch].mean(axis=-2)
        assert np.abs(freq - 0.5).max() < bound, freq
        assert not bits[..., batch:].any()

    block = mpc.random_packed(gen(batch), (2, rows), batch)
    assert block.shape == (2, rows, width)
    check(block)
    a, b, c = mpc.deal_triples(gen(batch + 1), 3, rows, batch)
    check(a)
    check(b)
    check(c)
    assert np.array_equal(
        np.bitwise_xor.reduce(a, axis=0) & np.bitwise_xor.reduce(b, axis=0),
        np.bitwise_xor.reduce(c, axis=0),
    )
    for value in (0, 1):  # whatever the input, each share is uniform
        packed = mpc.pack_batch(np.full((rows, batch), value, dtype=np.uint8))
        shares = mpc.share_input(packed, 3, gen(batch + 2), batch)
        check(shares)
        assert np.array_equal(np.bitwise_xor.reduce(shares, axis=0), packed)


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


@pytest.mark.parametrize("batch", [1, 3, 256])
def test_transcript_counts_what_each_sender_sent(batch):
    sent = {}

    class Counting(mpc.InProcessTransport):
        def send(self, sender, recipient, data):
            nbits = mpc.decode_frame(data)[4]
            messages, bits, nbytes = sent.get(sender, (0, 0, 0))
            sent[sender] = (messages + 1, bits + nbits, nbytes + len(data))
            super().send(sender, recipient, data)

    circ = random_circuit(random.Random(batch), n_parties=3, gates=80)
    rng = np.random.default_rng(batch)
    inputs = {
        p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
        for p, ws in circ.input_map.items()
    }
    _, engine = run_engine(circ, inputs, batch=batch, transport=Counting())
    t = engine.transcript
    assert sorted(sent) == engine.computing_ids
    assert {pid: (t.messages_sent[pid], t.payload_bits_sent[pid], t.bytes_sent[pid])
            for pid in sent} == sent
    assert t.total_bytes() == sum(nbytes for *_, nbytes in sent.values())


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
    opened = engine.open_wires(circ.input_map[0], "final opening")
    assert opened[:, 0].tolist() == [1, 0, 1, 0]
    again = engine.open_wires(circ.input_map[0], "final opening")
    assert np.array_equal(opened, again)


def test_opening_aborts_when_recipients_reconstruct_differently():
    """A sender that frames another valid payload for one peer makes
    that peer's view differ; the opening names it and aborts."""

    class Equivocating(mpc.InProcessTransport):
        def send(self, sender, recipient, data):
            if (sender, recipient) == (0, 2):
                head, bits = frame_bits(data)
                data = mpc.encode_frame(*head, bits.size, np.packbits(bits ^ 1))
            super().send(sender, recipient, data)

    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    circ = b.finish(x)
    engine = mpc.Engine(circ, [0, 1, 2], dealer_seed=0)
    rng = np.random.default_rng(0)
    engine.share_inputs({0: [1, 0]}, lambda p: rng)
    engine.transport = Equivocating()
    with pytest.raises(mpc.TransportFailure, match="recipient 2, final opening round 1: "):
        engine.open_wires(x, "final opening")


def test_reactive_open_aborts_and_preserves_shares():
    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    y = b.input_vector(1, 2)
    flag = b.and_v(x[0], y[0])
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
            reactive=[mpc.ReactiveOpen([flag], validator)],
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
        inputs[p] = bits
    for p in range(3):
        inputs[p] = inputs[p] + [0] * cfg.control_bits_per_layer

    want, flags = comp.circuit.evaluate(inputs, extra_wires=comp.flag_wires)
    assert not flags.any()
    ids = [0, 1, 2]
    engine = mpc.Engine(
        comp.circuit, ids,
        reactive=[mpc.ReactiveOpen(list(comp.flag_wires), lambda bits: None)],
        dealer_seed=11,
    )
    rngs = {p: np.random.default_rng(40 + p) for p in ids}
    out = engine.run(inputs, lambda p: rngs[p])
    assert out[:, 0].tolist() == want.tolist()
    engine.transcript.verify()


def _restore_circuit():
    """Owner 0 holds six input wires, owners 1 and 2 three each."""
    b = CircuitBuilder()
    x, y, z = (np.array(b.input_vector(p, n)) for p, n in enumerate((6, 3, 3)))
    t = b.and_v(x[:3], b.xor_v(x[3:], y))
    return b.finish(np.concatenate([t, b.xor_v(b.and_v(t, z), y)]))


def test_restored_wires_are_left_out_of_input_sharing():
    circ, batch = _restore_circuit(), 3
    ids = [0, 1, 2]
    rng = np.random.default_rng(4)
    inputs = {p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
              for p, ws in circ.input_map.items()}
    earlier = mpc.Engine(circ, ids, dealer_seed=1, batch=batch)
    rngs = {p: np.random.default_rng(10 + p) for p in ids}
    earlier.share_inputs(inputs, lambda p: rngs[p])

    restored, todo = circ.input_map[0][1::2], circ.input_map[0][0::2]
    transport = RecordingTransport()
    engine = mpc.Engine(circ, ids, dealer_seed=2, batch=batch, transport=transport)
    engine.restore_shares(restored, earlier.parties.shares[:, restored])
    rngs = {p: np.random.default_rng(20 + p) for p in ids}
    assert np.array_equal(engine.run(inputs, lambda p: rngs[p]), circ.evaluate(inputs))

    round0 = [(s, r, mpc.decode_frame(f)) for s, r, f in transport.log if mpc.decode_frame(f)[1] == 0]
    from_owner = {r: frame for s, r, frame in round0 if s == 0}
    assert sorted(from_owner) == [1, 2]
    for recipient, (*_, nbits, payload) in from_owner.items():
        # exactly the recipient's shares of the unrestored bits
        assert nbits == len(todo) * batch
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)
        own = mpc.unpack_batch(engine.parties.shares[ids.index(recipient), todo], batch)
        assert np.array_equal(bits.reshape(len(todo), batch), own)
    for owner in (1, 2):
        assert all(frame[4] == 3 * batch for s, _, frame in round0 if s == owner)
    assert np.array_equal(engine.parties.shares[:, restored], earlier.parties.shares[:, restored])


@pytest.mark.parametrize("batch, ids, epoch", [
    (1, [0, 1], 5),
    (2, [2, 4], 2),  # computing parties 2 and 4: owners 0 and 1 send every share
    (3, [0, 1, 2], 1),
    (9, [0, 1, 2], 7),
    (256, [0, 1, 2], 3),
], ids=["batch1-two-parties", "batch2-party4", "batch3", "batch9", "batch256"])
def test_share_blobs_restore_every_party_and_are_refused_elsewhere(batch, ids, epoch):
    """`persist_shares`, `decode_share_blob` and one `restore_shares` give
    a fresh engine every computing party's packed rows back, and its run
    the plaintext outputs. A blob read as another party's, epoch's,
    owner's or row count's is refused, and a damaged one is corrupt."""
    circ = _restore_circuit()
    rng = np.random.default_rng(batch)
    inputs = {p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
              for p, ws in circ.input_map.items()}
    engine = mpc.Engine(circ, ids, dealer_seed=1, batch=batch, epoch=epoch)
    rngs = {p: np.random.default_rng(10 + p) for p in circ.input_map}
    engine.share_inputs(inputs, lambda p: rngs[p])
    wires = [w for p in sorted(circ.input_map) for w in circ.input_map[p]]
    rows, width = len(wires), -(-batch // 8)
    blobs = {pid: engine.persist_shares(pid, wires, range_id=3) for pid in ids}
    packed = np.stack([mpc.decode_share_blob(blobs[pid], pid, epoch, 3, rows, batch) for pid in ids])
    assert packed.shape == (len(ids), rows, width)

    fresh = mpc.Engine(circ, ids, dealer_seed=2, batch=batch, epoch=epoch + 1)
    fresh.restore_shares(wires, packed)
    assert np.array_equal(fresh.parties.shares[:, wires], engine.parties.shares[:, wires])
    rngs = {p: np.random.default_rng(20 + p) for p in circ.input_map}
    assert np.array_equal(fresh.run(inputs, lambda p: rngs[p]), circ.evaluate(inputs))

    pid, blob = ids[-1], blobs[ids[-1]]
    for party, at, owner, count in [
        (ids[0], epoch, 3, rows),      # another computing party
        (pid, epoch + 1, 3, rows),     # another epoch
        (pid, epoch, 2, rows),         # another input owner
        (pid, epoch, 3, rows - 1),     # another row count
    ]:
        with pytest.raises(mpc.EpochMismatch):
            mpc.decode_share_blob(blob, party, at, owner, count, batch)
    with pytest.raises(mpc.CorruptBlob):
        mpc.decode_share_blob(blob[:-1] + bytes([blob[-1] ^ 1]), pid, epoch, 3, rows, batch)
    short = blob[:-5]  # one payload byte gone, checksum recomputed
    with pytest.raises(mpc.CorruptBlob):
        mpc.decode_share_blob(short + struct.pack("<I", zlib.crc32(short)), pid, epoch, 3, rows, batch)


def test_engine_bytes_bounds_the_peak_of_building_an_engine(monkeypatch):
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=2, sigma=8)).circuit
    and_count = circ.schedule().and_count  # memoized, so not measured below
    np.random.default_rng()  # numpy imports its random module on first use
    # byte-aligned, ragged and one bit; the pool in one chunk and in four
    for batch in (64, 9, 1):
        width = -(-batch // 8)
        for chunks in (1, 4):
            monkeypatch.setattr(mpc, "_CHUNK_BYTES", 3 * width * -(-and_count // chunks))
            chunk = mpc._chunk_triples(3, batch)
            assert -(-and_count // chunk) == chunks
            tracemalloc.start()
            try:
                engine = mpc.Engine(circ, [0, 1, 2], batch=batch)
                engine.parties.pool.take(1)  # deals the first chunk
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            pool = engine.parties.pool
            kept = engine.parties.shares.nbytes + pool.a.nbytes + pool.b.nbytes + pool.c.nbytes
            # the share tensor and the pool's first chunk
            assert kept == (circ.n_wires + 3 * chunk) * 3 * width
            assert kept < peak <= mpc.engine_bytes(3, circ.n_wires, and_count, batch)


def test_an_engine_holds_one_chunk_of_a_pool_of_many():
    """Building and running an engine whose pool spans about twelve
    chunks peaks below its share tensor plus the whole pool, which is
    what it held while the dealer dealt the pool up front."""
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=12, sigma=32)).circuit
    circ.schedule()  # memoized, so not measured below
    batch, ids = 256, [0, 1, 2]
    assert circ.and_count > 10 * mpc._chunk_triples(len(ids), batch)
    rng = np.random.default_rng(0)
    inputs = {
        p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
        for p, ws in circ.input_map.items()
    }
    rngs = {p: np.random.default_rng(100 + p) for p in ids}
    tracemalloc.start()
    try:
        engine = mpc.Engine(circ, ids, batch=batch)
        out = engine.run(inputs, lambda p: rngs[p])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, circ.evaluate(inputs))
    shares = engine.parties.shares.nbytes
    whole_pool = 3 * len(ids) * circ.and_count * batch // 8
    assert shares < peak < shares + whole_pool


def test_engine_refuses_an_oversized_round_before_building_the_schedule(monkeypatch):
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=2, sigma=8)).circuit

    def no_schedule(self):
        raise AssertionError("the schedule was built before the size check")

    monkeypatch.setattr(type(circ), "schedule", no_schedule)
    need = mpc.engine_bytes(3, circ.n_wires, circ.and_count, 16)
    monkeypatch.setattr(mpc, "MAX_ENGINE_BYTES", need - 1)
    with pytest.raises(mpc.EngineTooLarge, match=f"{need} bytes"):
        mpc.Engine(circ, [0, 1, 2], batch=16)


@pytest.mark.parametrize("batch", [0, -3])
def test_engine_refuses_an_empty_or_negative_batch(batch):
    circ = CP.build_max_circuit(2, 4)
    with pytest.raises(mpc.MpcError, match="at least 1"):
        mpc.Engine(circ, [0, 1], batch=batch)


def test_engine_refuses_an_allocation_over_the_limit_before_making_it(monkeypatch):
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=2, sigma=8)).circuit
    and_count = circ.schedule().and_count  # memoized, so not measured below
    per_batch = mpc.engine_bytes(3, circ.n_wires, and_count, 1)
    batch = 8
    while mpc.engine_bytes(3, circ.n_wires, and_count, batch) <= 64 << 20:
        batch *= 2
    need = mpc.engine_bytes(3, circ.n_wires, and_count, batch)
    monkeypatch.setattr(mpc, "MAX_ENGINE_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(mpc.EngineTooLarge) as exc:
            mpc.Engine(circ, [0, 1, 2], batch=batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"{need} bytes" in str(exc.value)
    assert f"limit of {need - 1}" in str(exc.value)
    assert peak < 1 << 20  # far below the 64 MB the engine would have made
    # the limit is inclusive; batches 1 to 8 need the same bytes
    monkeypatch.setattr(mpc, "MAX_ENGINE_BYTES", per_batch)
    mpc.Engine(circ, [0, 1, 2])
    with pytest.raises(mpc.EngineTooLarge):
        mpc.Engine(circ, [0, 1, 2], batch=9)


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


# -- input check ----------------------------------------------------------------


def _two_owner_circuit():
    b = CircuitBuilder()
    x = b.input_vector(0, 2)
    y = b.input_vector(1, 2)
    return b.finish([b.xor_v(x[0], y[1]), b.and_v(x[1], y[0])])


def _bits(rows, batch):
    return np.random.default_rng(rows * 10 + batch).integers(0, 2, size=(rows, batch), dtype=np.uint8)


@pytest.mark.parametrize("inputs, error", [
    ({0: _bits(2, 2)}, C.MissingInput),
    ({0: _bits(2, 2), 1: _bits(2, 2), 5: _bits(2, 2)}, C.MissingInput),
    ({0: _bits(3, 2), 1: _bits(2, 2)}, C.WidthMismatch),
    ({0: _bits(2, 2), 1: _bits(2, 3)}, C.WidthMismatch),
    ({0: 2 * _bits(2, 2), 1: _bits(2, 2)}, C.CircuitError),
    ({0: np.full((2, 2), 0.5), 1: _bits(2, 2)}, C.CircuitError),
    ({0: np.full((2, 2), -1), 1: _bits(2, 2)}, C.CircuitError),
], ids=["missing-party", "unknown-party", "wire-count", "ragged-batch", "two", "half", "negative"])
def test_evaluate_and_the_engine_refuse_the_same_inputs(inputs, error):
    """Both evaluators read their inputs through `input_bits`, so each bad
    round is the same error from either, and the engine sends nothing."""
    circ = _two_owner_circuit()
    with pytest.raises(C.CircuitError) as plain:
        circ.evaluate(inputs)
    transport = RecordingTransport()
    with pytest.raises(C.CircuitError) as protocol:
        run_engine(circ, inputs, batch=2, transport=transport)
    assert type(plain.value) is type(protocol.value) is error
    assert transport.log == []


def test_engine_refuses_a_batch_other_than_its_own():
    """A consistent batch the plaintext evaluator accepts is still refused
    by an engine built for another width, before any frame is sent."""
    circ = _two_owner_circuit()
    inputs = {0: _bits(2, 3), 1: _bits(2, 3)}
    assert circ.evaluate(inputs).shape == (2, 3)
    for batch, given in ((2, inputs), (3, {0: [1, 0], 1: [0, 1]})):
        transport = RecordingTransport()
        with pytest.raises(C.WidthMismatch, match=f"for a batch of {batch}"):
            run_engine(circ, given, batch=batch, transport=transport)
        assert transport.log == []


def test_masked_messages_look_uniform():
    """Received AND-layer payloads are one-time-pad masked: bit frequency
    stays near 1/2 no matter what the counterpart holds."""
    circ = tiny_and_circuit()

    def observe(x1, batch, runs=400):
        ones = total = 0
        inputs = {0: np.ones((1, batch), dtype=np.uint8), 1: np.full((1, batch), x1, dtype=np.uint8)}
        for r in range(runs):
            tr = RecordingTransport()
            engine = mpc.Engine(circ, [0, 1], dealer_seed=r, batch=batch, transport=tr)
            rngs = {p: np.random.default_rng(1000 * r + p) for p in (0, 1)}
            engine.run(inputs, lambda p: rngs[p])
            for sender, recipient, data in tr.log:
                if recipient == 0 and sender == 1:
                    _, bits = frame_bits(data)
                    ones += int(bits.sum())
                    total += bits.size
        return ones / total

    for batch in (1, 3):  # one bit, and a ragged byte with padding
        f0, f1 = observe(0, batch), observe(1, batch)
        assert abs(f0 - 0.5) < 0.05
        assert abs(f1 - 0.5) < 0.05
        assert abs(f0 - f1) < 0.07


# -- transcript identity -----------------------------------------------------------

# SHA-256 over every (sender, recipient, frame) sent in one fixed-seed
# round, negotiation included, pinned when the whole circuit became one
# schedule with the sortedness flags opened after its last AND layer. A
# change to the engine's layout or framing must leave every frame, and
# the order they are sent in, as it was. The at-least-two session was
# re-recorded when at-least-two became the windowed selection with m = 2,
# and all three when the session layer began drawing keys and dummies as
# byte rows for a whole round, again when the Shuffle came to permute
# the N*u selected keys before each was output twice, and again when the
# dealer's triples and the input shares became the generators' next raw
# words read as packed share bytes, and again when a record came to carry
# one key k instead of two (the reports they return did not change any
# time).
TRANSCRIPT_DIGESTS = {
    "direct-fixed-plus-m": "642628c973a0b0b849345ead3a0b952d855a57f41c51fec104bf8372c13899c1",
    "outsourced-at-least-m-batch-3": "09999b23b5080d42dfb635c30243509a57eb099905f5f6f6521feb25cd5e0134",
    "session-two-epochs": "9fc33edc7fafda9496ac76b38d8352c5fc4cbc948df898d25a1d5dd49274a8b4",
}


def _direct_fixed_plus_m(execution):
    cfg = S.SessionConfig(
        parties=(0, 1, 2, 3), sigma=16,
        variant=S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,)),
    )
    stockpiles = {0: {5, 7, 9}, 1: {5, 11}, 2: {7, 13}, 3: {5, 9, 21}}
    result = S.run_sessions(cfg, [stockpiles], seed=11, execution=execution)
    return [{p: rep.shared for p, rep in result.reports[0].items()}]


def _outsourced_at_least_m(execution):
    cfg = S.SessionConfig(
        parties=(0, 1, 2), sigma=16, mode="outsourced", n_servers=2,
        variant=S.VariantSpec("at-least-m", m=2),
    )
    batch = [
        {0: {5, 7}, 1: {5, 11}, 2: {7, 13}},
        {0: {3}, 1: {3, 4}, 2: {4, 8, 9}},
        {0: {1}, 1: {2}, 2: {6}},
    ]
    result = S.run_sessions(cfg, batch, seed=12, execution=execution)
    return [{p: rep.shared for p, rep in reports.items()} for reports in result.reports]


def _session_two_epochs(execution):
    session = S.Session(S.SessionConfig(parties=(0, 1, 2), sigma=16),
                        {0: {5, 7}, 1: {5, 11}, 2: {9}}, seed=13)
    first = session.run_epoch(execution)
    session.epoch_advance({1: {7}, 2: {11, 12}})
    second = session.run_epoch(execution)
    return [{p: rep.shared for p, rep in r.reports[0].items()} for r in (first, second)]


ROUNDS = {
    "direct-fixed-plus-m": _direct_fixed_plus_m,
    "outsourced-at-least-m-batch-3": _outsourced_at_least_m,
    "session-two-epochs": _session_two_epochs,
}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_transcript_is_identical_frame_for_frame(monkeypatch, name):
    def digest(execution):
        h = hashlib.sha256()
        send = mpc.InProcessTransport.send

        def recording(self, sender, recipient, data):
            h.update(struct.pack("<III", sender, recipient, len(data)))
            h.update(data)
            send(self, sender, recipient, data)

        with monkeypatch.context() as m:
            m.setattr(mpc.InProcessTransport, "send", recording)
            reports = ROUNDS[name](execution)
        return h.hexdigest(), reports

    got, reports = digest("mpc")
    assert got == TRANSCRIPT_DIGESTS[name]
    # "both" runs the plaintext circuit too and insists the outputs agree
    assert digest("both") == (got, reports)


# SHA-256 over every (sender, recipient, frame) of one seeded engine run
# on a random circuit, then the reactive and final openings and every
# computing party's share blob, per batch width: one uint8 per bit, a
# ragged width and whole bytes. Pinned with one uint8 per share bit, so
# that the packed batch layout left frames, openings and blobs as they
# were; re-recorded when the dealer's triples and the input shares became
# the generators' next raw words read as packed share bytes.
ENGINE_DIGESTS = {
    1: "75c8de142acea05a6a3aee89724a6b71399c4ea609ce9d0331926887a56ba801",
    3: "8c24150a1904af298c5cb5ef945b016ded6fa53f4dd250581f7113ac86feb56e",
    9: "9574e94efe6aced713c702292a5cb7f61723d3fdb29f8e0588b5e1928ba6ec26",
    16: "47ed571e88ed539301dfeb5cd828cce90f6e4f030a162207c93f065d86c033ca",
    256: "f2b93c3296543a011a2cd25701015ef57c80ef08358fa66eb93f31a15f6bd68f",
}


def _engine_digest(batch):
    h = hashlib.sha256()

    class Hashing(mpc.InProcessTransport):
        def send(self, sender, recipient, data):
            h.update(struct.pack("<III", sender, recipient, len(data)))
            h.update(data)
            super().send(sender, recipient, data)

    circ = random_circuit(random.Random(batch), n_parties=3, gates=120)
    ids = sorted(circ.input_map)
    rng = np.random.default_rng(batch)
    inputs = {
        p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
        for p, ws in circ.input_map.items()
    }
    engine = mpc.Engine(
        circ, ids, dealer_seed=batch, batch=batch, epoch=2, transport=Hashing(),
        reactive=[mpc.ReactiveOpen(circ.output_wires[:2], lambda bits: h.update(bits.tobytes()))],
    )
    rngs = {p: np.random.default_rng(50 + p) for p in ids}
    out = engine.run(inputs, lambda p: rngs[p])
    assert out.dtype == np.uint8 and np.array_equal(out, circ.evaluate(inputs))
    h.update(out.tobytes())
    wires = [w for p in ids for w in circ.input_map[p]]
    for pid in ids:
        h.update(engine.persist_shares(pid, wires, range_id=pid + 1))
    return h.hexdigest(), engine


@pytest.mark.parametrize("batch", sorted(ENGINE_DIGESTS))
def test_engine_frames_openings_and_blobs_are_pinned(batch, monkeypatch):
    """Pinned with the pool in one chunk. One-triple chunks deal other
    triples, and so other frames, but the same outputs."""
    assert _engine_digest(batch)[0] == ENGINE_DIGESTS[batch]
    monkeypatch.setattr(mpc, "_CHUNK_BYTES", 1)
    assert mpc._chunk_triples(3, batch) == 1
    _, engine = _engine_digest(batch)  # its outputs equal `circ.evaluate`'s
    engine.transcript.verify()
