"""Protocol layer: framing, triples, sharing, layered evaluation, persistence."""

import hashlib
import random
from collections import Counter
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


def message_bits(data, head):
    """The payload of a message sealed under the header fields `head`,
    checked as its recipient checks it and unpacked to bits."""
    payload = mpc.decode_frame(data, *head)
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=head[-1])


# -- framing -------------------------------------------------------------------


def test_frame_round_trip():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    head = (3, 17, 2, 9, bits.size)
    message = mpc.encode_frame(*head, np.packbits(bits))
    # the payload and the CRC32 of header and payload: no header travels
    assert message[:-4] == np.packbits(bits).tobytes()
    assert zlib.crc32(message, zlib.crc32(mpc.frame_header(*head))) == mpc._CRC_RESIDUE
    assert mpc.decode_frame(message, *head) == np.packbits(bits).tobytes()
    # behind its header it is a frame that `read_frame` reads
    assert mpc.read_frame(mpc.frame_header(*head) + message, *head) == message[:-4]


def test_frame_corruption_detected():
    message = mpc.encode_frame(1, 1, 0, 0, 16, b"\xff\xff")
    for at in range(len(message)):
        flipped = bytearray(message)
        flipped[at] ^= 0x40
        with pytest.raises(mpc.TransportFailure, match="checksum"):
            mpc.decode_frame(bytes(flipped), 1, 1, 0, 0, 16)
    for head in [(2, 1, 0, 0, 16), (1, 2, 0, 0, 16), (1, 1, 1, 0, 16), (1, 1, 0, 1, 16),
                 (1, 1, 0, 0, 15), (1, 1, 0, 0, 9)]:
        with pytest.raises(mpc.TransportFailure, match="checksum"):
            mpc.decode_frame(message, *head)
    for data in (b"\x01\x02", message[:-1], message + b"\x00"):
        with pytest.raises(mpc.TransportFailure, match="bytes, expected 6 for 16 bits"):
            mpc.decode_frame(data, 1, 1, 0, 0, 16)
    # another version: the same fields behind another version byte
    other = b"\x02" + mpc.frame_header(1, 1, 0, 0, 16)[1:]
    resealed = message[:-4] + struct.pack("<I", zlib.crc32(message[:-4], zlib.crc32(other)))
    with pytest.raises(mpc.TransportFailure, match="checksum"):
        mpc.decode_frame(resealed, 1, 1, 0, 0, 16)
    with pytest.raises(mpc.TransportFailure, match="checksum"):
        mpc.read_frame(other + resealed, 1, 1, 0, 0, 16)


def test_read_frame_checks_every_header_field_and_the_bit_count():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    frame = mpc.frame_header(3, 17, 2, 9, 6) + mpc.encode_frame(3, 17, 2, 9, bits.size, np.packbits(bits))
    assert mpc.read_frame(frame, 3, 17, 2, 9, 6) == np.packbits(bits).tobytes()
    corrupt = bytearray(frame)
    corrupt[7] ^= 0x40
    for data in (bytes(corrupt), b"\x01\x02"):
        with pytest.raises(mpc.TransportFailure):
            mpc.read_frame(data, 3, 17, 2, 9, 6)
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


def sharing_circuit(rng, n_parties=3, layers=5, ands=24):
    """Layers of ANDs whose inputs repeat: a few first inputs shared by
    many ANDs, a wire ANDed with itself, the constant-one wire as an
    operand, and wires of earlier layers read again in later ones."""
    b = CircuitBuilder()
    wires = [b.one]
    for p in range(n_parties):
        wires += b.input_vector(p, rng.randint(1, 4))
    for _ in range(layers):
        few = rng.sample(wires, k=min(3, len(wires)))
        a = [rng.choice(few) for _ in range(ands)]
        c = [rng.choice(wires) for _ in range(ands)]
        c[0], a[1] = a[0], b.one
        new = b.and_v(np.array(a), np.array(c)).tolist()
        wires += new + [b.xor_v(new[0], new[-1])]
    return b.finish(rng.sample(wires[1:], k=8))


def layer_runs(schedule, first, last):
    """Per layer of schedule.layers[first:last], its slices of a run's
    masks and products and its (2, ANDs) `idx`."""
    m = g = 0
    for layer in schedule.layers[first:last]:
        inputs, idx, _ = layer.and_gates
        k = idx.shape[1]
        yield slice(m, m + len(inputs)), slice(g, g + k), idx
        m, g = m + len(inputs), g + k


def deal_layers(seed, n_parties, schedule, first, last, batch):
    """`deal_triples` for layers first..last - 1 of `schedule`."""
    g0, g1 = (int(schedule.ands[:i].sum()) for i in (first, last))
    return mpc.deal_triples(gen(seed), n_parties, schedule.and_index[:, g0:g1],
                            schedule.opened[first:last], schedule.ands[first:last], batch)


def assert_products(schedule, first, last, r, c, batch):
    """Every dealt product reconstructs to the AND of its inputs' masks."""
    rx, cx = (mpc.unpack_batch(np.bitwise_xor.reduce(kind, axis=0), batch) for kind in (r, c))
    for masks, products, idx in layer_runs(schedule, first, last):
        a, b = rx[masks][idx]
        assert np.array_equal(cx[products], a & b)


def test_triples_reconstruct():
    sched = sharing_circuit(random.Random(5)).schedule()
    assert sched.and_inputs_opened < 2 * sched.and_count  # the inputs repeat
    r, c = deal_layers(5, 4, sched, 0, sched.and_layers, 1)
    assert r.shape == (4, sched.and_inputs_opened, 1) and c.shape == (4, sched.and_count, 1)
    assert_products(sched, 0, sched.and_layers, r, c, 1)
    # a run from the middle of the schedule indexes its own layers' masks
    r, c = deal_layers(5, 4, sched, 2, 4, 1)
    assert_products(sched, 2, 4, r, c, 1)


def test_triples_seed_determinism():
    sched = sharing_circuit(random.Random(1)).schedule()
    one, two, other = (deal_layers(seed, 3, sched, 0, 3, 1) for seed in (1, 1, 2))
    assert all(np.array_equal(p, q) for p, q in zip(one, two))
    assert not np.array_equal(one[0], other[0])

    def served(seed):  # a pool's masks and products, a layer at a time
        pool = mpc.TriplePool(3, sched, seed, batch=9)
        return [np.concatenate(kind, axis=1) for kind in zip(*(pool.take() for _ in sched.layers))]

    first, again, other = served(1), served(1), served(2)
    assert all(np.array_equal(p, q) for p, q in zip(first, again))
    assert not np.array_equal(first[0], other[0])


def test_triples_batched_with_ragged_bit_count():
    n_parties, batch = 3, 3  # 3 share bits per row, not a multiple of 8
    sched = sharing_circuit(random.Random(11)).schedule()
    dealt = deal_layers(11, n_parties, sched, 0, sched.and_layers, batch)
    assert [kind.shape for kind in dealt] == [(n_parties, sched.and_inputs_opened, 1),
                                              (n_parties, sched.and_count, 1)]
    assert_products(sched, 0, sched.and_layers, *dealt, batch)
    assert not any((kind & 0b00011111).any() for kind in dealt)  # padding bits stay zero
    again = deal_layers(11, n_parties, sched, 0, sched.and_layers, batch)
    other = deal_layers(12, n_parties, sched, 0, sched.and_layers, batch)
    assert all(np.array_equal(p, q) for p, q in zip(dealt, again))
    assert any(not np.array_equal(p, q) for p, q in zip(dealt, other))


def test_triple_pool_exhaustion():
    sched = sharing_circuit(random.Random(0), layers=3).schedule()
    for batch, width in [(1, 1), (9, 2), (16, 2)]:
        pool = mpc.TriplePool(2, sched, seed=0, batch=batch)
        for layer in sched.layers:
            r, c = pool.take()
            inputs, idx, _ = layer.and_gates
            assert r.shape == (2, len(inputs), width) and c.shape == (2, idx.shape[1], width)
        assert pool.cursor == sched.and_count
        with pytest.raises(mpc.TriplePoolExhausted, match=f"all {sched.and_layers} AND layers"):
            pool.take()


@pytest.mark.parametrize("batch, count", [
    pytest.param(batch, 3, id=str(batch)) for batch in (1, 3, 9, 16)
] + [pytest.param(batch, 0, id=f"{batch}-no-ands") for batch in (1, 9, 16)])
def test_packed_triples_are_the_bit_stream_of_the_dealer(batch, count):
    """The masks, then the products, are the generator's next raw 64-bit
    words, read little-endian as (parties, masks + products, ceil(batch /
    8)) packed bytes with the padding bits of a ragged last byte cleared;
    only the last party's products are fixed up. `count` layers are
    dealt."""
    n_parties, width = 3, -(-batch // 8)
    sched = sharing_circuit(random.Random(4)).schedule()
    r, c = deal_layers(4, n_parties, sched, 0, count, batch)
    m, k = r.shape[1], c.shape[1]
    assert (m, k) == (int(sched.opened[:count].sum()), int(sched.ands[:count].sum()))
    size = n_parties * (m + k) * width
    words = gen(4).random_raw(-(-size // 8)).astype("<u8").view(np.uint8)[:size]
    want = mpc.pack_batch(mpc.unpack_batch(words.reshape(n_parties, m + k, width), batch))
    assert np.array_equal(r, want[:, :m])
    assert np.array_equal(c[:-1], want[:-1, m:])


@pytest.mark.parametrize("batch", [1, 3, 9, 16, 256])
def test_a_dealt_range_is_that_slice_of_the_whole_pool(batch):
    """A pool whose first chunk holds all its layers serves each layer as
    the next slice of the whole schedule dealt at once."""
    n_parties = 3
    sched = sharing_circuit(random.Random(6)).schedule()
    assert mpc._chunk_rows(n_parties, batch) >= sched.and_inputs_opened + sched.and_count
    whole = deal_layers(6, n_parties, sched, 0, sched.and_layers, batch)
    pool = mpc.TriplePool(n_parties, sched, 6, batch)
    for masks, products, _ in layer_runs(sched, 0, sched.and_layers):
        r, c = pool.take()
        assert np.array_equal(r, whole[0][:, masks]) and np.array_equal(c, whole[1][:, products])
    with pytest.raises(mpc.TriplePoolExhausted, match="all 5 AND layers were served"):
        pool.take()


@pytest.mark.parametrize("batch", [1, 9, 16])
def test_the_chunked_pool_serves_the_stream_one_chunk_at_a_time(batch, monkeypatch):
    n_parties, seed = 3, 2
    sched = random_circuit(random.Random(3), gates=120).schedule()
    rows = (sched.opened + sched.ands).tolist()
    assert min(rows) <= 3 and max(rows) > 7  # layers that share a chunk, and wider ones
    monkeypatch.setattr(mpc, "_CHUNK_BYTES", 7 * mpc._dealt_row_bytes(n_parties, batch))  # 7 rows
    dealt = []  # per chunk, its layers
    deal = mpc.deal_triples

    def counting(gen, n, index, opened, ands, b):
        dealt.append((pool.layer, pool.layer + len(ands)))
        return deal(gen, n, index, opened, ands, b)

    monkeypatch.setattr(mpc, "deal_triples", counting)
    pool = mpc.TriplePool(n_parties, sched, seed, batch)
    assert dealt == [] and pool.r.shape == (n_parties, 0, -(-batch // 8))  # dealt by the first take
    served = [pool.take() for _ in sched.layers]
    assert pool.cursor == sched.and_count
    # whole layers, one after another: as many as fit in 7 rows, or one
    # wider layer alone, so the pool never holds more than that
    assert [first for first, _ in dealt] == [0] + [last for _, last in dealt[:-1]]
    assert dealt[-1][1] == sched.and_layers
    for first, last in dealt:
        assert sum(rows[first:last]) <= 7 or last == first + 1
        if last < sched.and_layers:
            assert sum(rows[first:last + 1]) > 7
    # so the served masks and products are those slices of the seeded chunks
    g = np.random.default_rng(seed).bit_generator
    for first, last in dealt:
        g0, g1 = (int(sched.ands[:i].sum()) for i in (first, last))
        r, c = deal(g, n_parties, sched.and_index[:, g0:g1], sched.opened[first:last],
                    sched.ands[first:last], batch)
        for (masks, products, _), got in zip(layer_runs(sched, first, last), served[first:last]):
            assert np.array_equal(got[0], r[:, masks]) and np.array_equal(got[1], c[:, products])
    with pytest.raises(mpc.TriplePoolExhausted):
        pool.take()


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
    a mask on the wrong end would zero session bits of the dealt masks,
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
    # one AND layer of `rows` ANDs over 2 * rows distinct inputs
    b = CircuitBuilder()
    x, y = b.input_vector(0, rows), b.input_vector(1, rows)
    sched = b.finish(b.and_v(x, y)).schedule()
    r, c = mpc.deal_triples(gen(batch + 1), 3, sched.and_index, sched.opened, sched.ands, batch)
    check(r)
    check(c)
    rx = np.bitwise_xor.reduce(r, axis=0)
    assert np.array_equal(rx[:rows] & rx[rows:], np.bitwise_xor.reduce(c, axis=0))
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


@pytest.mark.parametrize("batch", [1, 3, 9, 256])
def test_engine_matches_plaintext_when_ands_share_inputs(batch):
    """Layers whose ANDs read one wire many times, x & x, the constant-one
    wire, and wires that earlier layers read too: each layer opens each
    of its inputs once, and the outputs are the plaintext circuit's."""
    rng = random.Random(batch)
    for trial in range(6):
        circ = sharing_circuit(rng)
        sched = circ.schedule()
        ands = circ.kind == C.AND
        assert (circ.in_a[ands] == circ.in_b[ands]).any() and (circ.in_a[ands] == 0).any()
        reads = Counter(w for layer in sched.layers for w in layer.and_gates[0].tolist())
        assert max(reads.values()) > 1
        assert sched.and_inputs_opened < 2 * sched.and_count
        gen_inputs = np.random.default_rng(trial)
        inputs = {p: gen_inputs.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
                  for p, ws in circ.input_map.items()}
        out, engine = run_engine(circ, inputs, seed=trial, batch=batch)
        assert np.array_equal(out, circ.evaluate(inputs))
        t = engine.transcript
        assert t.and_inputs_opened == sched.and_inputs_opened
        assert t.and_bits == sched.and_inputs_opened * batch * (len(engine.computing_ids) - 1)


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
def test_transcript_counts_what_each_sender_sent(batch, seals):
    sent = {}

    class Counting(mpc.InProcessTransport):
        def send(self, sender, recipient, data):
            nbits = seals[-1][4]
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
    t.triples_consumed[0] += 1
    t.verify()
    t.and_bits += t.batch  # one input opened once more than the layers name
    with pytest.raises(mpc.AccountingMismatch, match="AND-layer payload bits"):
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


def test_open_wires_opens_each_distinct_wire_once(seals):
    """A wire list with repeats is opened one row per distinct wire, and
    its bits come back in the given order, repeats included; a circuit
    whose outputs repeat wires does the same in its final opening."""
    b = CircuitBuilder()
    x = b.input_vector(0, 3)
    y = b.input_vector(1, 3)
    z = b.input_vector(2, 1)
    a = b.and_v(x, y)
    outputs = [a[0], a[1], a[0], b.xor_v(a[2], z[0]), a[1], a[0]]
    circ = b.finish(outputs)
    ids, batch = [0, 1, 2], 3
    rng = np.random.default_rng(6)
    inputs = {p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8) for p, ws in circ.input_map.items()}
    transport = RecordingTransport(seals)
    out, engine = run_engine(circ, inputs, batch=batch, transport=transport)
    assert np.array_equal(out, circ.evaluate(inputs))
    final = [(head, data) for _, _, head, data in transport.log if head[1] == engine.transcript.rounds]
    # each computing party sends its peers the 3 distinct output wires
    assert len(final) == len(ids) * (len(ids) - 1)
    assert {head[4] for head, _ in final} == {3 * batch}

    wires = [x[2], y[0], x[2], x[2], y[0], x[1]]
    want = np.concatenate([inputs[0], inputs[1]])[[2, 3, 2, 2, 3, 1]]
    before = dict(engine.transcript.payload_bits_sent)
    opened = engine.open_wires(wires, "final opening")
    assert np.array_equal(opened, want)
    for pid in ids:
        assert engine.transcript.payload_bits_sent[pid] - before[pid] == 3 * batch * (len(ids) - 1)


def test_opening_aborts_when_recipients_reconstruct_differently(seals):
    """A sender that seals another valid payload for one peer makes
    that peer's view differ; the opening names it and aborts."""

    class Equivocating(mpc.InProcessTransport):
        def send(self, sender, recipient, data):
            if (sender, recipient) == (0, 2):
                head = seals[-1]
                data = mpc.encode_frame(*head, np.packbits(message_bits(data, head) ^ 1))
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


def test_restored_wires_are_left_out_of_input_sharing(seals):
    circ, batch = _restore_circuit(), 3
    ids = [0, 1, 2]
    rng = np.random.default_rng(4)
    inputs = {p: rng.integers(0, 2, size=(len(ws), batch), dtype=np.uint8)
              for p, ws in circ.input_map.items()}
    earlier = mpc.Engine(circ, ids, dealer_seed=1, batch=batch)
    rngs = {p: np.random.default_rng(10 + p) for p in ids}
    earlier.share_inputs(inputs, lambda p: rngs[p])

    restored, todo = circ.input_map[0][1::2], circ.input_map[0][0::2]
    transport = RecordingTransport(seals)
    engine = mpc.Engine(circ, ids, dealer_seed=2, batch=batch, transport=transport)
    engine.restore_shares(restored, earlier.parties.shares[:, restored])
    rngs = {p: np.random.default_rng(20 + p) for p in ids}
    assert np.array_equal(engine.run(inputs, lambda p: rngs[p]), circ.evaluate(inputs))

    round0 = [(s, r, head, f) for s, r, head, f in transport.log if head[1] == 0]
    from_owner = {r: (head, f) for s, r, head, f in round0 if s == 0}
    assert sorted(from_owner) == [1, 2]
    for recipient, (head, message) in from_owner.items():
        # exactly the recipient's shares of the unrestored bits
        assert head[4] == len(todo) * batch
        bits = message_bits(message, head)
        own = mpc.unpack_batch(engine.parties.shares[ids.index(recipient), todo], batch)
        assert np.array_equal(bits.reshape(len(todo), batch), own)
    for owner in (1, 2):
        assert all(head[4] == 3 * batch for s, _, head, _ in round0 if s == owner)
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
    sched = circ.schedule()  # memoized, so not measured below
    np.random.default_rng()  # numpy imports its random module on first use
    rows = sched.and_inputs_opened + sched.and_count
    # byte-aligned, ragged and one bit; the pool in one chunk, in about
    # four, and in chunks of four rows, which every layer outgrows, so
    # that the first chunk is the first layer alone
    for batch in (64, 9, 1):
        width = -(-batch // 8)
        for most in (rows, -(-rows // 4), 4):
            monkeypatch.setattr(mpc, "_CHUNK_BYTES", most * mpc._dealt_row_bytes(3, batch))
            assert mpc._chunk_rows(3, batch) == most
            tracemalloc.start()
            try:
                engine = mpc.Engine(circ, [0, 1, 2], batch=batch)
                engine.parties.pool.take()  # deals the first chunk
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            pool = engine.parties.pool
            first = pool.r.shape[1] + pool.c.shape[1]  # rows of the first chunk
            assert first <= most if most > 4 else first == sched.opened[0] + sched.ands[0] > most
            kept = engine.parties.shares.nbytes + pool.r.nbytes + pool.c.nbytes
            # the share tensor and the pool's first chunk
            assert kept == (circ.n_wires + first) * 3 * width
            assert kept < peak <= mpc.engine_bytes(3, circ.n_wires, circ.and_count, batch, sched.widest_layer)


def test_an_engine_holds_one_chunk_of_a_pool_of_many():
    """Building and running an engine whose pool spans over ten chunks
    peaks below its share tensor plus the whole pool, which is what it
    would hold if the dealer dealt the pool up front."""
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=12, sigma=32)).circuit
    circ.schedule()  # memoized, so not measured below
    batch, ids = 256, [0, 1, 2]
    sched = circ.schedule()
    assert sched.and_inputs_opened + circ.and_count > 10 * mpc._chunk_rows(len(ids), batch)
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
    whole_pool = len(ids) * (sched.and_inputs_opened + circ.and_count) * batch // 8
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


def test_engine_refuses_a_layer_wider_than_the_limit_once_the_schedule_shows_it(monkeypatch):
    """A layer wider than a chunk is dealt as one chunk of its own, which
    only the schedule can size: the engine checks the limit again then,
    before it makes its shares or deals a mask."""
    circ = CP.compile_circuit(CP.CircuitConfig(n_parties=3, inputs_per_party=2, sigma=8)).circuit
    widest = circ.schedule().widest_layer
    monkeypatch.setattr(mpc, "_CHUNK_BYTES", 4 * mpc._dealt_row_bytes(3, 64))  # 4 rows
    assert widest > 4
    need = mpc.engine_bytes(3, circ.n_wires, circ.and_count, 64, widest)
    assert need > mpc.engine_bytes(3, circ.n_wires, circ.and_count, 64)
    monkeypatch.setattr(mpc, "MAX_ENGINE_BYTES", need - 1)
    monkeypatch.setattr(mpc, "Party", None)  # nothing past the check may run
    with pytest.raises(mpc.EngineTooLarge, match=f"{need} bytes"):
        mpc.Engine(circ, [0, 1, 2], batch=64)


@pytest.mark.parametrize("batch", [0, -3])
def test_engine_refuses_an_empty_or_negative_batch(batch):
    circ = CP.build_max_circuit(2, 4)
    with pytest.raises(mpc.MpcError, match="at least 1"):
        mpc.Engine(circ, [0, 1], batch=batch)


@pytest.mark.parametrize("epoch", [1 << 32, -1])
def test_engine_refuses_an_epoch_the_frame_header_cannot_carry(epoch, monkeypatch):
    circ = CP.build_max_circuit(2, 4)
    mpc.Engine(circ, [0, 1], epoch=(1 << 32) - 1)  # the largest the header carries
    monkeypatch.setattr(type(circ), "schedule", None)  # refused before the schedule is built
    with pytest.raises(mpc.MpcError, match=f"epoch {epoch} is not in"):
        mpc.Engine(circ, [0, 1], epoch=epoch)


@pytest.mark.parametrize("ids, why", [
    ([0, 0], "distinct"),
    ([], "one or more"),
    ([0, 1 << 16], "not all in"),
    ([-1, 0], "not all in"),
])
def test_engine_refuses_repeated_missing_or_unframeable_computing_parties(ids, why, monkeypatch):
    circ = CP.build_max_circuit(2, 4)
    monkeypatch.setattr(type(circ), "schedule", None)  # refused before the schedule is built
    with pytest.raises(mpc.MpcError, match=why):
        mpc.Engine(circ, ids)


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
    """Logs (sender, recipient, header fields, message) for every message
    sent, its header fields the last of the `seals` fixture's."""

    def __init__(self, seals):
        super().__init__()
        self.seals = seals
        self.log = []

    def send(self, sender, recipient, data):
        self.log.append((sender, recipient, self.seals[-1], data))
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
def test_evaluate_and_the_engine_refuse_the_same_inputs(inputs, error, seals):
    """Both evaluators read their inputs through `input_bits`, so each bad
    round is the same error from either, and the engine sends nothing."""
    circ = _two_owner_circuit()
    with pytest.raises(C.CircuitError) as plain:
        circ.evaluate(inputs)
    transport = RecordingTransport(seals)
    with pytest.raises(C.CircuitError) as protocol:
        run_engine(circ, inputs, batch=2, transport=transport)
    assert type(plain.value) is type(protocol.value) is error
    assert transport.log == []


def test_engine_refuses_a_batch_other_than_its_own(seals):
    """A consistent batch the plaintext evaluator accepts is still refused
    by an engine built for another width, before any frame is sent."""
    circ = _two_owner_circuit()
    inputs = {0: _bits(2, 3), 1: _bits(2, 3)}
    assert circ.evaluate(inputs).shape == (2, 3)
    for batch, given in ((2, inputs), (3, {0: [1, 0], 1: [0, 1]})):
        transport = RecordingTransport(seals)
        with pytest.raises(C.WidthMismatch, match=f"for a batch of {batch}"):
            run_engine(circ, given, batch=batch, transport=transport)
        assert transport.log == []


def test_masked_messages_look_uniform(seals):
    """Received AND-layer payloads are one-time-pad masked: bit frequency
    stays near 1/2 no matter what the counterpart holds."""
    circ = tiny_and_circuit()

    def observe(x1, batch, runs=400):
        ones = total = 0
        inputs = {0: np.ones((1, batch), dtype=np.uint8), 1: np.full((1, batch), x1, dtype=np.uint8)}
        for r in range(runs):
            tr = RecordingTransport(seals)
            engine = mpc.Engine(circ, [0, 1], dealer_seed=r, batch=batch, transport=tr)
            rngs = {p: np.random.default_rng(1000 * r + p) for p in (0, 1)}
            engine.run(inputs, lambda p: rngs[p])
            for sender, recipient, head, data in tr.log:
                if recipient == 0 and sender == 1:
                    bits = message_bits(data, head)
                    ones += int(bits.sum())
                    total += bits.size
        return ones / total

    for batch in (1, 3):  # one bit, and a ragged byte with padding
        f0, f1 = observe(0, batch), observe(1, batch)
        assert abs(f0 - 0.5) < 0.05
        assert abs(f1 - 0.5) < 0.05
        assert abs(f0 - f1) < 0.07


def test_openings_of_shared_inputs_are_uniform_and_independent(seals):
    """x is an input of all 64 ANDs of the first layer, and of the second
    layer's AND. Over seeds, each opening of either layer is a uniform
    bit, x's is independent of a neighbour's, and x's two openings, one
    per layer, are independent of each other, whatever x holds: every
    opening is masked by a mask drawn for it alone."""
    from scipy import stats

    b = CircuitBuilder()
    x = b.input_vector(0, 1)[0]
    y = np.array(b.input_vector(1, 64))
    z = b.and_v(x, y)
    circ = b.finish([b.and_v(x, b.xor_v(z[0], z[1])), *z])
    # x is each layer's first input: it is the lowest wire either reads
    assert [layer.and_gates[0][0] for layer in circ.schedule().layers] == [x, x]
    assert circ.schedule().opened.tolist() == [65, 2]

    def openings(x_bit, runs=400):
        """Per run, the 65 openings of the first layer, then the 2 of the second."""
        seen = []
        for r in range(runs):
            tr = RecordingTransport(seals)
            engine = mpc.Engine(circ, [0, 1], dealer_seed=r, transport=tr)
            rngs = {p: np.random.default_rng(1000 * r + p) for p in (0, 1)}
            engine.run({0: [x_bit], 1: [1, 0] * 32}, lambda p: rngs[p])
            # an opening is the XOR of both parties' masked payloads
            seen.append(np.concatenate([
                np.bitwise_xor.reduce([message_bits(f, head) for _, _, head, f in tr.log if head[1] == rnd])
                for rnd in (1, 2)
            ]))
        return np.array(seen)

    for x_bit in (0, 1):
        bits = openings(x_bit)
        assert bits.shape == (400, 67)
        ones = bits.sum(axis=0)
        assert stats.chisquare(np.stack([ones, 400 - ones]).ravel()).pvalue > 1e-3
        for other in (1, 65):  # y_0 in the same layer, x in the next
            cells = np.bincount(2 * bits[:, 0] + bits[:, other], minlength=4)
            assert stats.chisquare(cells).pvalue > 1e-3, (x_bit, other, cells)


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
# one key k instead of two, and again when each AND layer came to open
# each of its distinct inputs once, masked by the dealer's per-layer
# masks, in place of a (d, e) pair per AND, and again when messages came
# to leave their header off and each opening to carry each distinct wire
# once: every message outside a final opening was checked to be the one
# before with its 19 header bytes dropped, and every final opening to
# carry the earlier payload's bits of each distinct wire, in the order
# of first occurrence (the reports they return did not change any time).
TRANSCRIPT_DIGESTS = {
    "direct-fixed-plus-m": "0feac5c620f278935c978dada367e1318ea5a8204db928f1a7cde53148ee152f",
    "outsourced-at-least-m-batch-3": "eb29dd64934598f9b2478d6dfaaa04b3db8a8c3ac73a7ff35d6aa7907140834f",
    "session-two-epochs": "604ce5519eda5f14629c9144775353ba7e284d6b3613b1eb4269ef0cb7dabaa6",
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
# the generators' next raw words read as packed share bytes, and again
# when each AND layer came to open each of its distinct inputs once, and
# again when messages came to leave their header off: every message was
# checked to be the one before with its 19 header bytes dropped (these
# circuits open no wire twice), and the blobs to be byte for byte the
# ones before (the outputs and openings did not change).
ENGINE_DIGESTS = {
    1: "f6eb91436b84867ed5c324debd1f3c4512ba2d50a6984e431a369508b6d5b7c7",
    3: "b6d19f7fd736d901b04b1a1a242df626986177436b91c8c9cc6fb28eb932040b",
    9: "f3ffeeeeb2f1af933ac1dd75a8489f4022afc367fbc2f4fab65efbe805a691c4",
    16: "b91b7db4470e5ab0db9494fdb37bc6c9ca5ac021c35272a905074ed41c5ed4bf",
    256: "d2d39fed467e04fc9e606c3052652703756fbada4992836ecbefee88f096b683",
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


# SHA-256 over every computing party's share blob of `_engine_digest`'s
# run, recorded before messages left their header off: a blob keeps the
# header in front of its message, so its bytes did not change.
BLOB_DIGESTS = {
    1: "8bc18941f02043662e2d55dfc9c9b72857478faee3b0d4cb7b608ec772177cca",
    9: "890b8393b1925cbdf315ea3d4bad78883fabcfe0332a9fa744ccf2d3e4658e15",
    256: "a458e18243c98a5c3dc901723f818d30ffe084726784044748e0c754853edd71",
}


@pytest.mark.parametrize("batch", sorted(BLOB_DIGESTS))
def test_share_blobs_are_the_header_and_the_message(batch):
    _, engine = _engine_digest(batch)
    ids = engine.computing_ids
    wires = [w for p in ids for w in engine.circuit.input_map[p]]
    h = hashlib.sha256()
    for pid in ids:
        blob = engine.persist_shares(pid, wires, range_id=pid + 1)
        head = (2, 0, pid, pid + 1, len(wires) * batch)
        assert blob[:len(mpc.frame_header(*head))] == mpc.frame_header(*head)
        payload = mpc.read_frame(blob, *head)
        assert blob == mpc.frame_header(*head) + mpc.encode_frame(*head, payload)
        h.update(blob)
    assert h.hexdigest() == BLOB_DIGESTS[batch]


@pytest.mark.parametrize("batch", sorted(ENGINE_DIGESTS))
def test_engine_frames_openings_and_blobs_are_pinned(batch, monkeypatch):
    """Pinned with the pool in one chunk. Chunks of one layer deal other
    masks, and so other frames, but the same outputs."""
    assert _engine_digest(batch)[0] == ENGINE_DIGESTS[batch]
    monkeypatch.setattr(mpc, "_CHUNK_BYTES", 1)
    assert mpc._chunk_rows(3, batch) == 1
    _, engine = _engine_digest(batch)  # its outputs equal `circ.evaluate`'s
    engine.transcript.verify()
