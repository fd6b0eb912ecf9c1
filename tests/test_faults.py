"""Transport faults: a bad frame in any kind of round aborts the run.

One fault is injected into the first message sent in one round of the
round's own engine (the engine that negotiates u is left alone). A
message carries no header, so the round is read from the sending engine
and the header the message was sealed under from the `seals` fixture.
Every cell must raise `TransportFailure`, so no reports come back, and
its message must name the recipient of the faulted message and the kind
of round.
"""

import zlib

import numpy as np
import pytest

from depletion import mpc, oracle
from depletion import session as S

STOCKPILES = {0: {5, 7}, 1: {5, 11}, 2: {9, 13}}
CONFIGS = {
    "direct": S.SessionConfig(parties=(0, 1, 2), sigma=8),
    "outsourced": S.SessionConfig(parties=(0, 1, 2), sigma=8, mode="outsourced", n_servers=2),
}


HEADER = ("version", "epoch", "round", "sender", "range")


def _reseal(data, head, trim=0, **steps):
    """The message `data`, sealed under the header fields `head` (epoch,
    round, sender, range, bit count), with its last `trim` payload bits
    dropped, sealed again under that header with each field named in
    `steps` (version, epoch, round, sender, range) moved by its step: its
    CRC checks under the moved header, so only the header its recipient
    expects can refuse it."""
    *fields, nbits = head
    fields = [mpc.FRAME_VERSION, *fields]
    for name, step in steps.items():
        fields[HEADER.index(name)] += step
    bits = np.unpackbits(np.frombuffer(data[: -mpc._CRC.size], dtype=np.uint8), count=nbits - trim)
    payload = np.packbits(bits).tobytes()
    moved = mpc._HEAD.pack(*fields, bits.size)
    return payload + mpc._CRC.pack(zlib.crc32(payload, zlib.crc32(moved)))


# fault -> the messages, given the original and its header, that reach the
# queue in place of the original
FAULTS = {
    "bad-crc": lambda data, head: [data[:-1] + bytes([data[-1] ^ 1])],
    "dropped": lambda data, head: [],
    "duplicated": lambda data, head: [data, data],
    "held-back": None,  # delivered after the next message on its queue
    "wrong-epoch": lambda data, head: [_reseal(data, head, epoch=1)],
    "wrong-round": lambda data, head: [_reseal(data, head, round=1)],
    "wrong-sender": lambda data, head: [_reseal(data, head, sender=1)],
    "wrong-range": lambda data, head: [_reseal(data, head, range=1)],
    "wrong-version": lambda data, head: [_reseal(data, head, version=1)],
    "bit-count": lambda data, head: [_reseal(data, head, trim=1)],
}


def _target_round(engine: mpc.Engine, kind: str) -> int:
    """Round number of the first round of `kind`; inputs go in round 0
    and the sortedness flags open after the last AND layer."""
    return {
        "input-share": 0,
        "and-layer": 1,
        "reactive-open": engine.schedule.and_layers + 1,
        "final-open": engine.schedule.and_layers + len(engine.reactive) + 1,
    }[kind]


class FaultyTransport(mpc.InProcessTransport):
    """Applies `fault` to the first message `engine` sends in round
    `target`, whose header is the last of `seals`; with no fault it only
    records that the round was reached."""

    def __init__(self, engine: mpc.Engine, seals: list, target: int, fault: str | None):
        super().__init__()
        self.engine, self.seals = engine, seals
        self.target, self.fault = target, fault
        self.hit = False
        self.held = None
        self.recipient = None

    def send(self, sender, recipient, data):
        if not self.hit and self.engine._round == self.target:
            self.hit = True
            self.recipient = recipient
            if self.fault == "held-back":
                self.held = (sender, recipient, data)
                return
            if self.fault:
                for message in FAULTS[self.fault](data, self.seals[-1]):
                    super().send(sender, recipient, message)
                return
        super().send(sender, recipient, data)
        if self.held and self.held[:2] == (sender, recipient):
            super().send(*self.held)
            self.held = None


def _patch_round_engine(monkeypatch, seals, kind, fault):
    """Give the round's engine (the one with a reactive opening) a faulty
    transport; returns the list of engines patched."""
    patched = []

    class RoundEngine(mpc.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.reactive:
                self.transport = FaultyTransport(self, seals, _target_round(self, kind), fault)
                patched.append(self)

    monkeypatch.setattr(mpc, "Engine", RoundEngine)
    return patched


KINDS = ["input-share", "and-layer", "reactive-open", "final-open"]
# how an abort message names each kind of round
KIND_NAMES = {
    "input-share": "input share",
    "and-layer": "AND layer",
    "reactive-open": "reactive opening",
    "final-open": "final opening",
}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_clean_transport_returns_correct_reports(monkeypatch, seals, mode):
    patched = _patch_round_engine(monkeypatch, seals, "final-open", None)
    result = S.run_sessions(CONFIGS[mode], [STOCKPILES], seed=3)
    expect = oracle.brute_force_shared(STOCKPILES)
    assert {p: rep.shared for p, rep in result.reports[0].items()} == expect
    (engine,) = patched
    assert engine.transport.hit
    # the four kinds name four different rounds, the last one the final opening
    rounds = [_target_round(engine, kind) for kind in KINDS]
    assert rounds == sorted(set(rounds))
    assert rounds[-1] == engine.transcript.rounds


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_every_message_reads_behind_the_header_it_was_sealed_under(monkeypatch, seals, mode):
    """In every kind of round, a message is a frame without its header:
    `read_frame` accepts the expected header followed by the message, and
    the message is its payload and a CRC32 of header and payload."""
    sent = []
    send = mpc.InProcessTransport.send

    def recording(transport, sender, recipient, data):
        sent.append((transport, seals[-1], data))
        send(transport, sender, recipient, data)

    monkeypatch.setattr(mpc.InProcessTransport, "send", recording)
    patched = _patch_round_engine(monkeypatch, seals, "final-open", None)
    S.run_sessions(CONFIGS[mode], [STOCKPILES], seed=3)
    (engine,) = patched
    for _, head, data in sent:
        payload = mpc.read_frame(mpc.frame_header(*head) + data, *head)
        assert data == payload + mpc._CRC.pack(zlib.crc32(payload, zlib.crc32(mpc.frame_header(*head))))
    rounds = {head[1] for transport, head, _ in sent if transport is engine.transport}
    assert {_target_round(engine, kind) for kind in KINDS} <= rounds


@pytest.mark.parametrize("mode", sorted(CONFIGS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", KINDS)
def test_fault_aborts_the_run(monkeypatch, seals, kind, fault, mode):
    patched = _patch_round_engine(monkeypatch, seals, kind, fault)
    with pytest.raises(mpc.TransportFailure) as exc:
        S.run_sessions(CONFIGS[mode], [STOCKPILES], seed=3)
    (engine,) = patched
    assert engine.transport.hit
    message = str(exc.value)
    assert f"recipient {engine.transport.recipient}, " in message
    assert f", {KIND_NAMES[kind]} round {_target_round(engine, kind)}: " in message
