"""Transport faults: a bad frame in any kind of round aborts the run.

One fault is injected into the first frame sent in one round of the
round's own engine (the engine that negotiates u is left alone). Every
cell must raise `TransportFailure`, so no reports come back, and its
message must name the recipient of the faulted frame and the kind of
round.
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


def _reframe(data, trim=0, **steps):
    """The frame with its last `trim` payload bits dropped and each header
    field named in `steps` (version, epoch, round, sender, range) moved by
    its step, under a CRC that checks: only the header compare can refuse
    it."""
    *head, nbits, payload = mpc.decode_frame(data)
    head = [mpc.FRAME_VERSION, *head]
    for name, step in steps.items():
        head[HEADER.index(name)] += step
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits - trim)
    body = mpc._HEAD.pack(*head, bits.size) + np.packbits(bits).tobytes()
    return body + mpc._CRC.pack(zlib.crc32(body))


# fault -> the frames that reach the queue in place of the original
FAULTS = {
    "bad-crc": lambda data: [data[:-1] + bytes([data[-1] ^ 1])],
    "dropped": lambda data: [],
    "duplicated": lambda data: [data, data],
    "held-back": None,  # delivered after the next frame on its queue
    "wrong-epoch": lambda data: [_reframe(data, epoch=1)],
    "wrong-round": lambda data: [_reframe(data, round=1)],
    "wrong-sender": lambda data: [_reframe(data, sender=1)],
    "wrong-range": lambda data: [_reframe(data, range=1)],
    "wrong-version": lambda data: [_reframe(data, version=1)],
    "bit-count": lambda data: [_reframe(data, trim=1)],
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
    """Applies `fault` to the first frame sent in round `target`; with no
    fault it only records that the round was reached."""

    def __init__(self, target: int, fault: str | None):
        super().__init__()
        self.target, self.fault = target, fault
        self.hit = False
        self.held = None
        self.recipient = None

    def send(self, sender, recipient, data):
        if not self.hit and mpc.decode_frame(data)[1] == self.target:
            self.hit = True
            self.recipient = recipient
            if self.fault == "held-back":
                self.held = (sender, recipient, data)
                return
            if self.fault:
                for frame in FAULTS[self.fault](data):
                    super().send(sender, recipient, frame)
                return
        super().send(sender, recipient, data)
        if self.held and self.held[:2] == (sender, recipient):
            super().send(*self.held)
            self.held = None


def _patch_round_engine(monkeypatch, kind, fault):
    """Give the round's engine (the one with a reactive opening) a faulty
    transport; returns the list of engines patched."""
    patched = []

    class RoundEngine(mpc.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.reactive:
                self.transport = FaultyTransport(_target_round(self, kind), fault)
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
def test_clean_transport_returns_correct_reports(monkeypatch, mode):
    patched = _patch_round_engine(monkeypatch, "final-open", None)
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
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", KINDS)
def test_fault_aborts_the_run(monkeypatch, kind, fault, mode):
    patched = _patch_round_engine(monkeypatch, kind, fault)
    with pytest.raises(mpc.TransportFailure) as exc:
        S.run_sessions(CONFIGS[mode], [STOCKPILES], seed=3)
    (engine,) = patched
    assert engine.transport.hit
    message = str(exc.value)
    assert f"recipient {engine.transport.recipient}, " in message
    assert f", {KIND_NAMES[kind]} round {_target_round(engine, kind)}: " in message
