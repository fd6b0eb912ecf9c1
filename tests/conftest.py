"""Fixtures shared by the test modules."""

import pytest

from depletion import mpc


@pytest.fixture
def seals(monkeypatch):
    """The header fields (epoch, round, sender, range id, bit count) that
    engines seal each message under, in order. `mpc.encode_frame` is
    wrapped, and an engine hands the message it sealed last to the
    transport next, so a transport's `send` reads the header of the
    message it is handed from `seals[-1]`, not from the message, which
    does not carry it."""
    log = []
    encode = mpc.encode_frame

    def sealing(epoch, round_no, sender, range_id, nbits, payload):
        log.append((epoch, round_no, sender, range_id, nbits))
        return encode(epoch, round_no, sender, range_id, nbits, payload)

    monkeypatch.setattr(mpc, "encode_frame", sealing)
    return log
